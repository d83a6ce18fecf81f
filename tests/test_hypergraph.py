import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from conftest import small_hypergraphs
from isobench import (
    BudgetExceededError,
    Hypergraph,
    complement_singleton_hypergraph,
    enumerate_hypergraphs,
    is_linear,
    one_degenerate_order,
    power_set_hypergraph,
    random_hypergraph,
    random_uniform_hypergraph,
    singleton_hypergraph,
)
from isobench import hypergraph
from isobench.hypergraph import (
    disjoint_union,
    edge_mask,
    edge_vertices,
    is_connected,
    is_inclusion_free,
    remove_vertex,
)


def H(n, *edges, **kw):
    return Hypergraph.from_edges(n, edges, **kw)


class TestConstruction:
    def test_edges_normalized_to_canonical_order(self):
        h = Hypergraph(3, (edge_mask([2, 3], 3), edge_mask([1], 3)))
        assert h.vertex_sets() == ((1,), (2, 3))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(2, (3, 3))

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            H(2, [1, 3])

    def test_rejects_empty_edge_without_flag(self):
        with pytest.raises(ValueError, match="empty edge"):
            Hypergraph(2, (0,))

    def test_rejects_nested_edges_when_inclusion_free(self):
        with pytest.raises(ValueError, match="inclusion-free"):
            H(2, [1], [1, 2])

    def test_nested_edges_allowed_when_flag_cleared(self):
        h = H(2, [1], [1, 2], require_inclusion_free=False)
        assert h.m == 2

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Hypergraph(0, ())

    def test_degree(self):
        h = H(3, [1, 2], [2, 3])
        assert [h.degree(v) for v in (1, 2, 3)] == [1, 2, 1]

    def test_json_roundtrip(self):
        h = H(3, [1, 2], [3])
        assert Hypergraph.from_json_dict(h.to_json_dict()) == h
        p = power_set_hypergraph(2)
        assert Hypergraph.from_json_dict(p.to_json_dict()) == p

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_json_dict({"edges": [[1]]})


class TestPredicates:
    def test_inclusion_free_examples(self):
        assert is_inclusion_free(singleton_hypergraph(3))
        assert not is_inclusion_free(H(2, [1], [1, 2], require_inclusion_free=False))
        assert is_inclusion_free(Hypergraph(3, ()))

    def test_linear_examples(self):
        triangle = H(3, [1, 2], [1, 3], [2, 3])
        assert is_linear(triangle)
        # two cardinality-3 edges on 4 vertices share 2 vertices
        assert not is_linear(complement_singleton_hypergraph(4))
        assert is_linear(singleton_hypergraph(5))

    def test_connectivity(self):
        assert is_connected(H(3, [1, 2], [2, 3]))
        assert not is_connected(H(3, [1, 2]))  # vertex 3 uncovered
        assert not is_connected(H(4, [1, 2], [3, 4]))
        assert is_connected(H(1, [1]))
        assert not is_connected(Hypergraph(1, ()))

    def test_connectivity_on_every_edge_set(self):
        # all 65,812 edge sets with n <= 4, the empty edge and nested edges
        # included, against a component count by depth-first search; an
        # uncovered vertex makes a hypergraph disconnected, even at n = 1
        def components(n, edges):
            seen, count = set(), 0
            for start in range(1, n + 1):
                if start in seen:
                    continue
                count += 1
                seen.add(start)
                stack = [start]
                while stack:
                    v = stack.pop()
                    for u in {u for e in edges if v in e for u in e} - seen:
                        seen.add(u)
                        stack.append(u)
            return count

        checked = 0
        for n in range(1, 5):
            for chosen in range(1 << (1 << n)):
                masks = tuple(e for e in range(1 << n) if chosen >> e & 1)
                h = Hypergraph(n, masks, allow_empty_edge=True, require_inclusion_free=False)
                edges = h.vertex_sets()
                covered = set().union(*edges) == set(range(1, n + 1))
                assert is_connected(h) == (covered and components(n, edges) == 1), h
                checked += 1
        assert checked == 65812


class TestGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_singleton(self, n):
        h = singleton_hypergraph(n)
        assert h.vertex_sets() == tuple((i,) for i in range(1, n + 1))

    def test_singleton_rejects_zero(self):
        with pytest.raises(ValueError):
            singleton_hypergraph(0)

    def test_complement_singleton(self):
        assert complement_singleton_hypergraph(2) == singleton_hypergraph(2)
        h = complement_singleton_hypergraph(3)
        assert h.vertex_sets() == ((1, 2), (1, 3), (2, 3))
        assert all(c == 3 for c in complement_singleton_hypergraph(4).cardinalities())
        with pytest.raises(ValueError):
            complement_singleton_hypergraph(1)

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 8)])
    def test_power_set(self, n, count):
        h = power_set_hypergraph(n)
        assert h.m == count
        assert h.allow_empty_edge and not h.require_inclusion_free

    def test_power_set_budget(self):
        with pytest.raises(BudgetExceededError):
            power_set_hypergraph(17)  # 2^17 edges, refused before any is built


class TestRemoveVertex:
    def test_keeps_edges_avoiding_v(self):
        assert remove_vertex(H(3, [1, 2], [2, 3]), 3) == H(2, [1, 2])

    def test_singleton_family(self):
        assert remove_vertex(singleton_hypergraph(3), 2) == singleton_hypergraph(2)

    def test_can_drop_all_edges(self):
        assert remove_vertex(H(2, [1, 2]), 1) == Hypergraph(1, ())

    def test_relabels_above_v(self):
        h = remove_vertex(H(4, [1, 3], [2, 4], [1, 2]), 1)
        # {2,4} -> {1,3} after relabeling
        assert h.vertex_sets() == ((1, 3),)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            remove_vertex(H(2, [1, 2]), 3)
        with pytest.raises(ValueError):
            remove_vertex(Hypergraph(1, ()), 1)

    @given(small_hypergraphs())
    @settings(max_examples=60)
    def test_degree_zero_removal_preserves_edge_count(self, h):
        for v in range(1, h.n + 1):
            if h.n > 1 and h.degree(v) == 0:
                assert remove_vertex(h, v).m == h.m


class TestDisjointUnion:
    def test_examples(self):
        s1 = singleton_hypergraph(1)
        assert disjoint_union(s1, s1) == singleton_hypergraph(2)
        assert disjoint_union(H(2, [1, 2]), H(2, [1, 2])) == H(4, [1, 2], [3, 4])

    def test_isolated_vertex_passthrough(self):
        u = disjoint_union(singleton_hypergraph(2), Hypergraph(1, ()))
        assert u.n == 3 and u.vertex_sets() == ((1,), (2,))

    @given(small_hypergraphs(), small_hypergraphs())
    @settings(max_examples=60)
    def test_counts_add(self, a, b):
        u = disjoint_union(a, b)
        assert u.n == a.n + b.n
        assert u.m == a.m + b.m


class TestOneDegenerateOrder:
    def test_path_has_order(self):
        order = one_degenerate_order(H(3, [1, 2], [2, 3]))
        assert order is not None

    def test_triangle_has_none(self):
        assert one_degenerate_order(H(3, [1, 2], [1, 3], [2, 3])) is None

    def test_empty_hypergraph(self):
        assert one_degenerate_order(Hypergraph(3, ())) == (1, 2, 3)

    @given(small_hypergraphs())
    @settings(max_examples=80)
    def test_order_matches_independent_checker(self, h):
        order = one_degenerate_order(h)
        edges = [edge_vertices(e) for e in h.edges]
        if order is not None:
            assert oracle.valid_elimination_order(edges, list(order))
        if h.n <= 4:
            assert (order is not None) == oracle.is_one_degenerate(h.n, edges)


class TestEnumeration:
    def test_inclusion_free_n2_lists_all_five(self):
        hs = list(enumerate_hypergraphs(2))
        families = {h.vertex_sets() for h in hs}
        assert families == {(), ((1,),), ((2,),), ((1, 2),), ((1,), (2,))}

    def test_inclusion_free_matches_antichain_oracle(self):
        for n in (1, 2, 3):
            got = {h.edges for h in enumerate_hypergraphs(n)}
            want = {tuple(sorted(a, key=edge_vertices)) for a in oracle.antichains(list(range(1, 2**n)))}
            assert got == want

    def test_uniform_filter(self):
        """Every r-uniform edge set is an antichain, so filtering the walk on
        one edge cardinality lists all 2^C(n, r) of them, the empty one too."""
        for n in (1, 2, 3, 4):
            for r in range(1, n + 1):
                got = [h for h in enumerate_hypergraphs(n) if set(h.cardinalities()) <= {r}]
                assert len(got) == 2 ** math.comb(n, r)
        hs = [h for h in enumerate_hypergraphs(3) if set(h.cardinalities()) <= {3}]
        assert [h.vertex_sets() for h in hs] == [(), ((1, 2, 3),)]

    def test_each_exactly_once_and_deterministic(self):
        a = [h.edges for h in enumerate_hypergraphs(3)]
        b = [h.edges for h in enumerate_hypergraphs(3)]
        assert a == b
        assert len(a) == len(set(a))

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "_MAX_COUNT", 10)
        with pytest.raises(BudgetExceededError):
            list(enumerate_hypergraphs(3))

    def test_budget_counts_visited_edge_sets(self, monkeypatch):
        """The pruning rejects most of the walk: 167 inclusion-free edge sets
        on 4 vertices are visited for a handful of pruned yields, and the
        budget bounds the visits, not the yields."""
        kept = list(enumerate_hypergraphs(4, prune=True))
        assert len(list(enumerate_hypergraphs(4))) == 167
        assert len(kept) < 50
        monkeypatch.setattr(hypergraph, "_MAX_COUNT", 167)
        assert list(enumerate_hypergraphs(4, prune=True)) == kept
        monkeypatch.setattr(hypergraph, "_MAX_COUNT", 50)
        with pytest.raises(BudgetExceededError):
            list(enumerate_hypergraphs(4, prune=True))

    def test_inclusion_free_walk_refused_before_first_visit(self, monkeypatch):
        """The walk visits the D(n) - 1 antichains of nonempty sets
        (Dedekind numbers), pruned or not, so a smaller budget is refused
        before the first yield."""
        for n, visits in ((1, 2), (2, 5), (3, 19), (4, 167), (5, 7580)):
            monkeypatch.setattr(hypergraph, "_MAX_COUNT", visits)
            assert len(list(enumerate_hypergraphs(n))) == visits
            list(enumerate_hypergraphs(n, prune=True))
            monkeypatch.setattr(hypergraph, "_MAX_COUNT", visits - 1)
            for prune in (False, True):
                walk = enumerate_hypergraphs(n, prune=prune)
                with pytest.raises(BudgetExceededError, match=f"^enumeration exceeds budget {visits - 1}$"):
                    next(walk)

    def test_pruning_filters(self):
        pruned = list(enumerate_hypergraphs(3, prune=True))
        for h in pruned:
            assert is_connected(h)
            assert all(h.degree(v) >= 2 for v in range(1, 4))
        # the triangle and {123} and mixed families survive on 3 vertices
        assert H(3, [1, 2], [1, 3], [2, 3]) in pruned


class TestRandomGenerators:
    def test_random_hypergraph_deterministic_and_valid(self):
        a = random_hypergraph(4, 4, np.random.default_rng(5))
        b = random_hypergraph(4, 4, np.random.default_rng(5))
        assert a == b
        assert is_inclusion_free(a)
        assert a.m <= 4

    def test_random_uniform(self):
        h = random_uniform_hypergraph(6, 3, 4, np.random.default_rng(1))
        assert h.m == 4
        assert set(h.cardinalities()) == {3}
        with pytest.raises(ValueError):
            random_uniform_hypergraph(3, 2, 10, np.random.default_rng(1))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Hypergraph(2, (4,)), "edge 4 is not a subset of 1..2"),
        (lambda: H(3, [1]).degree(4), "vertex 4 out of range 1..3"),
        (
            lambda: Hypergraph.from_json_dict({"n": 2, "edges": "12"}),
            "malformed hypergraph document: edges must be a list, not str",
        ),
        (lambda: power_set_hypergraph(0), "n must be >= 1"),
        (
            lambda: disjoint_union(power_set_hypergraph(1), power_set_hypergraph(1)),
            "both operands contain the empty edge; union would collapse them",
        ),
        (lambda: list(enumerate_hypergraphs(0)), "n must be >= 1"),
        (lambda: random_uniform_hypergraph(3, 4, 1, np.random.default_rng(1)), "r must be in 1..3"),
    ],
    ids=["edge-range", "degree-range", "json-edges", "power-set-n", "union-empty", "enumerate-n", "uniform-r"],
)
def test_input_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
