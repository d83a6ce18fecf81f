import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isobench.verify
from conftest import counting_instances
from isobench import (
    BudgetExceededError,
    Hypergraph,
    build_witness_graph_A,
    build_witness_graph_B,
    check_degree_one_reduction,
    check_degree_zero_reduction,
    check_disjoint_union_reduction,
    complement_singleton_hypergraph,
    descend,
    edge_mask,
    enumerate_hypergraphs,
    identity_objective,
    is_isolating,
    is_linear,
    isolating_edge,
    layer,
    main_theorem_bound,
    min_weight_edges,
    next_vertex,
    pivot_descend,
    preset_objectives,
    singleton_hypergraph,
    tashma_injection_maximal,
)
from isobench import constructions
from isobench.verify import instance_checks

F = Fraction


def H(n, *edges, **kw):
    return Hypergraph.from_edges(n, edges, **kw)


class TestDescend:
    def test_examples(self):
        f = identity_objective(3)
        f2 = identity_objective(2)
        out = descend(singleton_hypergraph(2), f2, (2, 2), edge_mask([1], 2))
        assert out == (1, 2)
        assert descend(H(2, [1, 2]), f, (2, 3), edge_mask([1, 2], 2)) == (1, 2)
        out = descend(complement_singleton_hypergraph(3), f2, (2, 2, 2), edge_mask([1, 2], 3))
        assert out == (1, 1, 2)

    def test_rejects_non_min_edge(self):
        f = identity_objective(2)
        with pytest.raises(ValueError, match="min-weight"):
            descend(singleton_hypergraph(2), f, (1, 2), edge_mask([2], 2))

    def test_rejects_low_entry_on_edge(self):
        f = identity_objective(2)
        with pytest.raises(ValueError):
            descend(singleton_hypergraph(2), f, (1, 2), edge_mask([1], 2))

    def test_rejects_nested_hypergraph(self):
        nested = H(2, [1], [1, 2], require_inclusion_free=False)
        with pytest.raises(ValueError, match="inclusion-free"):
            descend(nested, identity_objective(2), (2, 2), edge_mask([1], 2))

    def test_exhaustive_small_instances(self):
        """Every valid (w, e) input isolates its edge, over all
        inclusion-free hypergraphs on <= 4 vertices and the presets."""
        for n in range(1, 5):
            Ms = (2, 3) if n < 4 else (2,)
            for M in Ms:
                fams = preset_objectives(M, n)
                for h in enumerate_hypergraphs(n, inclusion_free=True):
                    if not h.edges:
                        continue
                    for f in fams:
                        for w in itertools.product(range(2, M + 1), repeat=n):
                            for e in min_weight_edges(h, f, w):
                                out = descend(h, f, w, e)
                                assert isolating_edge(h, f, out) == e


class TestPivotDescend:
    def test_examples(self):
        f = identity_objective(3)
        h = H(3, [1, 2], [1, 3])
        assert pivot_descend(h, f, (1, 2, 3), 1, edge_mask([1, 2], 3)) == (1, 1, 3)
        assert pivot_descend(h, f, (2, 2, 3), 1, edge_mask([1, 2], 3)) == (2, 1, 3)
        h1 = H(1, [1])
        assert pivot_descend(h1, identity_objective(1), (1,), 1, 1) == (1,)

    def test_rejects_uncovered_min_edge(self):
        f = identity_objective(2)
        with pytest.raises(ValueError, match="pivot"):
            pivot_descend(singleton_hypergraph(2), f, (2, 2), 1, edge_mask([1], 2))

    def test_rejects_low_entries_off_pivot(self):
        h = H(3, [1, 2], [1, 3])
        f = identity_objective(3)
        with pytest.raises(ValueError, match=">= 2"):
            pivot_descend(h, f, (1, 1, 3), 1, edge_mask([1, 2], 3))

    def test_exhaustive_small_instances(self):
        for n in range(1, 4):
            for M in (2, 3):
                f = identity_objective(M)
                for h in enumerate_hypergraphs(n, inclusion_free=True):
                    if not h.edges:
                        continue
                    for pivot in range(1, n + 1):
                        bit = 1 << (pivot - 1)
                        others = [i for i in range(n) if i != pivot - 1]
                        for w in itertools.product(range(1, M + 1), repeat=n):
                            if any(w[i] < 2 for i in others):
                                continue
                            mins = min_weight_edges(h, f, w)
                            if any(not (e & bit) for e in mins):
                                continue
                            for e in mins:
                                out = pivot_descend(h, f, w, pivot, e)
                                assert isolating_edge(h, f, out) == e


class TestNextVertex:
    def test_examples(self):
        e = edge_mask([2, 5, 7], 7)
        assert next_vertex(2, e) == 5
        assert next_vertex(5, e) == 7
        assert next_vertex(7, e) == 2
        assert next_vertex(4, edge_mask([4], 4)) == 4

    def test_rejects_outside_vertex(self):
        with pytest.raises(ValueError):
            next_vertex(3, edge_mask([2, 5], 5))


class TestInjection:
    """The Ta-Shma injection on inclusion-free hypergraphs, where the
    maximal-edge version picks the lexicographically smallest min-weight
    edge."""

    @staticmethod
    def injection(h, M, f):
        report = tashma_injection_maximal(h, M, f)
        assert report.findings == ()
        return report.mapping_dict()

    def test_singleton_pair(self):
        inj = self.injection(singleton_hypergraph(2), 2, identity_objective(2))
        assert inj == {(2, 2): (1, 2)}

    def test_empty_hypergraph_is_identity(self):
        inj = self.injection(Hypergraph(2, ()), 2, identity_objective(2))
        assert inj == {(2, 2): (2, 2)}

    def test_complement_singletons(self):
        inj = self.injection(complement_singleton_hypergraph(3), 2, identity_objective(2))
        assert inj == {(2, 2, 2): (1, 1, 2)}

    def test_rejects_M1(self):
        with pytest.raises(ValueError):
            tashma_injection_maximal(singleton_hypergraph(2), 1, identity_objective(1))

    @given(counting_instances(max_n=3, max_M=3))
    @settings(max_examples=50, deadline=None)
    def test_image_size_isolation_and_inverse(self, instance):
        h, M, f = instance
        if M < 2:
            return
        inj = self.injection(h, M, f)
        assert len(inj) == (M - 1) ** h.n
        assert len(set(inj.values())) == len(inj)
        for w, image in inj.items():
            assert is_isolating(h, f, image)
            if h.edges:
                e = isolating_edge(h, f, image)
                restored = tuple(
                    x + 1 if (e >> i) & 1 else x for i, x in enumerate(image)
                )
                assert restored == w


class TestWitnessGraphA:
    def test_singleton_pair_merges_self_targets(self):
        G = build_witness_graph_A(singleton_hypergraph(2), 2, identity_objective(2))
        assert G.left == ((1, 2), (2, 1))
        assert G.adjacency == ((0,), (1,))
        assert G.right == ((1, 2), (2, 1))
        assert G.total_charge() == 2

    def test_empty_hypergraph_self_loops(self):
        G = build_witness_graph_A(Hypergraph(2, ()), 2, identity_objective(2))
        assert G.right == G.left
        assert all(len(nbrs) == 1 for nbrs in G.adjacency)

    def test_complement_singleton_example(self):
        G = build_witness_graph_A(complement_singleton_hypergraph(3), 3, identity_objective(3))
        assert G.total_charge() == len(G.right)
        assert G.total_charge() >= main_theorem_bound(3, 3)

    @given(counting_instances(max_n=3, max_M=3))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, instance):
        h, M, f = instance
        if M < 2:
            return
        G = build_witness_graph_A(h, M, f)
        # charged right nodes are isolating with layer 1
        for u in G.right:
            assert is_isolating(h, f, u) and layer(u) == 1
        # the charge identity and the theorem-level bound
        assert G.total_charge() == len(G.right)
        assert G.total_charge() >= main_theorem_bound(M, h.n)
        # per-node charge for bounded edge cardinality
        r = max(2, max((e.bit_count() for e in h.edges), default=2))
        assert all(c >= F(2, r) for c in G.charges)

    def test_json_dump(self):
        G = build_witness_graph_A(singleton_hypergraph(2), 2, identity_objective(2))
        doc = G.to_json_dict()
        assert doc["charges"] == ["1", "1"]
        assert doc["left"] == [[1, 2], [2, 1]]


class TestWitnessGraphB:
    def test_two_edge_example(self):
        G = build_witness_graph_B(H(3, [1, 2], [1, 3]), 2, identity_objective(2))
        assert G.total_charge() >= 3  # n (M-1)^(n-1)
        assert all(c >= 1 for c in G.charges)

    def test_single_edge_M3(self):
        G = build_witness_graph_B(H(2, [1, 2]), 3, identity_objective(3))
        assert G.total_charge() >= 4

    def test_triangle(self):
        G = build_witness_graph_B(H(3, [1, 2], [1, 3], [2, 3]), 2, identity_objective(2))
        assert G.total_charge() >= 3

    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError, match="linear"):
            build_witness_graph_B(complement_singleton_hypergraph(4), 2, identity_objective(2))

    def test_rejects_singleton_edges(self):
        with pytest.raises(ValueError, match="cardinality"):
            build_witness_graph_B(singleton_hypergraph(2), 2, identity_objective(2))

    @given(counting_instances(max_n=4, max_M=3))
    @settings(max_examples=60, deadline=None)
    def test_per_node_charge_and_degrees(self, instance):
        h, M, f = instance
        if M < 2 or not is_linear(h) or any(e.bit_count() < 2 for e in h.edges):
            return
        G = build_witness_graph_B(h, M, f)
        assert all(len(nbrs) <= 2 for nbrs in G.adjacency)
        assert all(c >= 1 for c in G.charges)
        assert G.total_charge() >= h.n * (M - 1) ** (h.n - 1)
        for u in G.right:
            assert is_isolating(h, f, u) and layer(u) == 1


class TestWitnessBudget:
    @pytest.mark.parametrize("build", [build_witness_graph_A, build_witness_graph_B])
    def test_refuses_before_building_left_nodes(self, build, monkeypatch):
        h, f = H(4, [1, 2], [2, 3], [3, 4], [1, 4]), identity_objective(3)
        expected = build(h, 3, f)
        assert len(expected.left) == 4 * 2**3

        def never(*args, **kwargs):
            raise AssertionError("the builder started work")

        monkeypatch.setattr(constructions, "_classify_rows", never)
        monkeypatch.setattr(constructions, "_left_nodes", never)
        with pytest.raises(BudgetExceededError, match="^32 left nodes exceed budget 31$"):
            build(h, 3, f, budget=31)
        monkeypatch.undo()
        assert build(h, 3, f, budget=32) == expected

    def test_instance_checks_pass_their_budget(self, monkeypatch):
        seen = []
        for name in ("build_witness_graph_A", "build_witness_graph_B"):
            real = getattr(isobench.verify, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                seen.append((_name, kwargs.get("budget")))
                return _real(*args, **kwargs)

            monkeypatch.setattr(isobench.verify, name, spy)
        instance_checks(H(3, [1, 2], [2, 3]), 3, identity_objective(3), budget=27)
        assert seen == [("build_witness_graph_A", 27), ("build_witness_graph_B", 27)]


class TestReductions:
    def test_degree_zero_examples(self):
        f = identity_objective(2)
        chk = check_degree_zero_reduction(H(3, [1, 2]), 3, 2, f)
        assert chk.holds and (chk.lhs, chk.rhs) == (7, 7)
        chk = check_degree_zero_reduction(Hypergraph(2, ()), 2, 2, f)
        assert chk.holds and (chk.lhs, chk.rhs) == (3, 3)
        f3 = identity_objective(3)
        u = H(3, [1], [2])  # S_2 plus isolated vertex 3
        assert check_degree_zero_reduction(u, 3, 3, f3).holds

    def test_degree_one_examples(self):
        f = identity_objective(2)
        chk = check_degree_one_reduction(H(3, [1, 2], [2, 3]), 1, 2, f)
        assert chk.holds and (chk.lhs, chk.rhs) == (4, 4)
        f3 = identity_objective(3)
        chk = check_degree_one_reduction(H(2, [1, 2]), 1, 3, f3)
        assert chk.holds and chk.lhs == 5
        chk = check_degree_one_reduction(singleton_hypergraph(2), 1, 2, f)
        assert chk.holds and (chk.lhs, chk.rhs) == (2, 2)

    def test_disjoint_union_examples(self):
        f = identity_objective(2)
        chk = check_disjoint_union_reduction(H(2, [1, 2]), H(2, [1, 2]), 2, f)
        assert chk.holds and (chk.lhs, chk.rhs) == (10, 6)
        f3 = identity_objective(3)
        s1 = singleton_hypergraph(1)
        chk = check_disjoint_union_reduction(s1, s1, 3, f3)
        assert chk.holds and (chk.lhs, chk.rhs) == (4, 4)
        chk = check_disjoint_union_reduction(Hypergraph(1, ()), s1, 2, f)
        assert chk.holds

    def test_wrong_degree_rejected(self):
        f = identity_objective(2)
        with pytest.raises(ValueError, match="degree"):
            check_degree_zero_reduction(H(2, [1, 2]), 1, 2, f)
        with pytest.raises(ValueError, match="degree"):
            check_degree_one_reduction(Hypergraph(2, ()), 1, 2, f)

    @given(counting_instances(max_n=3, max_M=3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_applicable_instances(self, instance, vraw):
        h, M, f = instance
        if h.n < 2:
            return
        v = (vraw - 1) % h.n + 1
        deg = h.degree(v)
        if deg == 0:
            assert check_degree_zero_reduction(h, v, M, f).holds
        elif deg == 1:
            assert check_degree_one_reduction(h, v, M, f).holds
