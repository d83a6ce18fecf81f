import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import small_hypergraphs
from isobench import (
    BudgetExceededError,
    Hypergraph,
    build_witness_graph_A,
    check_min_cardinality_reduction,
    count_isolating,
    enumerate_hypergraphs,
    explicit_objective,
    identity_objective,
    random_uniform_hypergraph,
    rich_edge_report,
    singleton_hypergraph,
    tashma_injection_maximal,
)
from isobench import cli, counting, special_m2
from isobench.counting import _plan
from isobench.hypergraph import edge_mask, edge_vertices
from isobench.special_m2 import _special_scan, min_vertex_cover


def H(n, *edges, **kw):
    return Hypergraph.from_edges(n, edges, **kw)


def special_isolating_weights(h):
    """All special isolating weights of h, sorted lexicographically: the
    special scan on a stack of one, every edge kept."""
    W, special, _ = _special_scan(_plan((h,)).members.T[None], np.ones((1, h.m), dtype=bool))
    return list(map(tuple, W[special[0]].tolist()))


class TestSpecialWeights:
    def test_singleton_pair(self):
        assert special_isolating_weights(singleton_hypergraph(2)) == [(1, 2), (2, 1)]

    def test_single_edge_counts(self):
        assert len(special_isolating_weights(H(3, [1, 2]))) == 5
        assert len(special_isolating_weights(H(2, [1, 2]))) == 4

    def test_empty_hypergraph_convention(self):
        assert len(special_isolating_weights(Hypergraph(2, ()))) == 4

    def test_single_edge_formula(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                h = H(n, list(range(1, r + 1)))
                got = len(special_isolating_weights(h))
                assert got == 2**r + 2 ** (n - r) - 1, (n, r)

    @given(small_hypergraphs(max_n=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_definition_oracle(self, h):
        check_against_oracle(h)

    def test_uniform_histograms_match_oracle(self):
        """Every uniform hypergraph on n <= 4 vertices: an r-uniform edge
        set is an antichain, so the walk holds each one."""
        for n in range(1, 5):
            for r in range(1, n + 1):
                for h in enumerate_hypergraphs(n):
                    if set(h.cardinalities()) <= {r}:
                        check_against_oracle(h)


def check_against_oracle(h):
    """The special weights equal the oracle's; on a uniform h, so do the
    per-edge counts of ``rich_edge_report``, taken by isolated edge."""
    vsets = [list(edge_vertices(e)) for e in h.edges]
    specials = oracle.special_weights(h.n, vsets)
    assert special_isolating_weights(h) == sorted(specials)
    if len({len(e) for e in vsets}) == 1:
        per_edge = [0] * h.m
        for w in specials:
            sums = [sum(w[v - 1] for v in e) for e in vsets]
            per_edge[sums.index(min(sums))] += 1
        report = rich_edge_report(h)
        assert [e.s_exact for e in report.edges] == per_edge
        assert report.total_special == len(specials)


class TestMinCardinalitySubgraph:
    def test_examples(self):
        """The reduction counts the special weights of the edges of least
        cardinality, H_r."""
        f = identity_objective(2)
        for h, h_r in [
            (H(3, [1], [2, 3]), H(3, [1])),
            (singleton_hypergraph(3), singleton_hypergraph(3)),
            (H(5, [1, 2], [3, 4], [1, 3, 5]), H(5, [1, 2], [3, 4])),
        ]:
            chk = check_min_cardinality_reduction(h, f)
            assert chk.special_count == len(special_isolating_weights(h_r))


class TestMinCardinalityReduction:
    def test_mixed_cardinalities(self):
        assert check_min_cardinality_reduction(H(3, [1], [2, 3]), identity_objective(2)).holds

    def test_uniform(self):
        f = explicit_objective([Fraction(1, 3), Fraction(7, 2)])
        assert check_min_cardinality_reduction(H(4, [1, 2], [3, 4], [1, 3]), f).holds

    def test_empty_vacuous(self):
        chk = check_min_cardinality_reduction(Hypergraph(2, ()), identity_objective(2))
        assert chk.holds and chk.special_count == 4

    def test_requires_M2(self):
        with pytest.raises(ValueError):
            check_min_cardinality_reduction(singleton_hypergraph(2), identity_objective(3))

    @given(small_hypergraphs(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_subset_relation_under_random_objectives(self, h, data):
        from conftest import increasing_objectives

        f = data.draw(increasing_objectives(2))
        assert check_min_cardinality_reduction(h, f).holds


class TestMinVertexCover:
    def test_examples(self):
        assert min_vertex_cover(H(4, [3, 4])) == (3,)
        assert min_vertex_cover(H(2, [1], [2])) == (1, 2)
        assert min_vertex_cover(H(3, [1, 2], [2, 3])) == (2,)
        assert min_vertex_cover(Hypergraph(3, ())) == ()

    def test_empty_edge_rejected(self):
        g = Hypergraph(2, (0, 1), allow_empty_edge=True, require_inclusion_free=False)
        with pytest.raises(ValueError, match="empty edge"):
            min_vertex_cover(g)

    @given(small_hypergraphs(max_n=5))
    @settings(max_examples=80, deadline=None)
    def test_minimum_and_lex_smallest(self, h):
        if not h.edges:
            return
        vsets = [edge_vertices(e) for e in h.edges]
        size, covers = oracle.minimum_covers(h.n, vsets)
        got = min_vertex_cover(h)
        assert len(got) == size
        assert got == min(covers)


class TestRichEdgeReport:
    def test_two_disjoint_edges(self):
        rep = rich_edge_report(H(4, [1, 2], [3, 4]))
        assert rep.total_special == 10
        for er in rep.edges:
            assert er.rich
            assert (len(er.cover1), len(er.cover2)) == (1, 1)
            assert er.s_lower == 3
            assert er.s_exact >= er.s_lower

    def test_single_edge(self):
        rep = rich_edge_report(H(2, [1, 2]))
        er = rep.edges[0]
        assert (er.cover1, er.cover2) == ((), ())
        assert er.s_lower == 2 ** (2 - 2 - 0) + 2 ** (2 - 0) - 1 == 4
        assert er.s_exact == rep.total_special == 4

    def test_singleton_pair(self):
        rep = rich_edge_report(singleton_hypergraph(2))
        for er in rep.edges:
            assert len(er.cover2) == 1
            assert er.s_exact == 1

    def test_swap_indicators(self):
        rep = rich_edge_report(H(3, [1, 2], [1, 3]))
        by_edge = {er.edge: er for er in rep.edges}
        er = by_edge[edge_mask([1, 2], 3)]
        swaps = {(i, j): v for i, j, v in er.swaps}
        # {1,2} xor {2,3} = {1,3} which is an edge
        assert swaps[(2, 3)] == 1
        assert swaps[(1, 3)] == 0

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError, match="uniform"):
            rich_edge_report(H(3, [1], [2, 3]))

    def test_json(self):
        doc = json.loads(cli._json_text(rich_edge_report(H(2, [1, 2]))))
        assert doc["edges"][0]["s_exact"] == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_random_uniform_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        import math

        m = int(rng.integers(1, min(math.comb(n, r), 10) + 1))
        h = random_uniform_hypergraph(n, r, m, rng)
        rep = rich_edge_report(h)
        assert rep.total_special >= n
        for er in rep.edges:
            assert er.s_exact >= er.s_lower
            assert len(er.cover1) <= min(r, h.m - 1)
            assert len(er.cover2) <= min(n - r, h.m - 1)
            assert er.rich == (len(er.cover2) < n - r or len(er.cover1) < r)


class TestBuilderRefusals:
    def test_cover_limit(self):
        """The cover search tries subsets of at most 20 vertices, those in
        the edges, however many the hypergraph has."""
        assert min_vertex_cover(H(21, range(1, 21))) == (1,)
        with pytest.raises(BudgetExceededError) as info:
            min_vertex_cover(H(21, range(1, 22)))
        assert str(info.value) == "exact cover search limited to 20 vertices"

    def test_rich_edge_report_refused_by_the_stack_rule_first(self, monkeypatch):
        """22 singletons would need covers over 21 vertices, but 2^22 rows
        times 22 vertices refuse the report before any cover or scan."""

        def ran(*args, **kwargs):
            raise AssertionError("the report started work")

        monkeypatch.setattr(special_m2, "min_vertex_cover", ran)
        monkeypatch.setattr(special_m2, "_special_scan", ran)
        with pytest.raises(BudgetExceededError) as info:
            rich_edge_report(singleton_hypergraph(22))
        assert str(info.value) == (
            "the constructions of one hypergraph on 22 vertices at M = 2"
            " stack 92274688 cells, more than 4194304"
        )

    @pytest.mark.parametrize(
        "build,M,f,message",
        [
            (build_witness_graph_A, 1, identity_objective(1), "witness graph requires M >= 2"),
            (build_witness_graph_A, 3, identity_objective(2), "objective range 2 does not match M=3"),
            (tashma_injection_maximal, 1, identity_objective(1), "injection requires M >= 2"),
            (tashma_injection_maximal, 2, identity_objective(3), "objective range 3 does not match M=2"),
        ],
        ids=["witness-M1", "witness-range", "injection-M1", "injection-range"],
    )
    def test_range_refusals(self, build, M, f, message):
        with pytest.raises(ValueError) as info:
            build(singleton_hypergraph(2), M, f)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build", [rich_edge_report, check_min_cardinality_reduction], ids=["rich", "reduction"]
    )
    def test_budget_refusals(self, build, monkeypatch):
        """The stack rule of ``verify``: 2^4 rows times 4 vertices."""
        args = () if build is rich_edge_report else (identity_objective(2),)
        monkeypatch.setattr(counting, "_STACK_CELLS", 63)
        with pytest.raises(BudgetExceededError) as info:
            build(singleton_hypergraph(4), *args)
        assert str(info.value) == (
            "the constructions of one hypergraph on 4 vertices at M = 2 stack 64 cells, more than 63"
        )
        monkeypatch.setattr(counting, "_STACK_CELLS", 64)
        build(singleton_hypergraph(4), *args)

    @pytest.mark.parametrize(
        "H,message",
        [
            (Hypergraph(2, ()), "hypergraph has no edges"),
            (Hypergraph(2, (0,), allow_empty_edge=True), "uniform cardinality must be >= 1"),
        ],
        ids=["no-edges", "empty-edge"],
    )
    def test_rich_edge_report_refusals(self, H, message):
        with pytest.raises(ValueError) as info:
            rich_edge_report(H)
        assert str(info.value) == message
