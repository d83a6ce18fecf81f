import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isobench.verify
import oracle
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
    enumerate_hypergraphs,
    identity_objective,
    is_linear,
    main_theorem_bound,
    preset_objectives,
    singleton_hypergraph,
    tashma_injection_maximal,
)
from isobench import cli, constructions, counting
from isobench.hypergraph import edge_mask
from isobench.counting import _plan
from isobench.verify import verify_grid

F = Fraction


def H(n, *edges, **kw):
    return Hypergraph.from_edges(n, edges, **kw)


def pivot_descents(h, W, pivots, edges):
    """Each weight row minus ``_pivot_step`` of the charged edge (an index
    into h.edges) at its 1-based pivot."""
    members = _plan((h,)).members.T.astype(bool)
    step = constructions._pivot_step(members[np.array(edges, dtype=np.intp)], np.array(pivots) - 1)
    return np.array(W, dtype=np.int64).reshape(-1, h.n) - step


class TestDescend:
    """The descent along a min-weight edge, as the injection applies it."""

    def test_rejects_nested_hypergraph(self):
        nested = H(2, [1], [1, 2], require_inclusion_free=False)
        for build in (build_witness_graph_A, build_witness_graph_B):
            with pytest.raises(ValueError, match="inclusion-free"):
                build(nested, 2, identity_objective(2))

    def test_exhaustive_small_instances(self):
        """Over all inclusion-free hypergraphs on <= 4 vertices and the
        presets, each injection image is w minus the first min-weight edge
        of w, and isolates that edge."""
        for n in range(1, 5):
            Ms = (2, 3) if n < 4 else (2,)
            for M in Ms:
                fams = preset_objectives(M, n)
                for h in enumerate_hypergraphs(n):
                    if not h.edges:
                        continue
                    edges = h.vertex_sets()
                    for f in fams:
                        values = [None, *f.values]
                        for w, out in tashma_injection_maximal(h, M, f).mapping:
                            k = oracle.min_edges(edges, values, w)[0]
                            assert out == oracle.lower(w, edges[k])
                            assert oracle.classify(edges, values, out) == (True, k)


class TestPivotDescend:
    def test_examples(self):
        h = H(3, [1, 2], [1, 3])
        e = h.edges.index(edge_mask([1, 2], 3))
        out = pivot_descents(h, [(1, 2, 3), (2, 2, 3)], [1, 1], [e, e])
        assert out.tolist() == [[1, 1, 3], [2, 1, 3]]
        assert pivot_descents(H(1, [1]), [(1,)], [1], [0]).tolist() == [[1]]

    def test_exhaustive_small_instances(self):
        """Every valid (w, pivot, e) input isolates e: all entries but the
        pivot's are >= 2, and every min-weight edge of w holds the pivot."""
        for n in range(1, 4):
            for M in (2, 3):
                values = [None, *identity_objective(M).values]
                for h in enumerate_hypergraphs(n):
                    if not h.edges:
                        continue
                    vertex_sets = h.vertex_sets()
                    cases = []
                    for pivot in range(1, n + 1):
                        others = [i for i in range(n) if i != pivot - 1]
                        for w in itertools.product(range(1, M + 1), repeat=n):
                            if any(w[i] < 2 for i in others):
                                continue
                            mins = oracle.min_edges(vertex_sets, values, w)
                            if any(pivot not in vertex_sets[k] for k in mins):
                                continue
                            cases.extend((w, pivot, k) for k in mins)
                    if not cases:
                        continue
                    W, pivots, edges = zip(*cases)
                    for out, e in zip(pivot_descents(h, W, pivots, edges).tolist(), edges):
                        assert oracle.classify(vertex_sets, values, tuple(out)) == (True, e)


class TestNextVertex:
    def test_examples(self):
        def next_vertices(n, vertex_sets, pivots):
            rows = np.array([[v in vs for v in range(1, n + 1)] for vs in vertex_sets])
            step = constructions._next_vertex_step(rows, np.array(pivots) - 1)
            assert (step.sum(axis=1) == 1).all()
            return (step.argmax(axis=1) + 1).tolist()

        assert next_vertices(7, [[2, 5, 7]] * 3, [2, 5, 7]) == [5, 7, 2]
        assert next_vertices(4, [[4]], [4]) == [4]


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
        edges, values = h.vertex_sets(), [None, *f.values]
        for w, image in inj.items():
            isolating, k = oracle.classify(edges, values, image)
            assert isolating
            if h.edges:
                restored = tuple(
                    x + 1 if v in edges[k] else x for v, x in enumerate(image, start=1)
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
        edges, values = h.vertex_sets(), [None, *f.values]
        for u in G.right:
            assert oracle.classify(edges, values, u)[0] and min(u) == 1
        # the charge identity and the theorem-level bound
        assert G.total_charge() == len(G.right)
        assert G.total_charge() >= main_theorem_bound(M, h.n)
        # per-node charge for bounded edge cardinality
        r = max(2, max((e.bit_count() for e in h.edges), default=2))
        assert all(c >= F(2, r) for c in G.charges)

    def test_json_dump(self):
        G = build_witness_graph_A(singleton_hypergraph(2), 2, identity_objective(2))
        doc = json.loads(cli._json_text(G))
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
        edges, values = h.vertex_sets(), [None, *f.values]
        for u in G.right:
            assert oracle.classify(edges, values, u)[0] and min(u) == 1


class TestWitnessBudget:
    @pytest.mark.parametrize("build", [build_witness_graph_A, build_witness_graph_B])
    def test_refuses_before_building_left_nodes(self, build, monkeypatch):
        h, f = H(4, [1, 2], [2, 3], [3, 4], [1, 4]), identity_objective(3)
        expected = build(h, 3, f)
        assert len(expected.left) == 4 * 2**3

        def never(*args, **kwargs):
            raise AssertionError("the builder started work")

        # 2 * 4 * 2^3 rows times 4 edges
        assert counting._stack_cells(4, 3, 4) == 256
        monkeypatch.setattr(constructions, "_stacked_sums", never)
        monkeypatch.setattr(constructions, "_left_nodes", never)
        monkeypatch.setattr(counting, "_STACK_CELLS", 255)
        message = "^the constructions of one hypergraph on 4 vertices at M = 3 stack 256 cells, more than 255$"
        with pytest.raises(BudgetExceededError, match=message):
            build(h, 3, f)
        monkeypatch.undo()
        monkeypatch.setattr(counting, "_STACK_CELLS", 256)
        assert build(h, 3, f) == expected

    def test_instance_checks_pass_their_budget(self, monkeypatch):
        """The checks refuse a scan over their budget before building any
        graph; every construction has fewer rows than the scan, M^n."""
        seen = []
        real = isobench.verify._witnesses

        def spy(members, M, f, step, what, *classified):
            seen.append((what, len(classified)))
            return real(members, M, f, step, what, *classified)

        monkeypatch.setattr(isobench.verify, "_witnesses", spy)
        h = H(3, [1, 2], [2, 3])
        with pytest.raises(BudgetExceededError, match=r"^3\^3 = 27 weight evaluations exceed budget 26$"):
            verify_grid([[h]], [3], budget=26)
        assert seen == []
        summary = verify_grid([[h]], [3], budget=27)
        assert summary.checks_run > 0 and summary.ok
        # B is handed A's classification of their shared left nodes
        assert seen == [("pivot descent", 0), ("next-vertex descent", 1)]


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

    @pytest.mark.parametrize(
        "check,args",
        [
            (check_degree_zero_reduction, (H(3, [1], [2]), 3)),
            (check_degree_one_reduction, (H(3, [1, 2], [3]), 3)),
            (check_disjoint_union_reduction, (H(2, [1, 2]), singleton_hypergraph(1))),
        ],
        ids=["degree-zero", "degree-one", "union"],
    )
    def test_refused_before_the_first_count(self, check, args, monkeypatch):
        """The largest scan is H's (or the union's) 3^3 - 2^3 = 19 layer-1
        rows: a budget of 18 refuses the check before any count."""
        f = identity_objective(3)
        expected = check(*args, 3, f)
        seen = []
        blocks = counting._blocks

        def spy(*a, **k):
            seen.append(a[0])
            return blocks(*a, **k)

        monkeypatch.setattr(counting, "_blocks", spy)
        monkeypatch.setattr(counting, "DEFAULT_BUDGET", 18)
        with pytest.raises(BudgetExceededError, match="^19 weight evaluations exceed budget 18$"):
            check(*args, 3, f)
        assert seen == []
        monkeypatch.setattr(counting, "DEFAULT_BUDGET", 19)
        assert check(*args, 3, f) == expected

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
