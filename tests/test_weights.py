import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import counting_instances, small_hypergraphs
from isobench import counting
from isobench import (
    Hypergraph,
    Objective,
    count_isolating,
    explicit_objective,
    generic_high_objective,
    generic_low_objective,
    identity_objective,
    shift_objective_up,
    singleton_hypergraph,
)
from isobench.hypergraph import edge_mask

F = Fraction


class TestObjective:
    def test_identity(self):
        f = identity_objective(3)
        assert f.values == (F(1), F(2), F(3))
        assert f.scaled == (1, 2, 3)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Objective(2, (F(2), F(2)))

    def test_rejects_zero_without_flag(self):
        with pytest.raises(ValueError, match="positive"):
            Objective(2, (F(0), F(1)))

    def test_zero_allowed(self):
        f = Objective(2, (F(0), F(1)), zero_allowed=True)
        assert f.scaled == (0, 1)

    def test_scaled_clears_denominators(self):
        f = explicit_objective([F(1, 2), F(2), F(7, 3)])
        assert f.scaled == (3, 12, 14)

    def test_generic_presets(self):
        assert generic_high_objective(2, 3).values == (F(4), F(16))
        assert generic_low_objective(2, 3).values == (1 + F(1, 9), 1 + F(2, 9))

    def test_json_roundtrip(self):
        # explicit values rebuild the objective; the generic kinds name only
        # their kind and M, since n comes with the hypergraph
        f = explicit_objective([F(1, 2), F(2)])
        assert f.to_json_dict() == {"kind": "explicit", "M": 2, "values": ["1/2", "2"]}
        assert explicit_objective(f.to_json_dict()["values"]) == f
        assert generic_high_objective(3, 4).to_json_dict() == {"kind": "generic_high", "M": 3}
        z = Objective(2, (F(0), F(1)), zero_allowed=True)
        assert z.to_json_dict() == {
            "kind": "explicit", "M": 2, "values": ["0", "1"], "zero_allowed": True
        }
        assert explicit_objective(z.to_json_dict()["values"], zero_allowed=True) == z


class TestEdgeWeight:
    """Edge weights as the counting kernel sums them: the objective's
    denominator-cleared values over the edge's vertices."""

    @staticmethod
    def edge_sum(f, w, vertices):
        h = Hypergraph.from_edges(len(w), [vertices], allow_empty_edge=True)
        values = counting._gather(np.array([w]), counting._table(f, len(w)))
        return int(counting._slot_sums(values, counting._plan((h,)).slots)[0, 0, 0])

    def test_identity_sum(self):
        assert self.edge_sum(identity_objective(3), (1, 2, 3), [1, 3]) == 4

    def test_empty_edge_is_zero(self):
        assert self.edge_sum(identity_objective(2), (2, 1), []) == 0

    def test_fractional(self):
        # f(1) + f(1) = 1/2 + 1/2 = 1, that is 2 in units of 1/2
        f = explicit_objective([F(1, 2), F(2)])
        assert f.scaled == (1, 4)
        assert self.edge_sum(f, (1, 1), [1, 2]) == 2


class TestIsolation:
    """The kernel's classify step, the package's one isolation decision,
    on single weight rows."""

    @staticmethod
    def classify(H, f, W):
        """(isolating mask, edges at the minimum) of each row of W."""
        W = np.array(W, dtype=np.int64).reshape(-1, H.n)
        values = counting._gather(W, counting._table(f, H.n))
        sums = counting._slot_sums(values, counting._plan((H,)).slots)
        iso, at_min = counting._classify(sums, H.n)
        return iso.tolist(), [tuple(e for e, hit in zip(H.edges, col) if hit) for col in at_min.T]

    def test_tie_detection(self):
        S2 = singleton_hypergraph(2)
        f = identity_objective(2)
        iso, mins = self.classify(S2, f, [(2, 2), (1, 1), (2, 1)])
        assert iso == [False, False, True]
        assert mins == [(1, 2), (1, 2), (2,)]

    def test_min_weight_example(self):
        H = Hypergraph.from_edges(3, [[1, 2], [1, 3]])
        assert self.classify(H, identity_objective(3), (1, 2, 3)) == ([True], [(edge_mask([1, 2], 3),)])

    def test_empty_hypergraph_convention(self):
        H = Hypergraph(2, ())
        f = identity_objective(2)
        assert self.classify(H, f, (2, 1)) == ([True], [()])
        assert count_isolating(H, 2, f).total == 4

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="objective range 2 does not match M=3"):
            count_isolating(singleton_hypergraph(2), 3, identity_objective(2))

    @given(counting_instances(), st.integers(2, 9))
    @settings(max_examples=60)
    def test_argmin_invariant_under_scaling(self, instance, c):
        H, M, f = instance
        scaled = Objective(M, tuple(c * v for v in f.values))
        W = list(itertools.product(range(1, M + 1), repeat=H.n))
        iso, mins = self.classify(H, f, W)
        assert (iso, mins) == self.classify(H, scaled, W)
        edges, values = H.vertex_sets(), [None, *f.values]
        assert iso == [oracle.classify(edges, values, w)[0] for w in W]


class TestObjectiveShifts:
    def test_shift_up_examples(self):
        g = shift_objective_up(identity_objective(2), 2, 3)
        assert g.values == (F(1, 6), F(1), F(2))
        assert shift_objective_up(identity_objective(3), 1, 3) == identity_objective(3)
        g = shift_objective_up(explicit_objective([2, 5]), 3, 4)
        assert g.values == (F(1, 4), F(1, 2), F(2), F(5))

    def test_shift_up_rejects_zero_allowed_zero(self):
        f = Objective(2, (F(0), F(1)), zero_allowed=True)
        with pytest.raises(ValueError):
            shift_objective_up(f, 2, 3)

    @given(counting_instances(max_M=4), st.data())
    @settings(max_examples=60)
    def test_layer_shift_per_weight_agreement(self, instance, data):
        """Weights of layer j under the lifted objective behave exactly like
        the shifted-down weights of layer 1 under the original."""
        H, M, f = instance
        j = data.draw(st.integers(1, M))
        g = shift_objective_up(f, j, M + j - 1)
        edges, values, lifted = H.vertex_sets(), [None, *f.values], [None, *g.values]
        for w in itertools.product(range(j, M + j), repeat=H.n):
            if min(w) != j:
                continue
            shifted = tuple(x - (j - 1) for x in w)
            assert oracle.classify(edges, lifted, w) == oracle.classify(edges, values, shifted)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Objective(0, ()), "M must be a positive integer"),
        (lambda: Objective(2, (F(1),)), "expected 2 values, got 1"),
        (lambda: Objective(2, (F(-1), F(1)), zero_allowed=True), "objective values must be nonnegative"),
        (lambda: Objective(2, (F(1), F(2)), kind="bogus"), "unknown objective kind 'bogus'"),
        (lambda: shift_objective_up(identity_objective(2), 0, 2), "layer index 0 out of range 1..2"),
        (lambda: shift_objective_up(identity_objective(2), 2, 4), "objective has 2 labels, expected 3"),
    ],
    ids=["M", "length", "negative", "kind", "shift-layer", "shift-labels"],
)
def test_input_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestGenericHighSemantics:
    @given(small_hypergraphs(max_n=3), st.integers(2, 3))
    @settings(max_examples=40)
    def test_matches_power_table(self, H, M):
        """generic_high must pick min-weight edges exactly like an
        independently evaluated (n+1)^k table."""
        if not H.edges:
            return
        f = generic_high_objective(M, H.n)
        table = [None, *(Fraction((H.n + 1) ** k) for k in range(1, M + 1))]
        vsets = H.vertex_sets()
        for w in itertools.product(range(1, M + 1), repeat=H.n):
            sums = [oracle.edge_weight(table, w, vs) for vs in vsets]
            lo = min(sums)
            expected = [k for k, s in enumerate(sums) if s == lo]
            assert oracle.min_edges(vsets, [None, *f.values], w) == expected
