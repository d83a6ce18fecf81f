import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracle
from conftest import SCALE_IDS, SCALES
from isobench import (
    BudgetExceededError,
    Hypergraph,
    Objective,
    count_isolating,
    explicit_objective,
    identity_objective,
    power_set_hypergraph,
    random_hypergraph,
    random_objective,
    singleton_hypergraph,
    tashma_injection_maximal,
    zero_based_identity,
    zero_weight_tightness,
)
from isobench import counting, zero_weight
from isobench.zero_weight import InjectionFinding

F = Fraction


class TestZeroBasedIdentity:
    def test_values(self):
        f = zero_based_identity(3)
        assert f.values == (F(0), F(1), F(2))
        assert f.zero_allowed


class TestTightness:
    @pytest.mark.parametrize(
        "n,M,expected", [(2, 2, 1), (2, 3, 4), (3, 2, 1), (4, 3, 16)]
    )
    def test_power_set_counts(self, n, M, expected):
        rep = zero_weight_tightness(n, M)
        assert rep.total == expected == (M - 1) ** n

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(counting, "DEFAULT_BUDGET", 10**6)
        with pytest.raises(BudgetExceededError) as info:
            zero_weight_tightness(5, 30)
        assert str(info.value) == "30^5 = 24300000 weight evaluations exceed budget 1000000"

    def test_budget_past_the_printable_digits(self):
        """2^20000 has more digits than Python prints by default; the
        refusal names it as a power."""
        with pytest.raises(BudgetExceededError) as info:
            zero_weight_tightness(20000, 2)
        assert str(info.value) == "2^20000 weight evaluations exceed budget 100000000"

    def test_refused_before_anything_is_built(self, monkeypatch):
        """M^n is refused before the power set or the objective of M values
        is built, which at a large M takes long."""

        def built(*args, **kwargs):
            raise AssertionError("built before the refusal")

        monkeypatch.setattr(Objective, "__post_init__", built)
        monkeypatch.setattr(zero_weight, "power_set_hypergraph", built)
        with pytest.raises(BudgetExceededError) as info:
            zero_weight_tightness(2, 20_001)
        assert str(info.value) == "20001^2 = 400040001 weight evaluations exceed budget 100000000"


class TestMaximalInjection:
    def test_power_set_with_zero_objective(self):
        """With f = (0, 1) the empty edge is the unique minimum on the
        all-2 weight, so the map is the identity there and still isolates."""
        report = tashma_injection_maximal(power_set_hypergraph(2), 2, zero_based_identity(2))
        assert report.mapping_dict() == {(2, 2): (2, 2)}
        assert report.findings == ()
        assert report.injective

    def test_positive_objective_on_power_set(self):
        f = explicit_objective([1, 2])
        report = tashma_injection_maximal(power_set_hypergraph(2), 2, f)
        assert report.image_size == 1
        assert report.findings == ()

    def test_singletons_pick_lex_smallest_maximal(self):
        report = tashma_injection_maximal(singleton_hypergraph(2), 2, zero_based_identity(2))
        assert report.mapping_dict() == {(2, 2): (1, 2)}
        assert report.findings == ()

    def test_nested_edges(self):
        h = Hypergraph.from_edges(2, [[1], [1, 2]], require_inclusion_free=False)
        report = tashma_injection_maximal(h, 2, zero_based_identity(2))
        assert report.mapping_dict() == {(2, 2): (1, 2)}
        assert report.findings == ()

    def test_rejects_M1(self):
        with pytest.raises(ValueError):
            tashma_injection_maximal(power_set_hypergraph(2), 1, zero_based_identity(1))

    def test_domain_budget_refused_before_the_injection(self, monkeypatch):
        def injected(*args, **kwargs):
            raise AssertionError("the injection ran")

        # the stack rule of ``verify``: 2 * 3 * 2^2 rows times 3 vertices
        monkeypatch.setattr(zero_weight, "_injection", injected)
        monkeypatch.setattr(counting, "_STACK_CELLS", 71)
        with pytest.raises(BudgetExceededError) as info:
            tashma_injection_maximal(singleton_hypergraph(3), 3, identity_objective(3))
        assert str(info.value) == (
            "the constructions of one hypergraph on 3 vertices at M = 3 stack 72 cells, more than 71"
        )
        monkeypatch.undo()
        monkeypatch.setattr(counting, "_STACK_CELLS", 72)
        assert tashma_injection_maximal(singleton_hypergraph(3), 3, identity_objective(3)).injective

    @pytest.mark.parametrize("seed", range(10))
    def test_random_nested_instances_verify_clean(self, seed):
        """Across random hypergraphs with inclusions and random
        zero-allowed objectives, the maximal-edge images all isolate and
        the map is injective (any failure would surface as a finding)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        M = int(rng.integers(2, 5))
        h = random_hypergraph(
            n, 6, rng, inclusion_free=False, allow_empty_edge=bool(rng.integers(0, 2))
        )
        f = random_objective(M, rng, zero_allowed=True)
        report = tashma_injection_maximal(h, M, f)
        assert report.findings == ()
        assert report.injective
        assert report.image_size == (M - 1) ** n


def ref_maximal_injection(H, M, f):
    """The maximal-edge injection one weight at a time: (mapping, findings,
    injective) as ``tashma_injection_maximal`` reports them.  Edge weights
    are summed from ``f.scaled``, the values the kernel reads, so that the
    broken objectives of ``_reversed_table`` reach the reference too."""
    edges, values = H.vertex_sets(), [None, *f.scaled]
    pairs, findings = [], []
    for w in itertools.product(range(2, M + 1), repeat=H.n):
        if not H.edges:
            pairs.append((w, w))
            continue
        mins = oracle.min_edges(edges, values, w)
        k = next(k for k in mins if not any(set(edges[k]) < set(edges[o]) for o in mins))
        image = oracle.lower(w, edges[k])
        pairs.append((w, image))
        if oracle.classify(edges, values, image) != (True, k):
            reason = f"image does not isolate edge {list(edges[k])}"
            findings.append(InjectionFinding(w, image, reason))
    first = {}
    for w, image in pairs:
        if image in first:
            findings.append(InjectionFinding(w, image, f"collides with {first[image]}"))
        else:
            first[image] = w
    return tuple(pairs), tuple(findings), len(first) == len(pairs)


def _scaled(f, scale):
    return Objective(f.M, tuple(v * scale for v in f.values), zero_allowed=f.zero_allowed)


def _reversed_table(f):
    """f with its scaled values in decreasing order: a map that breaks the
    injection, so that images fail to isolate and collide."""
    g = Objective(f.M, f.values, zero_allowed=f.zero_allowed)
    object.__setattr__(g, "scaled", tuple(reversed(f.scaled)))
    return g


class TestBatchedMaximalInjection:
    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_weight_reference(self, seed, scale):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 5))
        M = int(rng.integers(2, 5))
        h = random_hypergraph(
            n, 7, rng, inclusion_free=False, allow_empty_edge=bool(rng.integers(0, 2))
        )
        f = _scaled(random_objective(M, rng, zero_allowed=bool(rng.integers(0, 2))), scale)
        assert (len(counting._table(f, n)) == 1) == (scale == 1)
        for g in (f, _reversed_table(f)):
            report = tashma_injection_maximal(h, M, g)
            assert (report.mapping, report.findings, report.injective) == ref_maximal_injection(
                h, M, g
            )

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    def test_nested_edges_and_findings_across_blocks(self, monkeypatch, scale):
        # the empty edge, a chain {1} < {1,2} < {1,2,3} and a zero label;
        # blocks of 5 rows put block boundaries inside both batches
        h = Hypergraph.from_edges(
            4, [[], [1], [1, 2], [1, 2, 3], [3, 4], [2, 4]],
            allow_empty_edge=True, require_inclusion_free=False,
        )
        f = _scaled(explicit_objective([0, 1, 3, 4], zero_allowed=True), scale)
        monkeypatch.setattr(counting, "_CHUNK", 5)
        broken = _reversed_table(f)
        expected = ref_maximal_injection(h, 4, broken)
        assert expected[1] and not expected[2]  # isolation failures and collisions
        for g in (f, broken):
            report = tashma_injection_maximal(h, 4, g)
            assert (report.mapping, report.findings, report.injective) == ref_maximal_injection(
                h, 4, g
            )

    def test_empty_hypergraph_is_identity(self):
        report = tashma_injection_maximal(Hypergraph(2, ()), 3, zero_based_identity(3))
        assert report.mapping == tuple((w, w) for w in itertools.product((2, 3), repeat=2))
        assert report.findings == () and report.injective


class TestZeroWeightLowerBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_counts_dominate_bound_on_nested_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 5))
        M = int(rng.integers(2, 5))
        h = random_hypergraph(
            n, 6, rng, inclusion_free=False, allow_empty_edge=bool(rng.integers(0, 2))
        )
        zf = random_objective(M, rng, zero_allowed=True)
        assert count_isolating(h, M, zf).total >= (M - 1) ** n
        # strictly positive objectives are never worse than the zero floor
        pf = random_objective(M, rng)
        assert count_isolating(h, M, pf).total >= (M - 1) ** n
