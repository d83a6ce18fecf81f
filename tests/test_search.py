import json
import math
from fractions import Fraction

import pytest

from isobench import (
    Hypergraph,
    ObjectiveStrategy,
    compare_to_asymptotics,
    conjecture_search,
    count_isolating,
    count_layer1,
    explicit_objective,
    identity_objective,
    sample_layer1,
    sample_uniform,
    singleton_hypergraph,
)
from isobench.counting import _int64_safe
from isobench.search import asymptotic_rows_to_csv

F = Fraction
PRESETS = ObjectiveStrategy(kind="presets")


class TestConjectureSearch:
    def test_small_grid_no_violations(self):
        rep = conjecture_search(3, [2], PRESETS)
        assert rep.min_ratio_layer1 == 1
        assert rep.violations == ()

    def test_total_ratio_floor(self):
        rep = conjecture_search(2, [3], PRESETS)
        assert rep.min_ratio_total == 1
        assert rep.witness_total is not None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            conjecture_search(0, [2], PRESETS)
        with pytest.raises(ValueError):
            conjecture_search(2, [], PRESETS)

    def test_deterministic_given_seed(self):
        strat = ObjectiveStrategy(kind="random_rational", count=2, seed=3)
        a = conjecture_search(2, [2, 3], strat, seed=3)
        b = conjecture_search(2, [2, 3], strat, seed=3)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_prune_restricts_the_family(self):
        full = conjecture_search(3, [2], PRESETS)
        pruned = conjecture_search(3, [2], PRESETS, prune=True)
        assert pruned.instances < full.instances
        assert pruned.violations == ()


class TestSamplers:
    def test_uniform_consistency(self):
        rep = sample_uniform(singleton_hypergraph(2), 2, identity_objective(2), 20000, 1)
        assert rep.exact == F(1, 2)
        band = 4 * math.sqrt(0.5 * 0.5 / 20000)
        assert abs(rep.estimate - 0.5) <= band
        assert rep.draws == rep.trials == 20000

    def test_layer1_consistency(self):
        rep = sample_layer1(singleton_hypergraph(2), 2, identity_objective(2), 20000, 1)
        q = 2 / 3
        assert rep.exact == F(2, 3)
        band = 4 * math.sqrt(q * (1 - q) / 20000)
        assert abs(rep.estimate - q) <= band
        assert rep.draws >= rep.trials

    def test_empty_hypergraph_always_succeeds(self):
        H = Hypergraph(2, ())
        assert sample_uniform(H, 2, identity_objective(2), 500, 0).estimate == 1.0
        assert sample_layer1(H, 2, identity_objective(2), 500, 0).estimate == 1.0

    def test_M1_layer1_degenerates_to_uniform(self):
        rep = sample_layer1(singleton_hypergraph(2), 1, identity_objective(1), 100, 0)
        assert rep.estimate == 0.0  # the all-ones weight always ties

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sample_uniform(singleton_hypergraph(2), 2, identity_objective(2), 0, 1)

    @pytest.mark.parametrize("sampler", [sample_uniform, sample_layer1])
    def test_objective_beyond_int64_takes_the_object_path(self, sampler):
        """Scaling f by a positive constant keeps every isolation decision,
        so a 2^70 multiple (object table) matches the plain objective."""
        H = Hypergraph.from_edges(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        f = explicit_objective([1, 3, 4])
        big = explicit_objective([v * 2**70 for v in f.values])
        assert not _int64_safe(big, H.n)
        plain = sampler(H, 3, f, 3000, 11, batch=1000)
        scaled = sampler(H, 3, big, 3000, 11, batch=1000)
        assert (scaled.successes, scaled.draws, scaled.exact) == (
            plain.successes,
            plain.draws,
            plain.exact,
        )
        assert 0 < plain.successes < plain.trials

    def test_deterministic_given_seed(self):
        a = sample_uniform(singleton_hypergraph(3), 3, identity_objective(3), 5000, 42)
        b = sample_uniform(singleton_hypergraph(3), 3, identity_objective(3), 5000, 42)
        assert a == b
        c = sample_layer1(singleton_hypergraph(3), 3, identity_objective(3), 5000, 42)
        d = sample_layer1(singleton_hypergraph(3), 3, identity_objective(3), 5000, 42)
        assert c == d


class TestAsymptoticComparison:
    def test_s6_row(self):
        H = singleton_hypergraph(6)
        f = identity_objective(6)
        rep = count_isolating(H, 6, f)
        q = F(count_layer1(H, 6, f), 6**6 - 5**6)
        rows = compare_to_asymptotics(6, 6, q=q)
        (row,) = rows
        assert row.h2_applicable
        assert row.value >= row.h2
        assert row.h2 == pytest.approx(0.5216616166450005)

    def test_phi_below_one(self):
        H = singleton_hypergraph(4)
        f = identity_objective(8)
        q = F(count_layer1(H, 8, f), 8**4 - 7**4)
        (row,) = compare_to_asymptotics(4, 8, q=q)
        assert row.phi == F(1, 2)
        assert row.h2_applicable and row.value >= row.h2

    def test_p_row_not_covered_by_q_guarantee(self):
        (row,) = compare_to_asymptotics(2, 4, p=F(3, 4))
        assert row.quantity == "p" and not row.h2_applicable

    def test_csv_shape(self):
        rows = compare_to_asymptotics(2, 2, p=F(1, 2), q=F(2, 3))
        text = asymptotic_rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("quantity,")
        assert len(lines) == 3
