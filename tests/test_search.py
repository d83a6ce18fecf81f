import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracle
from isobench import (
    BudgetExceededError,
    Hypergraph,
    ObjectiveStrategy,
    compare_to_asymptotics,
    conjecture_search,
    count_isolating,
    count_layer1,
    enumerate_hypergraphs,
    explicit_objective,
    identity_objective,
    sample_layer1,
    sample_uniform,
    singleton_hypergraph,
)
from isobench import cli, counting, search
from isobench.cli import asymptotic_rows_to_csv
from isobench.hypergraph import edge_vertices

F = Fraction
PRESETS = ObjectiveStrategy(kind="presets")


def per_instance_search(n_max, M_values, strategy, *, prune=False, counts=None):
    """The sweep one instance at a time, visiting (n, H, M, f) in order:
    the JSON report ``conjecture_search`` must produce.  ``counts(H, M, f)``
    gives (total, layer1); ``count_isolating`` by default."""
    instances = 0
    best = {"total": None, "layer1": None}
    violations = []
    for n in range(1, n_max + 1):
        families = {M: strategy.candidates(M, n) for M in M_values}
        for H in enumerate_hypergraphs(n, prune=prune):
            for M in M_values:
                for f in families[M]:
                    if counts is None:
                        report = count_isolating(H, M, f)
                        total, layer1 = report.total, report.layer1
                    else:
                        total, layer1 = counts(H, M, f)
                    instances += 1
                    ratios = {}
                    for kind, value, denom in (
                        ("total", total, search.conjectured_Y(M, n)),
                        ("layer1", layer1, search.conjectured_Y1(M, n)),
                    ):
                        ratios[kind] = F(value, denom) if denom else None
                    record = {
                        "hypergraph": H.to_json_dict(),
                        "M": M,
                        "objective": f.to_json_dict(),
                        "total": total,
                        "layer1": layer1,
                        "ratio_total": None if ratios["total"] is None else str(ratios["total"]),
                        "ratio_layer1": None if ratios["layer1"] is None else str(ratios["layer1"]),
                    }
                    for kind, ratio in ratios.items():
                        if ratio is not None and (best[kind] is None or ratio < best[kind][0]):
                            best[kind] = (ratio, record)
                    if any(r is not None and r < 1 for r in ratios.values()):
                        violations.append(record)
    return {
        "n_max": n_max,
        "M_values": list(M_values),
        "strategy": strategy.to_json_dict(),
        "prune": prune,
        "seed": strategy.seed,
        "instances": instances,
        "min_ratio_total": None if best["total"] is None else str(best["total"][0]),
        "min_ratio_layer1": None if best["layer1"] is None else str(best["layer1"][0]),
        "witness_total": None if best["total"] is None else best["total"][1],
        "witness_layer1": None if best["layer1"] is None else best["layer1"][1],
        "violations": violations,
    }


def raise_conjectures(monkeypatch, factor):
    """Multiply both conjectured minima, so that instances fall below them."""
    Y, Y1 = search.conjectured_Y, search.conjectured_Y1
    monkeypatch.setattr(search, "conjectured_Y", lambda M, n: factor * Y(M, n))
    monkeypatch.setattr(search, "conjectured_Y1", lambda M, n: factor * Y1(M, n))


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
        a = conjecture_search(2, [2, 3], strat)
        b = conjecture_search(2, [2, 3], strat)
        assert cli._json_text(a) == cli._json_text(b)

    @pytest.mark.parametrize("gather", [None, 1, 7])
    @pytest.mark.parametrize(
        "strategy",
        [PRESETS, ObjectiveStrategy(kind="random_rational", count=2, seed=4)],
        ids=["presets", "random"],
    )
    @pytest.mark.parametrize("prune", [False, True])
    def test_violations_match_the_per_instance_sweep(self, monkeypatch, prune, strategy, gather):
        # raised minima turn most instances into violations; M = 1 has
        # zero minima for n >= 2, so those ratios are None.  A small
        # _GATHER cuts each walk's batch into small blocks.  A repeated,
        # unsorted M list sweeps each listing of M in turn.
        raise_conjectures(monkeypatch, 3)
        if gather:
            monkeypatch.setattr(counting, "_GATHER", gather)
        for M_values in ([1, 2, 3], [3, 1, 3]):
            got = conjecture_search(4, M_values, strategy, prune=prune)
            expected = per_instance_search(4, M_values, strategy, prune=prune)
            assert len(expected["violations"]) > 50
            assert json.loads(cli._json_text(got)) == expected

    def test_ratio_ties_go_to_the_first_instance_visited(self, monkeypatch):
        # synthetic counts with many ties at the minimum, placed so that a
        # later (M, f) batch holds an earlier tied hypergraph
        def counts(H, M, f):
            value = (3 * len(H.edges) + M + len(f.kind) + sum(H.edges)) % 4 + 1
            return value, value

        def count_many(walk, M, fs):
            counted = [[counts(H, M, f) for H in walk.hypergraphs] for f in fs]
            total, layer1 = np.array(counted).transpose(2, 0, 1)
            yield list(range(len(fs))), total, layer1

        monkeypatch.setattr(search, "conjectured_Y", lambda M, n: 4)
        monkeypatch.setattr(search, "conjectured_Y1", lambda M, n: 4)
        monkeypatch.setattr(search, "_count_many", count_many)
        got = json.loads(cli._json_text(conjecture_search(3, [2, 3], PRESETS)))
        expected = per_instance_search(3, [2, 3], PRESETS, counts=counts)
        assert got == expected
        # the tie is real: the instances at the minimum include one that
        # comes later in the walk but from an earlier (M, f) batch, here
        # H 2 at M = 3 against H 3 at M = 2, both on two vertices
        Hs = {n: list(enumerate_hypergraphs(n)) for n in (1, 2, 3)}
        order = []
        for n in (1, 2, 3):
            for h, H in enumerate(Hs[n]):
                for i, M in enumerate((2, 3)):
                    for j, f in enumerate(PRESETS.candidates(M, n)):
                        if counts(H, M, f)[0] == 1:
                            order.append((n, h, i, j))
        first = order[0]
        assert first == (2, 2, 1, 0)
        assert got["witness_total"]["hypergraph"] == Hs[first[0]][first[1]].to_json_dict()
        assert any(k[0] == first[0] and k[1] > first[1] and k[2:] < first[2:] for k in order)

    def test_budget_is_checked_where_the_walk_first_yields(self):
        # with pruning nothing is yielded below n = 3, so the first refusal
        # is 2^3 rows there, not 2^2 rows at n = 2
        with pytest.raises(BudgetExceededError, match=r"^2\^3 = 8 weight evaluations exceed budget 3$"):
            conjecture_search(3, [2], PRESETS, prune=True, budget=3)
        with pytest.raises(BudgetExceededError, match=r"^3\^2 = 9 weight evaluations exceed budget 8$"):
            conjecture_search(3, [2, 3], PRESETS, budget=8)

    def test_prune_restricts_the_family(self):
        full = conjecture_search(3, [2], PRESETS)
        pruned = conjecture_search(3, [2], PRESETS, prune=True)
        assert pruned.instances < full.instances
        assert pruned.violations == ()


class TestObjectiveStrategy:
    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveStrategy(kind="random_rational", count=0)
        strat = ObjectiveStrategy(kind="exhaustive_integer", bound=1)
        with pytest.raises(ValueError):
            strat.candidates(2, 2)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError) as info:
            ObjectiveStrategy(kind="bogus")
        assert str(info.value) == "unknown strategy kind 'bogus'"


def _accepted(seed, batch, n, M, layer1):
    """The seeded sampler's batches of draws as lists of rows, each cut to
    the rows with some entry 1 when ``layer1``."""
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(1, M + 1, size=(batch, n), dtype=np.int64).tolist()
        yield [w for w in rows if 1 in w] if layer1 else rows


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
    def test_objective_beyond_int64_takes_the_object_path(self, sampler, monkeypatch):
        """Scaling f by a positive constant keeps every isolation decision,
        so a 2^70 multiple (a table of two limbs) matches the plain objective."""
        H = Hypergraph.from_edges(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        f = explicit_objective([1, 3, 4])
        big = explicit_objective([v * 2**70 for v in f.values])
        assert counting._limbs(counting._table(big, H.n)) == 2
        monkeypatch.setattr(search, "_BATCH", 1000)
        plain = sampler(H, 3, f, 3000, 11)
        scaled = sampler(H, 3, big, 3000, 11)
        assert (scaled.successes, scaled.draws, scaled.exact) == (
            plain.successes,
            plain.draws,
            plain.exact,
        )
        assert 0 < plain.successes < plain.trials

    # (n, M, edges, values, zero_allowed, trials, cut); trials None: the
    # rows accepted from exactly three batches, so no batch is cut
    REPLAYS = {
        "cut": (4, 3, [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]], (1, 2, 3), False, 1000, True),
        # a row whose only 1 sits on the uncovered vertex 4 is accepted too
        "uncovered": (4, 3, [[1, 2], [2, 3], [1, 3]], (1, 2, 3), False, 1000, True),
        # table[1] is 0, the padding row's value
        "zero": (4, 3, [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]], (0, 1, 3), True, 1000, True),
        "boundary": (4, 3, [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]], (1, 2, 3), False, None, False),
        # every row is all ones, which isolates edge {1, 2}
        "M1": (4, 1, [[1, 2], [2, 3, 4]], (1,), False, 1000, True),
        # layer 1 holds 1 - (19/20)^4 < 1/4 of the draws, so layer1 copies
        # its accepted rows out at every scale; in every other case a
        # one-limb layer1 masks the rejected rows of whole batches
        "sparse": (
            4, 20, [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]], tuple(range(1, 21)), False, 1000, True
        ),
    }

    # the id of 2^70 is the Python-integer dtype that scale took before limbs
    @pytest.mark.parametrize("scale", [1, 1 << 70, 1 << 200], ids=["int16", "object", "2^200"])
    @pytest.mark.parametrize("sampler", [sample_uniform, sample_layer1])
    def test_replayed_draws_match_the_oracle(self, sampler, scale, monkeypatch):
        """Replay the seeded batches and classify the first ``trials``
        accepted rows with the oracle; in every case but ``boundary`` the
        final batch holds more accepted rows than the trials left, so it is
        cut."""
        seed, batch = 5, 64
        monkeypatch.setattr(search, "_BATCH", batch)
        for case, (n, M, edges, values, zero, trials, cut) in self.REPLAYS.items():
            H = Hypergraph.from_edges(n, edges)
            f = explicit_objective([v * scale for v in values], zero_allowed=zero)
            table = counting._table(f, n)
            limbs = {1: 1, 1 << 70: 2, 1 << 200: 4}[scale]
            assert counting._limbs(table) == limbs and (table.dtype == np.int16) == (scale == 1), case
            assert (table[:, 1] == 0).all() == zero, case
            vertex_lists = [list(edge_vertices(e)) for e in H.edges]
            layer1 = sampler is sample_layer1
            if trials is None:
                trials = sum(map(len, itertools.islice(_accepted(seed, batch, n, M, layer1), 3)))
            successes = accepted = draws = 0
            lone = False  # an accepted row whose only 1 is on vertex 4
            for rows in _accepted(seed, batch, n, M, layer1):
                if accepted == trials:
                    break
                draws += batch
                last_cut, rows = len(rows) > trials - accepted, rows[: trials - accepted]
                successes += sum(oracle.classify(vertex_lists, [None, *f.values], w)[0] for w in rows)
                lone |= any(w.count(1) == 1 and w[3] == 1 for w in rows)
                accepted += len(rows)
            assert last_cut == cut, case
            assert lone or case != "uncovered"
            assert 0 < successes < trials if M > 1 else successes == trials, case
            rep = sampler(H, M, f, trials, seed)
            expected_draws = draws if sampler is sample_layer1 else trials
            assert (rep.successes, rep.draws) == (successes, expected_draws), case
            if case == "boundary":
                assert draws == 3 * batch

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
