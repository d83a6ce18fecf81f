import concurrent.futures
import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import counting_instances, increasing_objectives, small_hypergraphs
from conftest import SCALE_IDS, SCALES
from conftest import table_kind as kind
from isobench import counting
from isobench import (
    BudgetExceededError,
    Hypergraph,
    ObjectiveStrategy,
    count_isolating,
    count_layer1,
    enumerate_hypergraphs,
    explicit_objective,
    generic_high_objective,
    identity_objective,
    random_objective,
    singleton_hypergraph,
)
from isobench.hypergraph import edge_vertices
from isobench.search import conjecture_search

F = Fraction


def H(n, *edges, **kw):
    return Hypergraph.from_edges(n, edges, **kw)


def oracle_counts(h, M, f):
    """(total, per_layer tuple, per_edge dict keyed by edge mask) from the
    brute-force oracle."""
    vsets = [list(edge_vertices(e)) for e in h.edges]
    total, per_layer, per_edge = oracle.count_isolating(h.n, vsets, M, f.values)
    return total, tuple(per_layer), {h.edges[i]: c for i, c in per_edge.items()}


def layer1_with_suffix(h, M, f, k):
    """count_layer1 with the suffix length fixed at k."""
    with mock.patch.object(counting, "_suffix_len", lambda n, M: k):
        return count_layer1(h, M, f)


class TestCountIsolating:
    def test_singleton_pair(self):
        rep = count_isolating(singleton_hypergraph(2), 3, identity_objective(3))
        assert rep.total == 6
        assert rep.per_layer == (4, 2, 0)
        assert sum(dict(rep.per_edge).values()) == 6

    def test_disjoint_pair(self):
        rep = count_isolating(H(4, [1, 2], [3, 4]), 2, identity_objective(2))
        assert rep.total == 10
        assert rep.per_layer == (10, 0)

    def test_empty_hypergraph_convention(self):
        rep = count_isolating(Hypergraph(2, ()), 2, identity_objective(2))
        assert rep.total == 4
        assert rep.per_layer == (3, 1)
        assert rep.per_edge == ()

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_isolating(singleton_hypergraph(4), 4, identity_objective(4), budget=100)

    def test_m_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            count_isolating(singleton_hypergraph(2), 3, identity_objective(2))

    def test_workers_agree_with_single_process(self):
        h = H(3, [1, 2], [2, 3])
        f = identity_objective(3)
        a = count_isolating(h, 3, f, workers=1)
        b = count_isolating(h, 3, f, workers=2)
        assert a == b

    def test_workers_split_prefix_ranks(self):
        # 2^14 rows split as 4 prefixes times 2^12 suffixes; 2 and 3 workers
        # take uneven rank ranges and must merge to the same report
        h = H(14, [1, 2, 3], [3, 4, 9], [5, 13, 14], [6, 7], [8, 10, 11, 12])
        f = generic_high_objective(2, 14)
        assert counting._suffix_len(14, 2) == 12
        reports = [count_isolating(h, 2, f, workers=w) for w in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].total == sum(reports[0].per_layer) > 0

    def test_one_prefix_range_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # 3^3 rows fit one suffix table, so there is a single prefix rank
        h, f = H(3, [1, 2], [2, 3]), identity_objective(3)
        assert count_isolating(h, 3, f, workers=4).total == oracle_counts(h, 3, f)[0]

    @given(counting_instances())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_oracle(self, instance):
        h, M, f = instance
        total, per_layer, per_edge = oracle_counts(h, M, f)
        rep = count_isolating(h, M, f)
        assert rep.total == total
        assert rep.per_layer == per_layer
        assert dict(rep.per_edge) == per_edge

    @pytest.mark.parametrize("shift", [0, *SCALES[1:]], ids=SCALE_IDS)
    @given(counting_instances())
    @settings(max_examples=60, deadline=None)
    def test_every_suffix_length_matches_oracle(self, shift, instance):
        # every prefix/suffix split, on int64 tables and, with values
        # shifted past int64, on tables of two and of four or more limbs
        h, M, f = instance
        if shift:
            f = explicit_objective([v + shift for v in f.values])
        assert (kind(f, h.n)[1] == 1) == (not shift)
        total, per_layer, per_edge = oracle_counts(h, M, f)
        for k in range(h.n + 1):
            got_layers, got_edges = counting._tally(h, f, M, k)
            assert got_layers.sum() == total
            assert tuple(got_layers[1:]) == per_layer
            assert {e: c for e, c in zip(h.edges, got_edges) if c} == per_edge
            assert layer1_with_suffix(h, M, f, k) == per_layer[0]

    def test_block_boundaries(self, monkeypatch):
        # blocks of a few prefixes, the last one short, give the same counts
        # as one block per scan
        h, f = H(6, [1, 2], [2, 5, 6], [3, 4], [4, 6]), identity_objective(3)

        def scans():
            for k in range(h.n + 1):
                per_layer, per_edge = counting._tally(h, f, 3, k)
                yield per_layer.tolist(), per_edge.tolist()
                yield layer1_with_suffix(h, 3, f, k)

        expected = list(scans())
        monkeypatch.setattr(counting, "_CHUNK", 20)
        assert list(scans()) == expected

    def test_pure_python_fallback_path(self):
        # values this large overflow int64 after scaling, forcing the
        # scan in limbs; results must agree with the oracle
        big = 1 << 70
        f = explicit_objective([big + 1, big + 5, big + 11])
        h = H(3, [1, 2], [3])
        total, per_layer, _ = oracle_counts(h, 3, f)
        rep = count_isolating(h, 3, f)
        assert rep.total == total and rep.per_layer == per_layer
        assert count_layer1(h, 3, f) == per_layer[0]

    def test_suffix_length(self):
        assert counting._suffix_len(3, 3) == 3
        assert counting._suffix_len(9, 4) == 6
        assert counting._suffix_len(8, 7) == 4
        assert counting._suffix_len(5, 5000) == 1
        assert counting._suffix_len(20, 1) == 20

    def test_suffix_tables_are_cached_read_only(self):
        rows, low = counting._suffix_table(3, 4)
        assert counting._suffix_table(3, 4)[0] is rows
        assert rows.shape == (64, 3) and low.shape == (64,)
        assert not rows.flags.writeable and not low.flags.writeable

    def test_report_invariants_and_json(self):
        rep = count_isolating(singleton_hypergraph(3), 2, identity_objective(2))
        assert rep.total == sum(rep.per_layer)
        assert rep.total == sum(dict(rep.per_edge).values())
        doc = rep.to_json_dict()
        assert doc["total"] == 3
        json.dumps(doc)  # serializable


def per_instance_counts(Hs, M, f):
    return [(r.total, r.layer1) for r in (count_isolating(h, M, f) for h in Hs)]


def batch_counts(Hs, M, f):
    [(at, total, layer1)] = counting._count_many(counting._walk(Hs, ()), M, [f])
    assert at == [0] and total.shape == layer1.shape == (1, len(Hs))
    return list(zip(total[0].tolist(), layer1[0].tolist()))


@st.composite
def hypergraph_groups(draw, max_n=3, max_M=3):
    """A few hypergraphs on one vertex count, with M and an objective."""
    n = draw(st.integers(1, max_n))
    Hs = draw(st.lists(small_hypergraphs(min_n=n, max_n=n), min_size=1, max_size=6))
    M = draw(st.integers(1, max_M))
    return Hs, M, draw(increasing_objectives(M))


class TestCountMany:
    """The sweep's batched counter, hypergraph by hypergraph, against
    ``count_isolating`` and the oracle."""

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_every_inclusion_free_hypergraph_up_to_4_vertices(self, M, scale):
        seen = 0
        for n in range(1, 5):
            Hs = list(enumerate_hypergraphs(n))
            seen += len(Hs)
            family = ObjectiveStrategy(kind="presets").candidates(M, n)
            family.append(random_objective(M, np.random.default_rng([M, n])))
            for f in family:
                f = explicit_objective([v * scale for v in f.values])
                assert (kind(f, n)[1] == 1) == (scale == 1)
                assert batch_counts(Hs, M, f) == per_instance_counts(Hs, M, f)
        assert seen == 193

    @given(hypergraph_groups())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, group):
        Hs, M, f = group
        expected = []
        for h in Hs:
            total, per_layer, _ = oracle_counts(h, M, f)
            expected.append((total, per_layer[0]))
        assert batch_counts(Hs, M, f) == expected

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("gather", [1, 5, 7, 12, 40])
    def test_block_and_group_boundaries(self, monkeypatch, gather, scale):
        # a bound of a few entries cuts the rows into short blocks and the
        # hypergraphs into small groups; 1 is below the widest hypergraph;
        # empty hypergraphs sit between and at the ends of the groups
        empty = Hypergraph(4, ())
        Hs = [empty, H(4, [1, 2], [3, 4]), empty, singleton_hypergraph(4), H(4, [1, 2, 3])]
        Hs += [H(4, [1, 2], [2, 3], [3, 4], [1, 4]), empty, empty, H(4, [1], [2, 3, 4]), empty]
        f = explicit_objective([scale * v for v in (2, 3, 7)])
        expected = per_instance_counts(Hs, 3, f)
        assert batch_counts(Hs, 3, f) == expected
        monkeypatch.setattr(counting, "_GATHER", gather)
        assert batch_counts(Hs, 3, f) == expected

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("chunk,gather", [(1 << 15, 1 << 16), (7, 5), (3, 40)])
    def test_prefix_split_matches_oracle(self, monkeypatch, chunk, gather, scale):
        # a suffix table of at most 9 rows makes the sweep split every
        # n >= 3 into prefixes and suffixes; small block bounds cut both
        # sides; empty hypergraphs sit among the others
        monkeypatch.setattr(counting, "_SUFFIX_ROWS", 9)
        monkeypatch.setattr(counting, "_CHUNK", chunk)
        monkeypatch.setattr(counting, "_GATHER", gather)
        empty = Hypergraph(5, ())
        Hs = [empty, H(5, [1, 2], [3, 4, 5]), singleton_hypergraph(5), empty]
        Hs += [H(5, [1, 2, 3], [3, 4], [2, 5], [1, 5]), H(5, [4]), empty]
        inside = []
        for M in (2, 3):
            k = counting._suffix_len(5, M)
            assert k < 5
            # one hypergraph's suffixes, sorted by minimum, are cut into
            # spans of _CHUNK rows; a small bound ends a span inside a run
            # of equal minima
            low = counting._suffix_table(k, M)[1]
            inside += [low[c - 1] == low[c] for c in range(chunk, low.size, chunk)]
            f = explicit_objective([scale * v for v in (2, 3, 7)[:M]])
            ranks = M ** (5 - k)
            expected = []
            for h in Hs:
                total, per_layer, per_edge = oracle_counts(h, M, f)
                expected.append((total, per_layer[0]))
                rep = count_isolating(h, M, f)
                assert (rep.total, rep.per_layer, dict(rep.per_edge)) == (total, per_layer, per_edge)
                assert count_layer1(h, M, f) == per_layer[0]
                # two uneven prefix ranges, as two workers take them
                parts = [counting._tally(h, f, M, k, a, b) for a, b in ((0, 1), (1, ranks))]
                layers, edges = (sum(counts).tolist() for counts in zip(*parts))
                assert layers == [0, *per_layer]
                assert {e: c for e, c in zip(h.edges, edges) if c} == per_edge
            assert batch_counts(Hs, M, f) == expected
        assert any(inside) == (chunk < 9)

    @pytest.mark.parametrize("shift", [0, *SCALES[1:]], ids=SCALE_IDS)
    @pytest.mark.parametrize("M", [2, 3])
    def test_prefix_positions_cut_at_every_point(self, monkeypatch, M, shift):
        # two workers' ranges of the sorted prefix table, cut at every
        # position: inside runs of equal prefix minima, and on the boundary
        # between the prefixes holding a 1 and the others
        monkeypatch.setattr(counting, "_SUFFIX_ROWS", 9)
        k = counting._suffix_len(5, M)
        ranks = M ** (5 - k)
        low = counting._suffix_table(5 - k, M)[1]
        assert 0 < low.searchsorted(2) < ranks and (low[1:] == low[:-1]).any()
        f = explicit_objective([shift + v for v in (2, 3, 7)[:M]])
        Hs = [Hypergraph(5, ()), *(H(5, [v]) for v in range(1, 6))]
        Hs += [singleton_hypergraph(5), H(5, [1, 2, 3], [3, 4], [2, 5], [1, 5])]
        for h in Hs:
            total, per_layer, per_edge = oracle_counts(h, M, f)
            for cut in range(ranks + 1):
                parts = [counting._tally(h, f, M, k, 0, cut), counting._tally(h, f, M, k, cut, ranks)]
                layers, edges = (sum(counts).tolist() for counts in zip(*parts))
                assert layers == [0, *per_layer]
                assert {e: c for e, c in zip(h.edges, edges) if c} == per_edge

    def test_plan_built_once_per_group(self, monkeypatch):
        # n = 1..4 each walk fits one group; the 2 x 3 (M, f) pairs of a
        # group share its plan, built outside the single hypergraphs' cache
        built, build = [], counting._build_plan
        monkeypatch.setattr(counting, "_build_plan", lambda Hs: built.append(Hs) or build(Hs))
        counting._plan.cache_clear()
        report = conjecture_search(4, (2, 3), ObjectiveStrategy(kind="presets"))
        assert report.instances == (2 + 5 + 19 + 167) * 6
        assert [Hs[0].n for Hs in built] == [1, 2, 3, 4]
        assert counting._plan.cache_info().currsize == 0

    def test_only_empty_hypergraphs(self):
        Hs = [Hypergraph(3, ())] * 3
        assert batch_counts(Hs, 3, identity_objective(3)) == [(27, 27 - 8)] * 3


def stacked_rows(Hs, M, fs):
    """Row i of ``_count_many`` over the walk Hs under ``fs``, as (|Z|,
    |Z_1|) pairs, checked against the count under [fs[i]] alone; each
    objective is in one stack, of the stack's bound or fewer, a table of L
    limbs counting L times."""
    edges = counting._plan(tuple(Hs)).members.shape[1]
    rows = {}
    for at, total, layer1 in counting._count_many(counting._walk(Hs, ()), M, fs):
        limbs = counting._limbs(counting._table(fs[at[0]], Hs[0].n))
        size = max(1, counting._GATHER // (limbs * max(edges, 1) * M ** Hs[0].n))
        assert total.shape == layer1.shape == (len(at), len(Hs)) and len(at) <= size
        for i, t, l in zip(at, total, layer1):
            assert i not in rows
            rows[i] = list(zip(t.tolist(), l.tolist()))
    rows = [rows[i] for i in range(len(fs))]
    assert rows == [batch_counts(Hs, M, f) for f in fs]
    return rows


def oracle_rows(Hs, M, fs):
    """The oracle's (|Z|, |Z_1|) pairs over Hs, a list per objective."""
    return [[(t, layers[0]) for t, layers, _ in (oracle_counts(h, M, f) for h in Hs)] for f in fs]


# the kinds of value table: (dtype, limbs)
I16, I32, I64 = ((np.dtype(t), 1) for t in (np.int16, np.int32, np.int64))
L2, L3 = ((np.dtype(np.int64), limbs) for limbs in (2, 3))


class TestStackedCounts:
    """``_count_many`` over a list of objectives of one M: row i is the
    count of the i-th objective alone and the oracle's, whatever the
    stacks, their dtypes, their limbs and their blocks."""

    # on 5 vertices at M = 3, limbs of 59 bits: int16, 2 limbs, int32,
    # int16, int64, 2 limbs, int16, 3 limbs
    FS = [
        identity_objective(3),
        explicit_objective([1, 2, 10**18]),
        explicit_objective([1, 2, 10**4]),
        generic_high_objective(3, 5),
        explicit_objective([1, 10**9, 10**12]),
        explicit_objective([3, 5, 10**18]),
        explicit_objective([21, 22, 23]),
        explicit_objective([(1 << 59) - 1, (1 << 118) - 1, 1 << 118]),
    ]
    HS = [
        Hypergraph(5, ()),
        singleton_hypergraph(5),
        H(5, [1, 2], [3, 4, 5]),
        Hypergraph(5, ()),
        H(5, [1, 2], [2, 3], [3, 4], [4, 5], [1, 5]),
        H(5, [1, 2, 3], [3, 4], [1, 5], [2, 4, 5]),
    ]

    @pytest.mark.parametrize(
        "gather,stacks",
        [
            (None, [(I16, 3), (L2, 2), (I32, 1), (I64, 1), (L3, 1)]),
            # 2 * 13 edges * 3^5 rows: stacks of at most 2 objectives, or of
            # 1 with two limbs or more, each scanned when full and the
            # part-full ones last
            (6318, [(L2, 1), (I16, 2), (L2, 1), (L3, 1), (I32, 1), (I64, 1), (I16, 1)]),
            # stacks of 1, in the order of the objectives, and blocks of
            # fewer than 3^5 rows
            (50, [(I16, 1), (L2, 1), (I32, 1), (I16, 1), (I64, 1), (L2, 1), (I16, 1), (L3, 1)]),
        ],
        ids=["default", "pairs", "single"],
    )
    def test_rows_match_single_objectives_and_oracle(self, monkeypatch, gather, stacks):
        assert counting._plan(tuple(self.HS)).members.shape[1] == 13
        if gather is not None:
            monkeypatch.setattr(counting, "_GATHER", gather)
        seen, whole = [], []
        blocks = counting._blocks

        def spy(plan, tables, *args, **kwargs):
            limbs, stack = tables.shape[:2]
            seen.append(((tables.dtype, limbs), stack))
            rows = set()
            for block in blocks(plan, tables, *args, **kwargs):
                rows.add(block[3].size * block[4].size)
                yield block
            # a block holds all 3^5 rows when the stack's limbs times
            # objectives times 13 edges times 3^5 rows fit the bound
            whole.append((rows == {3**5}) == (limbs * stack * 13 * 3**5 <= counting._GATHER))

        monkeypatch.setattr(counting, "_blocks", spy)
        got = stacked_rows(self.HS, 3, self.FS)
        # the tables of two and three limbs never widen the int16 ones' stack
        assert seen[: len(stacks)] == stacks
        assert all(whole)
        assert got == oracle_rows(self.HS, 3, self.FS)

    def test_memory_bounded_by_the_stack(self, monkeypatch):
        """2,000 objectives over the 167 hypergraphs on 4 vertices at M = 2,
        in stacks of at most 8: a stack is scanned only once the one before
        it has been handed back, and what is allocated meanwhile stays
        under 1 MB, where one (objectives, hypergraphs) int64 array of the
        whole family takes 2.7 MB."""
        Hs = tuple(enumerate_hypergraphs(4))
        fs = [explicit_objective([a, a + b]) for a in range(1, 41) for b in range(1, 51)]
        edges = counting._plan(Hs).members.shape[1]
        monkeypatch.setattr(counting, "_GATHER", 8 * edges * 2**4)
        calls = []
        blocks = counting._blocks

        def spy(*args, **kwargs):
            calls.append(args[1].shape[1])
            return blocks(*args, **kwargs)

        monkeypatch.setattr(counting, "_blocks", spy)
        counted, walk = [], counting._walk(Hs, ())
        tracemalloc.start()
        try:
            for at, total, layer1 in counting._count_many(walk, 2, fs):
                assert total.shape == layer1.shape == (len(at), len(Hs))
                assert calls[-1] == len(at) and len(calls) == len(counted) + 1
                counted.append(len(at))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted == [8] * 250 and peak < 1 << 20

    @given(hypergraph_groups(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, group, data):
        Hs, M, _ = group
        Hs = [*Hs, Hypergraph(Hs[0].n, ())]
        scales = st.sampled_from([1, 10**4, 10**9, 10**18, 1 << 200])
        fs = data.draw(st.lists(st.tuples(increasing_objectives(M), scales), min_size=1, max_size=5))
        fs = [explicit_objective([v * scale for v in f.values]) for f, scale in fs]
        gather = data.draw(st.sampled_from([1, 7, 40, 1 << 16]))
        with mock.patch.object(counting, "_GATHER", gather):
            assert stacked_rows(Hs, M, fs) == oracle_rows(Hs, M, fs)


def _near(top, zero_allowed):
    """Three values with ties between mixed and uniform labels, topped by
    ``top``; f(1) = 0 with ``zero_allowed``."""
    values = [0, top // 2, top] if zero_allowed else [top - 2, top - 1, top]
    return explicit_objective(values, zero_allowed=zero_allowed)


# on 4 vertices, the largest top value of each kind of table, whose
# successor takes the next kind: int16, int32 and int64 up to n times the
# top value 2^15 - 1, 2^31 - 1 and 2^62 - 4 (the successor's, 2^62, takes
# limbs); two limbs of 59 bits up to 2^118 - 1, whose digits are all
# 2^59 - 1, so that every carry fires
_RUNG_CASES = [
    (I16, ((1 << 15) - 1) // 4, I32),
    (I32, ((1 << 31) - 1) // 4, I64),
    (I64, ((1 << 62) - 1) // 4, L2),
    (L2, (1 << 118) - 1, L3),
]


class TestNarrowTables:
    """The value table is the narrowest dtype that holds n times the
    largest value, else as few int64 limbs as hold the largest value's
    digits; every count agrees with the oracle on both sides of each
    bound."""

    @pytest.mark.parametrize("suffix_rows", [4096, 9], ids=["one-side", "split"])
    @pytest.mark.parametrize("zero_allowed", [False, True], ids=["positive", "zero"])
    @pytest.mark.parametrize(
        "below,top,above", _RUNG_CASES, ids=["int16", "int32", "int64", "2 limbs"]
    )
    def test_rungs_match_oracle(self, monkeypatch, below, top, above, zero_allowed, suffix_rows):
        monkeypatch.setattr(counting, "_SUFFIX_ROWS", suffix_rows)
        n, M = 4, 3
        # the full edge reaches n times the top value; the others tie often
        full = H(n, [1, 2, 3, 4], [1, 2], [3, 4], [2, 3], [4], require_inclusion_free=False)
        Hs = [full, H(n, [1, 2], [3, 4], [1, 3]), Hypergraph(n, ()), singleton_hypergraph(n)]
        for top, expected_kind in ((top, below), (top + 1, above)):
            f = _near(top, zero_allowed)
            assert kind(f, n) == expected_kind
            expected = []
            for h in Hs:
                total, per_layer, per_edge = oracle_counts(h, M, f)
                rep = count_isolating(h, M, f)
                assert (rep.total, rep.per_layer, dict(rep.per_edge)) == (total, per_layer, per_edge)
                assert count_layer1(h, M, f) == per_layer[0]
                expected.append((total, per_layer[0]))
            assert batch_counts(Hs, M, f) == expected

    def test_tables_are_cached_by_values_read_only(self):
        f = explicit_objective([1, 2, 5])
        table = counting._table(f, 4)
        assert table.tolist() == [[0, 1, 2, 5]] and not table.flags.writeable
        assert counting._table(explicit_objective([1, 2, 5]), 4) is table
        assert counting._table(explicit_objective([F(1, 2), 1, F(5, 2)]), 4) is table
        assert counting._table(f, 5) is not table

    def test_scan_workload_exact_op_takes_the_object_path(self):
        # n = 6 values topped by 10^18, as the benchmark's exact op: 6 *
        # 10^18 >= 2^62 takes two limbs (4 * 10^18 is one int64 limb); on 3
        # vertices n times the top value (2^62 - 1) / 3 is 2^62 - 1, one
        # int64 limb, on 4 vertices past it
        f = explicit_objective([10**17, 3 * 10**17, 5 * 10**17, 7 * 10**17, 10**18])
        assert (kind(f, 6), kind(f, 4)) == (L2, I64)
        top = ((1 << 62) - 1) // 3
        g = explicit_objective([1, (top + 1) // 2, top])  # f(1) + f(3) = 2 f(2)
        assert (kind(g, 3), kind(g, 4)) == (I64, L2)
        full = H(3, [1, 2, 3], [1, 2], [2, 3], require_inclusion_free=False)
        for h, f in ((H(6, [1, 2], [3, 4, 5], [2, 6]), f), (full, g)):
            total, per_layer, per_edge = oracle_counts(h, f.M, f)
            rep = count_isolating(h, f.M, f)
            assert (rep.total, rep.per_layer, dict(rep.per_edge)) == (total, per_layer, per_edge)

    @pytest.mark.parametrize("edges", [255, 256, 257])
    def test_ties_past_a_byte_do_not_isolate(self, edges):
        # row 0: every edge at the minimum; row 1: edge 0 alone; row 2:
        # every edge but edge 0.  A byte count of 256 or 257 ties wraps to
        # 0 or 1, so from 256 edges on the count is wider.  One limb, and
        # the same sums as the int64 top limb over a zero low limb
        sums = np.full((edges, 3), 7, dtype=np.int16)
        sums[0, 1], sums[0, 2] = 3, 9
        for stack in (sums[None], sums[None, None], np.stack([0 * sums, sums]).astype(np.int64)[:, None]):
            iso, at_min = counting._classify(stack, 4)
            assert iso.reshape(-1).tolist() == [False, True, False]
            assert at_min.sum(axis=-2).reshape(-1).tolist() == [edges, 1, edges - 1]


class TestEdgeSums:
    """``_gather`` and ``_slot_sums`` against the oracle's edge weights in every table
    dtype, on each side of every prefix/suffix split, the zero-width sides
    and the hypergraph with no edges included."""

    @pytest.mark.parametrize(
        "top,expected_kind",
        [(top, below) for below, top, _ in _RUNG_CASES[:3]] + [(3 << 70, L2), (1 << 118, L3)],
        ids=["int16", "int32", "int64", "object", "3 limbs"],
    )
    def test_matches_oracle(self, top, expected_kind):
        # each limb holds the sums of its digits, uncarried: the edge
        # weight is their sum, limb i weighing 2^(b i)
        n, M = 4, 3
        f = _near(top, zero_allowed=False)
        table = counting._table(f, n)
        assert kind(f, n) == expected_kind and f.scaled == f.values
        W = np.array(list(itertools.product(range(1, M + 1), repeat=n)), dtype=np.int64)
        full = H(n, [1, 2, 3, 4], [1, 2], [3, 4], [2, 3], [4], require_inclusion_free=False)
        values = [None, *f.values]
        for h in (full, Hypergraph(n, ()), singleton_hypergraph(n)):
            slots = counting._plan((h,)).slots
            for p in range(n + 1):  # p = 0 and p = n give a zero-width side
                for side in (slice(0, p), slice(p, n)):
                    sums = counting._slot_sums(counting._gather(W[:, side], table, side.start), slots)
                    assert sums.shape == (len(table), h.m, len(W)) and sums.dtype == table.dtype
                    inside = range(n)[side]
                    edges = [[v for v in edge_vertices(e) if v - 1 in inside] for e in h.edges]
                    expected = [[oracle.edge_weight(values, w, e) for w in W.tolist()] for e in edges]
                    b = counting._base(n)
                    got = sum(limb.astype(object) << b * i for i, limb in enumerate(sums))
                    assert got.tolist() == expected


class TestCountLayer1:
    def test_examples(self):
        assert count_layer1(H(3, [1, 2], [1, 3]), 2, identity_objective(2)) == 4
        assert count_layer1(singleton_hypergraph(3), 3, identity_objective(3)) == 12
        assert count_layer1(Hypergraph(2, ()), 3, identity_objective(3)) == 3**2 - 2**2

    def test_budget_counts_only_layer1_weights(self, monkeypatch):
        # 3^3 - 2^3 = 19 evaluations fit a budget of 20 even though 3^3 = 27
        monkeypatch.setattr(counting, "DEFAULT_BUDGET", 20)
        assert count_layer1(singleton_hypergraph(3), 3, identity_objective(3)) == 12
        monkeypatch.setattr(counting, "DEFAULT_BUDGET", 18)
        with pytest.raises(BudgetExceededError, match="^19 weight evaluations exceed budget 18$"):
            count_layer1(singleton_hypergraph(3), 3, identity_objective(3))

    @pytest.mark.parametrize("n,M", [(3, 3), (9, 4)])
    def test_overflow_path_classifies_only_layer1_rows(self, monkeypatch, n, M):
        # the exact-integer path must scan M^n - (M-1)^n rows, not all M^n
        seen = []
        classify = counting._classify

        def counting_classify(sums, n):
            seen.append(sums.shape[-1])
            return classify(sums, n)

        monkeypatch.setattr(counting, "_classify", counting_classify)
        big = 1 << 70
        f = explicit_objective([big + 3 * v for v in range(M)])
        assert kind(f, n)[1] > 1
        h = singleton_hypergraph(n)
        count_layer1(h, M, f)
        assert sum(seen) == M**n - (M - 1) ** n

    @given(counting_instances())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_per_layer(self, instance):
        h, M, f = instance
        rep = count_isolating(h, M, f)
        assert count_layer1(h, M, f) == rep.per_layer[0]


class TestMonotonicityInM:
    @given(counting_instances(max_M=3), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_extending_the_range_never_shrinks_Z(self, instance, bump):
        h, M, f = instance
        extended = explicit_objective(
            list(f.values) + [f.values[-1] + bump],
            zero_allowed=f.zero_allowed,
        )
        small = count_isolating(h, M, f).total
        large = count_isolating(h, M + 1, extended).total
        assert small <= large
