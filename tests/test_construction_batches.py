"""The batched injection, witness graphs and verify checks against
per-weight references.

The references below walk the weights one at a time, as the definitions
read, and compare edge weights with ``tests/oracle.py`` (plain Fractions,
no package code); whether the targets isolate is checked by the builders
themselves and by ``test_constructions.py``.  Every case also runs with the
objective multiplied by 2^70 and by 2^200, which take the exact edge sums
in two and in four or more int64 limbs: digits in base 2^b, b = 62 -
n.bit_length(), so that a sum of n digits stays below 2^62 and no limb
overflows.  The verify checks also run with a small batch bound, so batch
boundaries fall inside every group of hypergraphs with one edge count,
and with a mixed list of objectives whose constructions share stacks.
"""

import itertools
import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isobench.counting
import isobench.verify
import oracle
from conftest import check_rows, increasing_objectives, small_hypergraphs, walk_checks
from conftest import SCALE_IDS, SCALES
from conftest import table_kind as kind
from isobench import (
    Hypergraph,
    Objective,
    build_witness_graph_A,
    build_witness_graph_B,
    enumerate_hypergraphs,
    identity_objective,
    is_linear,
    preset_objectives,
    random_hypergraph,
    singleton_hypergraph,
    tashma_injection_maximal,
    verify_grid,
)
from isobench.cli import main
from isobench.constructions import _assert_isolates
from isobench.counting import _CHUNK, _base, _limbs, _single
from isobench.hypergraph import edge_vertices


def _scaled(f, scale):
    return Objective(f.M, tuple(v * scale for v in f.values))


def ref_injection(n, edges, M, values):
    mapping = {}
    for w in itertools.product(range(2, M + 1), repeat=n):
        if not edges:
            mapping[w] = w
            continue
        k = oracle.min_edges(edges, values, w)[0]
        mapping[w] = oracle.lower(w, edges[k])
    return mapping


def pivot_descent(w, i, e):
    return oracle.lower(w, [v for v in e if v != i])


def next_vertex_descent(w, i, e):
    return oracle.lower(w, [min([v for v in e if v > i], default=min(e))])


def ref_witness(n, edges, M, values, descend):
    """(left, right, adjacency, charges), walking the left nodes in
    (position, remainder) order."""
    left, targets = [], []
    for i in range(1, n + 1):
        for rest in itertools.product(range(2, M + 1), repeat=n - 1):
            w = rest[: i - 1] + (1,) + rest[i - 1 :]
            left.append(w)
            if not edges:
                targets.append([w])
                continue
            mins = oracle.min_edges(edges, values, w)
            avoiding = [k for k in mins if i not in edges[k]]
            if avoiding:
                targets.append([oracle.lower(w, edges[avoiding[0]])])
                continue
            down = [descend(w, i, edges[k]) for k in mins[:2]]
            targets.append([w, down[0]] if len(mins) == 1 else down)
    right, adjacency = {}, []
    for ts in targets:
        nbrs = []
        for t in ts:
            u = right.setdefault(t, len(right))
            if u not in nbrs:
                nbrs.append(u)
        adjacency.append(tuple(nbrs))
    deg = Counter(u for nbrs in adjacency for u in nbrs)
    charges = tuple(sum((Fraction(1, deg[u]) for u in nbrs), Fraction(0)) for nbrs in adjacency)
    return tuple(left), tuple(right), tuple(adjacency), charges


def check_injection(H, M, f, want):
    """The injection's mapping, in domain order, equals the reference, with
    no findings."""
    report = tashma_injection_maximal(H, M, f)
    assert list(report.mapping) == list(want.items())
    assert report.findings == ()
    assert report.injective


def check_against_references(H, M, f):
    edges = [edge_vertices(e) for e in H.edges]
    for scale in SCALES:
        g = _scaled(f, scale)
        values = [None, *g.values]
        assert (kind(g, H.n)[1] == 1) == (scale == 1)
        want_inj = ref_injection(H.n, edges, M, values)
        want_A = ref_witness(H.n, edges, M, values, pivot_descent)
        with_B = is_linear(H) and all(len(e) >= 2 for e in edges)
        if with_B:
            want_B = ref_witness(H.n, edges, M, values, next_vertex_descent)
        check_injection(H, M, g, want_inj)
        G = build_witness_graph_A(H, M, g)
        assert (G.left, G.right, G.adjacency, G.charges) == want_A
        assert G.total_charge() == sum(want_A[3], Fraction(0))
        if with_B:
            G = build_witness_graph_B(H, M, g)
            assert (G.left, G.right, G.adjacency, G.charges) == want_B
            assert G.total_charge() == sum(want_B[3], Fraction(0))


@st.composite
def linear_hypergraphs(draw, max_n=4):
    """Linear hypergraphs whose edges all have at least two vertices."""
    n = draw(st.integers(2, max_n))
    picks = draw(st.lists(st.integers(1, 2**n - 1), max_size=6, unique=True))
    chosen = []
    for e in picks:
        if e.bit_count() >= 2 and all((e & o).bit_count() <= 1 for o in chosen):
            chosen.append(e)
    return Hypergraph(n, tuple(chosen))


@given(st.one_of(small_hypergraphs(max_n=4), linear_hypergraphs()), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_constructions_match_per_weight_references(H, data):
    M = data.draw(st.integers(2, 4))
    check_against_references(H, M, data.draw(increasing_objectives(M)))


@pytest.mark.parametrize(
    "H, M",
    [
        (singleton_hypergraph(2), 2),
        (Hypergraph(2, ()), 3),
        (Hypergraph.from_edges(3, [[1, 2], [1, 3], [2, 3]]), 3),
        (Hypergraph.from_edges(4, [[1, 2, 3], [1, 4], [2, 4], [3, 4]]), 4),
        # the left nodes are int8 up to M = 127 and int16 from 128
        (Hypergraph.from_edges(2, [[1, 2]]), 127),
        (singleton_hypergraph(2), 128),
    ],
)
def test_named_instances_match_references(H, M):
    check_against_references(H, M, identity_objective(M))


def test_batches_wider_than_one_block():
    """14^4 = 38,416 injection rows at n = 4, M = 15 and 3 * 105^2 = 33,075
    left nodes at n = 3, M = 106: both more rows than one block of the
    counting kernel, in one stack.  Scaling f keeps every isolation
    decision, so one reference serves both scales."""
    assert min(14**4, 3 * 105**2) > _CHUNK
    edges = [(1, 2), (2, 3)]
    f = identity_objective(15)
    want = ref_injection(4, edges, 15, [None, *f.values])
    for scale in SCALES:
        check_injection(Hypergraph.from_edges(4, edges), 15, _scaled(f, scale), want)
    f = identity_objective(106)
    want = ref_witness(3, edges, 106, [None, *f.values], next_vertex_descent)
    for scale in SCALES:
        G = build_witness_graph_B(Hypergraph.from_edges(3, edges), 106, _scaled(f, scale))
        assert (G.left, G.right, G.adjacency, G.charges) == want


def test_failed_isolation_names_the_first_weight_and_edge():
    members, tables = _single(singleton_hypergraph(2), 2, identity_objective(2))
    W = np.array([[[1, 2], [2, 2], [2, 2]]])
    edges = np.array([[0, 0, 1]])
    message = r"^probe failed to isolate edge \(1,\) at weight \(2, 2\)$"
    with pytest.raises(AssertionError, match=message):
        _assert_isolates(tables, members, W, edges, np.ones((1, 3), dtype=bool), "probe")
    message = r"^probe failed to isolate edge \(2,\) at weight \(2, 2\)$"
    with pytest.raises(AssertionError, match=message):
        _assert_isolates(tables, members, W, edges, np.array([[True, False, True]]), "probe")
    _assert_isolates(tables, members, W, edges, np.array([[True, False, False]]), "probe")


# ---------------------------------------------------------------------------
# The batched verify checks


def grid_walks():
    """(n, walk) for n <= 3: every antichain, the edgeless H among them,
    then seeded random hypergraphs with nested edges."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        nested = [random_hypergraph(n, 4, rng, inclusion_free=False) for _ in range(3)]
        yield n, (*enumerate_hypergraphs(n), *nested)


def reference_values(H, M, f):
    """What the verify checks read of the constructions, from the
    per-weight references: witness graph A's right nodes and total charge,
    B's least and total charge, the injection's image size."""
    edges = [edge_vertices(e) for e in H.edges]
    values = [None, *f.values]
    _, right, _, charges = ref_witness(H.n, edges, M, values, pivot_descent)
    want = {
        "witnessA_right_isolating_layer1": (None, str(len(right))),
        "witnessA_charge_identity": (str(sum(charges, Fraction(0))), str(len(right))),
        "injection_image_size": (str(len(set(ref_injection(H.n, edges, M, values).values()))), None),
    }
    if is_linear(H) and all(len(e) >= 2 for e in edges):
        charges = ref_witness(H.n, edges, M, values, next_vertex_descent)[3]
        want["witnessB_per_node_charge"] = (str(min(charges)), None)
        want["witnessB_charge_bound"] = (str(sum(charges, Fraction(0))), None)
    return want


@pytest.mark.parametrize("M_values", [(2, 3), (3, 2), (2, 2)], ids=["2,3", "3,2", "2,2"])
@pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
def test_batched_checks_match_one_hypergraph_walks_and_references(M_values, scale):
    """The checks of a whole walk, in batches cut inside every edge-count
    group, equal those of one-hypergraph walks, and the construction values
    they read equal the per-weight references'."""
    for n, Hs in grid_walks():
        objectives = [(M, _scaled(f, scale)) for M in M_values for f in preset_objectives(M, n)]
        want = [check_rows((H,), objectives)[0] for H in Hs]
        for gather in (7, 200):
            with mock.patch.object(isobench.counting, "_GATHER", gather):
                assert check_rows(Hs, objectives) == want
        for H, per_objective in zip(Hs, want):
            for (M, f), rows in zip(objectives, per_objective):
                got = {r.name: (r.lhs, r.rhs) for r in rows}
                if "witnessA_charge_identity" not in got:
                    assert list(got) == ["total_ge_zero_weight_bound"]
                    continue
                for name, (lhs, rhs) in reference_values(H, M, f).items():
                    assert got[name][0] == lhs or lhs is None, (H, M, name)
                    assert got[name][1] == rhs or rhs is None, (H, M, name)
                assert ("witnessB_charge_bound" in got) == ("witnessB_per_node_charge" in reference_values(H, M, f))


# ---------------------------------------------------------------------------
# Every objective of one M in one construction stack

BOUNDS = ("ta_shma_bound", "corollary_Y_bound", "main_theorem_bound", "bounded_edge_bound")
BOUNDS += ("conjectured_Y", "conjectured_Y1")


def mixed_objectives(n):
    """The presets at every scale, so one-limb and wide tables share a
    stack, and M = 2 listed twice."""
    return [
        (M, _scaled(f, scale)) for M in (2, 3, 2) for scale in SCALES for f in preset_objectives(M, n)
    ]


@pytest.mark.parametrize("gather", [7, 200, isobench.counting._GATHER])
def test_stacked_objectives_match_one_objective_walks(gather, monkeypatch):
    """With every bound tripled, so that checks fail, one walk over a mixed
    list of objectives runs as many checks and fails the same ones as one
    walk per objective, whatever the chunks its stacks are cut into."""
    monkeypatch.setattr(isobench.counting, "_GATHER", gather)
    for name in BOUNDS:
        bound = getattr(isobench.verify, name)
        monkeypatch.setattr(isobench.verify, name, lambda *args, bound=bound: 3 * bound(*args))
    failures = 0
    for n, Hs in grid_walks():
        objectives = mixed_objectives(n)
        assert len({kind(f, n) for M, f in objectives if M == 2}) > 1
        run, failed = walk_checks(Hs, objectives)
        singles = [walk_checks(Hs, [objective]) for objective in objectives]
        assert run == sum(r for r, _ in singles)
        assert sorted(failed, key=repr) == sorted((r for _, f in singles for r in f), key=repr)
        failures += len(failed)
    assert failures > 0


def spy_on_stacks(monkeypatch):
    """Record the shape, the distinct value tables, as the values summed
    back from their limbs, and the kind (dtype, limbs) of each stack that
    witness graph A is built on."""
    stacks = []
    real = isobench.verify._witnesses

    def spy(members, M, tables, step, what, *classified):
        if what == "pivot descent":
            b = _base(members.shape[2])
            values = sum(limb.astype(object) << b * i for i, limb in enumerate(tables))
            rows = frozenset(map(tuple, values.tolist()))
            stacks.append((members.shape, M, rows, (tables.dtype, _limbs(tables))))
        return real(members, M, tables, step, what, *classified)

    monkeypatch.setattr(isobench.verify, "_witnesses", spy)
    return stacks


@pytest.mark.parametrize("gather", [7, 50])
def test_stacks_exceed_the_cap_only_as_one_pair(gather, monkeypatch):
    """Each stack holds (objective, hypergraph) pairs up to _GATHER cells,
    or one pair over it; the objectives of one M share stacks.  Both caps
    are below some pair's cells (72 at n = 3, M = 3 with 3 edges) and
    above others' (2 at n = 1)."""
    monkeypatch.setattr(isobench.counting, "_GATHER", gather)
    stacks = spy_on_stacks(monkeypatch)
    assert verify_grid([enumerate_hypergraphs(n) for n in (1, 2, 3)], [2, 3]).ok
    cells = [isobench.counting._stack_cells(n, M, m) for (_, m, n), M, _, _ in stacks]
    pairs = [c for (c, _, _), *_ in stacks]
    assert all(c == 1 or c * size <= gather for c, size in zip(pairs, cells))
    assert any(size > gather for size in cells) and max(pairs) > 1
    assert max(len(rows) for _, _, rows, _ in stacks) == 3


@pytest.mark.parametrize("gather", [1, 200])
def test_stacks_take_the_dtype_of_their_own_objectives(gather, monkeypatch):
    """A stack's value tables are widened only as far as its own
    objectives need: to the most limbs among them, and with one limb to
    their widest dtype, so a chunk of one-limb objectives is not widened
    because a 2^70-scaled objective of the same M takes two limbs."""
    monkeypatch.setattr(isobench.counting, "_GATHER", gather)
    stacks, kinds = spy_on_stacks(monkeypatch), set()
    for n, Hs in grid_walks():
        objectives = mixed_objectives(n)
        own = {(0, *f.scaled): kind(f, n) for _, f in objectives}
        stacks.clear()
        walk_checks(Hs, objectives)
        for _, _, rows, (dtype, limbs) in stacks:
            dtypes, counts = zip(*(own[row] for row in rows))
            assert limbs == max(counts)
            assert dtype == (np.result_type(*dtypes) if limbs == 1 else np.int64)
            kinds.add(limbs)
    assert 1 in kinds and max(kinds) > 1


def test_one_stack_per_edge_count_at_the_default_cap(monkeypatch, capsys):
    """``verify --n-max 3 --M 2,3`` builds A once per (n, M, edge count),
    for the three preset objectives together."""
    stacks = spy_on_stacks(monkeypatch)
    assert main(["verify", "--n-max", "3", "--M", "2,3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    groups = [(n, M, m) for n in (1, 2, 3) for M in (2, 3) for m in {H.m for H in enumerate_hypergraphs(n)}]
    assert Counter((n, M, m) for (_, m, n), M, _, _ in stacks) == Counter(groups)
    assert {len(rows) for _, _, rows, _ in stacks} == {3}
