"""Named inequality checks binding the exact counts to every applicable
closed-form bound, witness-graph invariant, injection property, and
two-valued-weight result on an instance or a grid.

Each check is tagged ``theorem`` or ``conjecture``: a failing theorem
check is a bug, a failing conjecture check is a discovery; both carry the
witness instance.  The checks of one (n, M, f) group of a walk are one
table of array comparisons over its hypergraphs (``_checks``): passing
checks are only counted, and a record is built for a failed one only.
The counts and constructions they read are made once per (n, M) for all
of that M's distinct objectives: one ``_count_many`` scan, the
objectives' value tables stacked on an objective axis, and one build
(``_constructions``), the tables stacked on the hypergraph axis.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bounds import (
    bounded_edge_bound,
    conjectured_Y,
    conjectured_Y1,
    corollary_Y_bound,
    main_theorem_bound,
    ta_shma_bound,
)
from .constructions import _next_vertex_step, _pivot_step, _witnesses
from . import counting
from .counting import (
    DEFAULT_BUDGET,
    _check_stack,
    _Walk,
    _count_many,
    _grid,
    _rank_rows,
    _tables,
)
from .hypergraph import Hypergraph, is_inclusion_free, is_linear, one_degenerate_order
from .special_m2 import _reduction
from .weights import Objective, preset_objectives
from .zero_weight import _injection


@dataclass(frozen=True)
class CheckResult:
    """One named inequality on one instance; ``lhs`` and ``rhs`` are the
    compared values as text."""

    name: str
    kind: str  # "theorem" | "conjecture"
    lhs: str
    rhs: str
    holds: bool
    instance: dict


class _Shape(NamedTuple):
    """What the checks read off each hypergraph of a walk, whatever M and
    f, as arrays over the walk."""

    simple: np.ndarray  # inclusion-free: the constructions apply
    proven: np.ndarray  # linear or 1-degenerate: both conjectures are theorems
    with_B: np.ndarray  # linear with every edge of two or more vertices: witness graph B applies
    r_eff: np.ndarray  # the bounded-edge bound's r
    uniform: np.ndarray  # the one edge cardinality, 0 with no edges or mixed ones
    m: np.ndarray


def _shape(Hs: tuple[Hypergraph, ...]) -> _Shape:
    rows = []
    for H in Hs:
        # read off a hypergraph validated inclusion-free when it was built,
        # scanned only for one built without that check
        simple = H.require_inclusion_free or is_inclusion_free(H)
        linear = simple and is_linear(H)
        proven = linear or (simple and one_degenerate_order(H) is not None)
        cards = {e.bit_count() for e in H.edges}
        with_B = linear and min(cards, default=2) >= 2
        uniform = next(iter(cards)) if len(cards) == 1 else 0
        rows.append((simple, proven, with_B, max(2, max(cards, default=2)), uniform, H.m))
    return _Shape(*map(np.array, zip(*rows)))


def _constructions(walk: _Walk, shape: _Shape, M: int, fs: Sequence[Objective]) -> dict:
    """Build witness graphs A and B, the injection and, at M = 2, the
    special-weight reduction for every inclusion-free hypergraph of the
    walk, read through its plan, under each objective of ``fs``, all of
    one M, and return what the checks read of them, as object arrays
    (objectives, hypergraphs), 0 where nothing was built (M < 2, nested
    edges; a name nothing was built for is missing).  Every objective is
    built in one stack per edge count: the (objective, hypergraph) pairs,
    objective by objective, in chunks of at most ``counting._GATHER``
    (read at call time) pairs times rows times edges (or vertices, when
    more), or of one pair.  A chunk stacks the value tables of its own
    objectives only, each with as many limbs as the chunk's widest
    (``counting._tables``), so one objective's wide table does not widen the
    arithmetic of another's chunks."""
    plan, n = walk.plan, walk.hypergraphs[0].n
    out: dict = defaultdict(lambda: np.zeros((len(fs), len(walk.hypergraphs)), dtype=object))
    if M < 2:
        return out
    for which, cols in plan.groups:
        which, cols = which[shape.simple[which]], cols[shape.simple[which]]
        pairs = len(fs) * len(which)
        per = max(1, counting._GATHER // _check_stack(n, M, cols.shape[1]))
        for a in range(0, pairs, per):
            objective, h = np.divmod(np.arange(a, min(a + per, pairs)), len(which))
            distinct, graph = np.unique(h, return_inverse=True)
            members = plan.members.T[cols[distinct]]
            # the chunk's own objectives, a run of them, in their common dtype
            # and limbs: exact, as each table's own holds n times its largest value
            first = objective[0]
            own = _tables(fs[first : objective[-1] + 1], n)[:, objective - first]
            found = _batch(members, graph, own, shape.with_B[which[h]], M)
            at = objective, which[h]
            for name, values in found.items():
                out[name][at] = values
    return out


def _batch(
    members: np.ndarray, graph: np.ndarray, tables: np.ndarray, with_B: np.ndarray, M: int
) -> dict:
    """What the checks read of the constructions on one stack of
    (objective, hypergraph) pairs, pair g hypergraph ``graph[g]`` of
    ``members`` (hypergraphs, m, n) under column g of the value tables
    ``tables`` (limbs, pairs, M + 1): the right nodes of witness graph A
    and how many of them isolate on layer 1, its total charge, the total
    and least charge of B where ``with_B`` (0 elsewhere), the distinct
    images of the injection and how many of them isolate their edge, and
    at M = 2 the special weights of the least-cardinality edges and how
    many of them do not isolate, each a list over the pairs."""
    stack = members[graph]
    c, _, n = stack.shape

    def count(pairs: np.ndarray) -> list[int]:
        return np.bincount(pairs, minlength=c).tolist()

    def distinct(keys: np.ndarray) -> list[int]:
        """The number of distinct keys (see ``_rank_rows``) of each pair."""
        keys = np.sort(keys, axis=None)
        first = np.ones(keys.shape, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return count((keys[first] // M**n).astype(np.intp))

    A = _witnesses(stack, M, tables, _pivot_step, "pivot descent")
    ok = A.isolating.reshape(-1)[A.first] & (A.right.min(axis=1) == 1)
    found = {"right": count(A.owner), "right_ok": count(A.owner[ok]), "charge": A.charges()[0]}
    if with_B.any():
        # B has A's left nodes, so it reuses A's classification of them
        left = tuple(part[with_B] for part in A.classified)
        B = _witnesses(
            stack[with_B], M, tables[:, with_B], _next_vertex_step, "next-vertex descent", left
        )
        for name, values in zip(("charge_B", "least_B"), B.charges()):
            found[name] = np.zeros(c, dtype=object)
            found[name][with_B] = values
    _, _, images, bad = _injection(stack, M, tables)
    keys = _rank_rows(images, M)
    found["images"] = distinct(keys)
    found["images_ok"] = [size - k for size, k in zip(found["images"], distinct(keys[bad]))]
    if M == 2:
        # one [2]^n scan per hypergraph, whatever its objectives
        _, special, bad = _reduction(members, tables, graph)
        found["special"] = special.sum(axis=1).tolist()
        found["special_bad"] = bad.sum(axis=1).tolist()
    return found


def _bounds(M: int, n: int, r_eff: np.ndarray) -> dict:
    """Every bound the checks compare with at (n, M), the bounded-edge
    bound per hypergraph by its ``r_eff``; the two that need M >= 2 read 0
    below it."""
    bounds = {
        "ta_shma": ta_shma_bound(M, n),
        "corollary_Y": corollary_Y_bound(M, n),
        "Y1": conjectured_Y1(M, n),
        "Y": conjectured_Y(M, n),
        "main_theorem": 0,
        "bounded_edge": 0,
    }
    if M >= 2:
        bounds["main_theorem"] = main_theorem_bound(M, n)
        by_r = {r: bounded_edge_bound(M, n, r) for r in set(r_eff.tolist())}
        bounds["bounded_edge"] = np.array([by_r[r] for r in r_eff.tolist()], dtype=object)
    return bounds


def _checks(n: int, shape: _Shape, M: int, bounds: dict, built: dict) -> list:
    """The named checks on the instances (H, M, f), H of a walk on n
    vertices with the ``shape``, in the order an instance lists them:
    (name, kind, lhs, relation, rhs, applies) rows, where ``kind``,
    ``lhs``, ``rhs`` and ``applies`` are scalars or arrays over the walk
    and a check holds where ``relation(lhs, rhs)``.
    ``built`` is what the checks read of the group's counts and
    constructions: the objective's rows of ``_count_many`` (``total``,
    ``layer1``) and of ``_constructions``.

    For hypergraphs with nested edges only the universal (M-1)^n bound is
    claimed; the remaining machinery assumes an inclusion-free hypergraph.
    """
    total, layer1 = built["total"], built["layer1"]
    ge, eq = np.greater_equal, np.equal
    simple = shape.simple
    M_ge_2, M_is_2 = simple & (M >= 2), simple & (M == 2)
    with_B = M_ge_2 & shape.with_B
    # a uniform H is its own minimum-cardinality subgraph, so the
    # reduction check has counted its special weights
    uniform = M_is_2 & (shape.uniform > 0)
    r = shape.uniform.astype(object)
    single_edge = 2**r + 2 ** (n - r) - 1
    kind = np.where(shape.proven | (M <= 2), "theorem", "conjecture")
    right, charge, images, specials = (built[k] for k in ("right", "charge", "images", "special"))
    return [
        ("total_ge_zero_weight_bound", "theorem", total, ge, bounds["ta_shma"], ~simple),
        ("total_ge_ta_shma", "theorem", total, ge, bounds["ta_shma"], simple),
        ("total_ge_layered_bound", "theorem", total, ge, bounds["corollary_Y"], simple),
        ("layer1_ge_main_theorem", "theorem", layer1, ge, bounds["main_theorem"], M_ge_2),
        ("layer1_ge_bounded_edge", "theorem", layer1, ge, bounds["bounded_edge"], M_ge_2),
        ("layer1_ge_conjecture2", kind, layer1, ge, bounds["Y1"], simple),
        ("total_ge_conjecture1", kind, total, ge, bounds["Y"], simple),
        ("witnessA_right_isolating_layer1", "theorem", built["right_ok"], eq, right, M_ge_2),
        ("witnessA_charge_identity", "theorem", charge, eq, right, M_ge_2),
        ("witnessA_charge_bound", "theorem", charge, ge, bounds["main_theorem"], M_ge_2),
        ("witnessB_per_node_charge", "theorem", built["least_B"], ge, 1, with_B),
        ("witnessB_charge_bound", "theorem", built["charge_B"], ge, bounds["Y1"], with_B),
        # on an inclusion-free H every min-weight edge is maximal, so this is
        # the plain injection; a collision or an image that does not isolate
        # its edge shows as a failed check here
        ("injection_image_size", "theorem", images, eq, (M - 1) ** n, M_ge_2),
        ("injection_images_isolating", "theorem", built["images_ok"], eq, images, M_ge_2),
        ("m2_special_subset_of_Z", "theorem", built["special_bad"], eq, 0, M_is_2),
        ("m2_layer1_ge_n", "theorem", layer1, ge, n, M_is_2),
        ("m2_special_ge_n", "theorem", specials, ge, n, uniform),
        ("m2_single_edge_count", "theorem", specials, eq, single_edge, uniform & (shape.m == 1)),
    ]


def _at(value, h: int) -> str:
    """The text of a check table's value, a scalar or an array over the
    walk, at hypergraph ``h``."""
    return str(value[h] if isinstance(value, np.ndarray) else value)


def _check_tables(walk: _Walk, shape: _Shape) -> Iterator[tuple[int, list]]:
    """(j, check table of the j-th (M, f) of the walk's objectives; see
    ``_checks``), M by M in order of first appearance: each M's distinct
    objectives are counted with one ``_count_many`` call, stack by stack,
    and their constructions built once, and a repeated (M, f) reads the
    same table."""
    n = walk.hypergraphs[0].n
    for M, fs, listings in walk.groups:
        built = _constructions(walk, shape, M, fs)
        bounds = _bounds(M, n, shape.r_eff)
        for at, total, layer1 in _count_many(walk, M, fs):
            for i, own_total, own_layer1 in zip(at, total, layer1):
                own = defaultdict(int, {name: values[i] for name, values in built.items()})
                own["total"], own["layer1"] = own_total, own_layer1
                table = _checks(n, shape, M, bounds, own)
                yield from ((j, table) for j in listings[i])


def _walk_checks(walk: _Walk, shape: _Shape) -> tuple[int, list[CheckResult]]:
    """Run every applicable check on each instance (H, M, f) of the walk,
    whose ``_shape`` is ``shape``, and return how many ran and the failed
    ones: hypergraph by hypergraph, each in the order of the walk's
    objectives, then of the check table.  The objectives of one M are
    counted as one batch over the walk, and their constructions built as
    one stack; ``_grid`` has refused every scan over budget."""
    checks_run, failed = 0, []
    for j, table in _check_tables(walk, shape):
        for k, (name, kind, lhs, relation, rhs, applies) in enumerate(table):
            checks_run += int(np.count_nonzero(applies))
            for h in np.flatnonzero(applies & ~relation(lhs, rhs)).tolist():
                failed.append((h, j, k, name, *(_at(x, h) for x in (kind, lhs, rhs))))

    @functools.cache
    def instance(h: int, j: int) -> dict:
        (M, f), H = walk.objectives[j], walk.hypergraphs[h]
        return {"hypergraph": H.to_json_dict(), "M": M, "objective": f.to_json_dict()}

    return checks_run, [
        CheckResult(name, kind, lhs, rhs, False, instance(h, j))
        for h, j, _, name, kind, lhs, rhs in sorted(failed)
    ]


@dataclass(frozen=True)
class VerifySummary:
    """Counts of one verify run; ``ok`` is true when no check failed."""

    checks_run: int
    instances: int
    ok: bool
    violations: tuple[CheckResult, ...]


def verify_grid(
    walks: Iterable[Iterable[Hypergraph]],
    M_values: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> VerifySummary:
    """Run every instance check with the preset objectives on each
    hypergraph of each walk, such as enumerate_hypergraphs(n) or [H], in
    order.  The grid is refused before its first check when a walk or a
    scan exceeds its budget, or when one (objective, hypergraph) pair's
    construction stack would exceed ``counting._STACK_CELLS`` cells
    (``counting._check_stack``)."""
    grid = _grid(walks, M_values, preset_objectives, budget)
    grid = [(walk, _shape(walk.hypergraphs)) for walk in grid]
    for walk, shape in grid:
        built = shape.m[shape.simple]
        for M, _, _ in walk.groups:
            if built.size and M >= 2:
                _check_stack(walk.hypergraphs[0].n, M, int(built.max()))
    checks_run, violations = 0, []
    for walk, shape in grid:
        run, failed = _walk_checks(walk, shape)
        checks_run += run
        violations += failed
    return VerifySummary(
        checks_run=checks_run,
        instances=sum(len(walk.hypergraphs) * len(walk.objectives) for walk, _ in grid),
        ok=not violations,
        violations=tuple(violations),
    )
