"""Named inequality checks binding the exact counts to every applicable
closed-form bound, witness-graph invariant, injection property, and
two-valued-weight result on an instance or a grid.

Each check is tagged ``theorem`` or ``conjecture``: a failing theorem
check is a bug, a failing conjecture check is a discovery; both carry the
witness instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
from .counting import (
    _GATHER,
    DEFAULT_BUDGET,
    _check,
    _classify,
    _count_many,
    _plan,
    _rank_rows,
    _stacked_sums,
)
from .hypergraph import Hypergraph, is_inclusion_free, is_linear, one_degenerate_order
from .search import _grid
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
    """What the checks read off one hypergraph, whatever M and f."""

    simple: bool  # inclusion-free: the constructions apply
    proven: bool  # linear or 1-degenerate: both conjectures are theorems
    with_B: bool  # linear with every edge of two or more vertices: witness graph B applies
    r_eff: int  # the bounded-edge bound's r
    uniform: int  # the one edge cardinality, 0 with no edges or mixed ones
    m: int


def _shape(H: Hypergraph) -> _Shape:
    simple = is_inclusion_free(H)
    linear = simple and is_linear(H)
    cards = {e.bit_count() for e in H.edges}
    return _Shape(
        simple=simple,
        proven=linear or (simple and one_degenerate_order(H) is not None),
        with_B=linear and min(cards, default=2) >= 2,
        r_eff=max(2, max(cards, default=2)),
        uniform=next(iter(cards)) if len(cards) == 1 else 0,
        m=H.m,
    )


def _constructions(
    Hs: tuple[Hypergraph, ...], shapes: list[_Shape], M: int, f: Objective
) -> dict[str, list]:
    """Build witness graphs A and B, the injection and, at M = 2, the
    special-weight reduction for every inclusion-free hypergraph of Hs on
    a positive objective, in batches of hypergraphs with one edge count,
    and return what the checks read of them, per hypergraph.  A batch
    holds at most _GATHER hypergraphs times rows times edges (or vertices,
    when more), or one hypergraph."""
    out: dict[str, list] = {}
    n = Hs[0].n
    simple = np.array([s.simple for s in shapes])
    with_B = np.array([s.with_B for s in shapes])
    rows = max(2 * n * (M - 1) ** (n - 1), (M - 1) ** n, 2**n if M == 2 else 0)
    plan = _plan(Hs)
    for which, cols in plan.groups:
        which, cols = which[simple[which]], cols[simple[which]]
        per = max(1, _GATHER // (rows * max(cols.shape[1], n)))
        for a in range(0, len(which), per):
            at, members = which[a : a + per], plan.members.T[cols[a : a + per]]
            for name, values in _batch(members, with_B[at], M, f).items():
                column = out.setdefault(name, [None] * len(Hs))
                for h, value in zip(at.tolist(), values):
                    column[h] = value
    return out


def _batch(members: np.ndarray, with_B: np.ndarray, M: int, f: Objective) -> dict[str, list]:
    """What the checks read of the constructions on one stack of
    hypergraphs, ``members`` (graphs, m, n): the right nodes of witness
    graph A and how many of them isolate on layer 1, its total charge, the
    total and least charge of B where ``with_B``, the distinct images of
    the injection and how many of them isolate their edge, and at M = 2
    the special weights of the least-cardinality edges and how many of
    them do not isolate."""
    c, _, n = members.shape

    def count(graphs: np.ndarray) -> list[int]:
        return np.bincount(graphs, minlength=c).tolist()

    def distinct(keys: np.ndarray) -> list[int]:
        """The number of distinct keys (see ``_rank_rows``) of each graph."""
        keys = np.sort(keys, axis=None)
        first = np.ones(keys.shape, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return count((keys[first] // M**n).astype(np.intp))

    A = _witnesses(members, M, f, _pivot_step, "pivot descent")
    iso = _classify(_stacked_sums(f, members, A.targets.reshape(c, -1, n)))[0]
    ok = iso.reshape(-1)[A.first] & (A.right.min(axis=1) == 1)
    found = {"right": count(A.owner), "right_ok": count(A.owner[ok]), "charge": A.charges()[0]}
    if with_B.any():
        B = _witnesses(members[with_B], M, f, _next_vertex_step, "next-vertex descent")
        for name, values in zip(("charge_B", "least_B"), B.charges()):
            found[name] = [None] * c
            for g, value in zip(np.flatnonzero(with_B).tolist(), values):
                found[name][g] = value
    _, _, images, bad = _injection(members, M, f)
    keys = _rank_rows(images, M)
    found["images"] = distinct(keys)
    found["images_ok"] = [size - k for size, k in zip(found["images"], distinct(keys[bad]))]
    if M == 2:
        _, special, bad = _reduction(members, f)
        found["special"] = special.sum(axis=1).tolist()
        found["special_bad"] = bad.sum(axis=1).tolist()
    return found


class _Group(NamedTuple):
    """One (n, M, f) group of a walk: its counts and what the checks read
    of its constructions (None when they do not apply), per hypergraph,
    and the bounds at (n, M)."""

    M: int
    f: Objective
    bounds: dict
    total: list[int]
    layer1: list[int]
    built: Optional[dict[str, list]]


def _instance(group: _Group, h: int, shape: _Shape, n: int, doc: dict) -> Iterator[CheckResult]:
    """Every applicable check on the instance of hypergraph ``h`` in
    ``group``.

    For zero-allowed objectives or hypergraphs with nested edges only the
    universal (M-1)^n bound is claimed; the remaining machinery assumes an
    inclusion-free hypergraph and strictly positive objective.
    """
    M, bounds, built = group.M, group.bounds, group.built
    total, layer1 = group.total[h], group.layer1[h]

    def check(name: str, kind: str, lhs, rhs, holds: bool) -> CheckResult:
        return CheckResult(name, kind, str(lhs), str(rhs), holds, doc)

    if group.f.zero_allowed or not shape.simple:
        rhs = bounds["ta_shma"]
        yield check("total_ge_zero_weight_bound", "theorem", total, rhs, total >= rhs)
        return

    rhs = bounds["ta_shma"]
    yield check("total_ge_ta_shma", "theorem", total, rhs, total >= rhs)
    rhs = bounds["corollary_Y"]
    yield check("total_ge_layered_bound", "theorem", total, rhs, total >= rhs)
    if M >= 2:
        rhs = bounds["main_theorem"]
        yield check("layer1_ge_main_theorem", "theorem", layer1, rhs, layer1 >= rhs)
        rhs = bounds["bounded_edge"][shape.r_eff]
        yield check("layer1_ge_bounded_edge", "theorem", layer1, rhs, layer1 >= rhs)

    kind = "theorem" if M <= 2 or shape.proven else "conjecture"
    rhs = bounds["Y1"]
    yield check("layer1_ge_conjecture2", kind, layer1, rhs, layer1 >= rhs)
    rhs = bounds["Y"]
    yield check("total_ge_conjecture1", kind, total, rhs, total >= rhs)

    if M >= 2:
        right, ok = built["right"][h], built["right_ok"][h]
        yield check("witnessA_right_isolating_layer1", "theorem", ok, right, ok == right)
        charge = built["charge"][h]
        yield check("witnessA_charge_identity", "theorem", charge, right, charge == right)
        rhs = bounds["main_theorem"]
        yield check("witnessA_charge_bound", "theorem", charge, rhs, charge >= rhs)
        if shape.with_B:
            least = built["least_B"][h]
            yield check("witnessB_per_node_charge", "theorem", least, 1, least >= 1)
            charge, rhs = built["charge_B"][h], bounds["Y1"]
            yield check("witnessB_charge_bound", "theorem", charge, rhs, charge >= rhs)
        # on an inclusion-free H every min-weight edge is maximal, so this is
        # the plain injection; a collision or an image that does not isolate
        # its edge shows as a failed check here
        size, rhs = built["images"][h], (M - 1) ** n
        yield check("injection_image_size", "theorem", size, rhs, size == rhs)
        ok = built["images_ok"][h]
        yield check("injection_images_isolating", "theorem", ok, size, ok == size)

    if M == 2:
        bad = built["special_bad"][h]
        yield check("m2_special_subset_of_Z", "theorem", bad, 0, not bad)
        yield check("m2_layer1_ge_n", "theorem", layer1, n, layer1 >= n)
        if shape.uniform:
            # a uniform H is its own minimum-cardinality subgraph, so the
            # reduction check above has counted its special weights
            specials = built["special"][h]
            yield check("m2_special_ge_n", "theorem", specials, n, specials >= n)
            if shape.m == 1:
                r = shape.uniform
                rhs = 2**r + 2 ** (n - r) - 1
                yield check("m2_single_edge_count", "theorem", specials, rhs, specials == rhs)


def _bounds(M: int, n: int, r_effs: set[int]) -> dict:
    """Every bound the checks compare with at (n, M), the bounded-edge
    bound per r in ``r_effs``."""
    bounds = {
        "ta_shma": ta_shma_bound(M, n),
        "corollary_Y": corollary_Y_bound(M, n),
        "Y1": conjectured_Y1(M, n),
        "Y": conjectured_Y(M, n),
    }
    if M >= 2:
        bounds["main_theorem"] = main_theorem_bound(M, n)
        bounds["bounded_edge"] = {r: bounded_edge_bound(M, n, r) for r in r_effs}
    return bounds


def walk_checks(
    Hs: tuple[Hypergraph, ...],
    objectives: Sequence[tuple[int, Objective]],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[CheckResult]:
    """Every applicable check on each instance (H, M, f), for H in Hs,
    hypergraphs on one n, and (M, f) in ``objectives``: hypergraph by
    hypergraph, each in the order of ``objectives``.  Each (M, f) is
    counted and built as one batch over Hs, after every scan was checked
    against ``budget`` and the objective's range."""
    n = Hs[0].n
    for M, f in objectives:
        _check(f, M, M**n, budget, f"{M}^{n} = ")
    shapes = [_shape(H) for H in Hs]
    r_effs = {s.r_eff for s in shapes}
    bounds = {M: _bounds(M, n, r_effs) for M in dict.fromkeys(M for M, _ in objectives)}
    groups = [
        _Group(
            M,
            f,
            bounds[M],
            *(counts.tolist() for counts in _count_many(Hs, M, f)),
            _constructions(Hs, shapes, M, f) if M >= 2 and not f.zero_allowed else None,
        )
        for M, f in objectives
    ]
    objective_docs = [g.f.to_json_dict() for g in groups]
    for h, (H, shape) in enumerate(zip(Hs, shapes)):
        hypergraph = H.to_json_dict()
        for group, objective in zip(groups, objective_docs):
            doc = {"hypergraph": hypergraph, "M": group.M, "objective": objective}
            yield from _instance(group, h, shape, n, doc)


@dataclass(frozen=True)
class VerifySummary:
    """Counts of one verify run; ``ok`` is true when no check failed."""

    checks_run: int
    instances: int
    ok: bool
    violations: tuple[CheckResult, ...]


def summarize(results: Iterable[CheckResult], instances: int) -> VerifySummary:
    """Count ``results``, read once, and keep only the failed checks."""
    checks_run, violations = 0, []
    for r in results:
        checks_run += 1
        if not r.holds:
            violations.append(r)
    return VerifySummary(
        checks_run=checks_run,
        instances=instances,
        ok=not violations,
        violations=tuple(violations),
    )


def verify_grid(
    walks: Iterable[tuple[int, Iterable[Hypergraph]]],
    M_values: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> VerifySummary:
    """Run every instance check with the preset objectives on each
    hypergraph of each (n, walk) pair, such as (n, enumerate_hypergraphs(n))
    or (H.n, [H]), in order.  The grid is refused before its first check
    when a walk or a scan exceeds its budget."""
    grid = [
        (tuple(walk), [(M, f) for M in M_values for f in families[M]])
        for _, families, walk in _grid(walks, M_values, preset_objectives, budget)
    ]
    checks = (r for Hs, objectives in grid for r in walk_checks(Hs, objectives, budget=budget))
    return summarize(checks, sum(len(Hs) * len(objectives) for Hs, objectives in grid))
