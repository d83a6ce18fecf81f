"""Named inequality checks binding the exact counts to every applicable
closed-form bound, witness-graph invariant, injection property, and
two-valued-weight result on an instance or a grid.

Each check is tagged ``theorem`` or ``conjecture``: a failing theorem
check is a bug, a failing conjecture check is a discovery; both carry the
witness instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bounds import (
    bounded_edge_bound,
    conjectured_Y,
    conjectured_Y1,
    corollary_Y_bound,
    main_theorem_bound,
    ta_shma_bound,
)
from .constructions import build_witness_graph_A, build_witness_graph_B
from .counting import DEFAULT_BUDGET, _classify_rows, count_isolating
from .hypergraph import Hypergraph, is_inclusion_free, is_linear, one_degenerate_order
from .search import _grid
from .special_m2 import check_min_cardinality_reduction
from .weights import Objective, preset_objectives
from .zero_weight import tashma_injection_maximal


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


def _instance_doc(H: Hypergraph, M: int, f: Objective) -> dict:
    return {"hypergraph": H.to_json_dict(), "M": M, "objective": f.to_json_dict()}


def instance_checks(
    H: Hypergraph, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Every applicable check for one (H, M, f) instance.

    For zero-allowed objectives or hypergraphs with nested edges only the
    universal (M-1)^n bound is claimed; the remaining machinery assumes an
    inclusion-free hypergraph and strictly positive objective.
    """
    doc = _instance_doc(H, M, f)
    report = count_isolating(H, M, f, budget=budget)
    total, layer1 = report.total, report.layer1
    n = H.n
    results: list[CheckResult] = []

    def add(name: str, kind: str, lhs, rhs, holds: bool) -> None:
        results.append(CheckResult(name, kind, str(lhs), str(rhs), holds, doc))

    if f.zero_allowed or not is_inclusion_free(H):
        rhs = ta_shma_bound(M, n)
        add("total_ge_zero_weight_bound", "theorem", total, rhs, total >= rhs)
        return results

    add("total_ge_ta_shma", "theorem", total, ta_shma_bound(M, n), total >= ta_shma_bound(M, n))
    rhs = corollary_Y_bound(M, n)
    add("total_ge_layered_bound", "theorem", total, rhs, total >= rhs)
    if M >= 2:
        rhs = main_theorem_bound(M, n)
        add("layer1_ge_main_theorem", "theorem", layer1, rhs, layer1 >= rhs)
        r_eff = max(2, max((e.bit_count() for e in H.edges), default=2))
        rhs = bounded_edge_bound(M, n, r_eff)
        add("layer1_ge_bounded_edge", "theorem", layer1, rhs, layer1 >= rhs)

    proven = M <= 2 or is_linear(H) or one_degenerate_order(H) is not None
    kind = "theorem" if proven else "conjecture"
    rhs = conjectured_Y1(M, n)
    add("layer1_ge_conjecture2", kind, layer1, rhs, layer1 >= rhs)
    rhs = conjectured_Y(M, n)
    add("total_ge_conjecture1", kind, total, rhs, total >= rhs)

    if M >= 2:
        G = build_witness_graph_A(H, M, f, budget=budget)
        right = np.array(G.right, dtype=np.int64)
        ok_count = int((_classify_rows(H, f, right)[0] & (right.min(axis=1) == 1)).sum())
        add(
            "witnessA_right_isolating_layer1",
            "theorem",
            ok_count,
            len(G.right),
            ok_count == len(G.right),
        )
        total_charge = G.total_charge()
        add(
            "witnessA_charge_identity",
            "theorem",
            total_charge,
            len(G.right),
            total_charge == len(G.right),
        )
        rhs = main_theorem_bound(M, n)
        add("witnessA_charge_bound", "theorem", total_charge, rhs, total_charge >= rhs)
        if is_linear(H) and all(e.bit_count() >= 2 for e in H.edges):
            GB = build_witness_graph_B(H, M, f, budget=budget)
            min_charge = min(GB.charges, default=Fraction(1))
            add("witnessB_per_node_charge", "theorem", min_charge, 1, min_charge >= 1)
            rhs = conjectured_Y1(M, n)
            charge_B = GB.total_charge()
            add("witnessB_charge_bound", "theorem", charge_B, rhs, charge_B >= rhs)

        # on an inclusion-free H every min-weight edge is maximal, so this is
        # the plain injection; a collision or an image that does not isolate
        # its edge (which the injection reports) shows as a failed check here
        injection = tashma_injection_maximal(H, M, f, budget=budget)
        size, rhs = injection.image_size, (M - 1) ** n
        add("injection_image_size", "theorem", size, rhs, size == rhs)
        failed = {x.image for x in injection.findings if x.reason.startswith("image does not")}
        iso_count = size - len(failed)
        add("injection_images_isolating", "theorem", iso_count, size, iso_count == size)

    if M == 2:
        subset = check_min_cardinality_reduction(H, f, budget=budget)
        add(
            "m2_special_subset_of_Z",
            "theorem",
            len(subset.counterexamples),
            0,
            subset.holds,
        )
        add("m2_layer1_ge_n", "theorem", layer1, n, layer1 >= n)
        if H.edges:
            cards = {e.bit_count() for e in H.edges}
            if len(cards) == 1:
                # a uniform H is its own minimum-cardinality subgraph, so the
                # reduction check above has counted its special weights
                specials = subset.special_count
                add("m2_special_ge_n", "theorem", specials, n, specials >= n)
                if H.m == 1:
                    r = next(iter(cards))
                    rhs = 2**r + 2 ** (n - r) - 1
                    add("m2_single_edge_count", "theorem", specials, rhs, specials == rhs)
    return results


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
    grid = _grid(walks, M_values, preset_objectives, budget)
    instances = [
        (H, M, f)
        for _, families, walk in grid
        for H in walk
        for M in M_values
        for f in families[M]
    ]
    checks = (r for H, M, f in instances for r in instance_checks(H, M, f, budget=budget))
    return summarize(checks, len(instances))
