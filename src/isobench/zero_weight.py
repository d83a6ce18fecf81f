"""The Ta-Shma injection {2..M}^n -> Z(H, M, f) in the form that also
covers the zero-allowed objective setting: it picks inclusion-wise maximal
min-weight edges (hypergraphs may contain nested edges and the empty edge
here).  Also the tight power-set instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import DEFAULT_BUDGET, CountReport, _classify_rows, _plan, count_isolating
from .errors import BudgetExceededError
from .hypergraph import Hypergraph, edge_vertices, power_set_hypergraph
from .weights import Objective


def zero_based_identity(M: int) -> Objective:
    """f(i) = i - 1: the zero-allowed objective of the tight instance."""
    return Objective(M, tuple(Fraction(i - 1) for i in range(1, M + 1)), zero_allowed=True)


@dataclass(frozen=True)
class InjectionFinding:
    weight: tuple[int, ...]
    image: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class MaximalInjectionReport:
    """Result of the maximal-edge injection: the full map plus any images
    that failed verification.  Failures are reported, not raised, so a gap
    in the underlying argument would surface as a finding."""

    mapping: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    findings: tuple[InjectionFinding, ...]
    injective: bool

    @property
    def image_size(self) -> int:
        return len({img for _, img in self.mapping})

    def mapping_dict(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(self.mapping)


def tashma_injection_maximal(
    H: Hypergraph, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> MaximalInjectionReport:
    """Map each w in {2..M}^n to w minus the indicator of an inclusion-wise
    maximal min-weight edge (lexicographically smallest among the maximal
    ones).  Works for hypergraphs with nested edges and zero-allowed
    objectives; every image is verified isolating.  On an inclusion-free
    hypergraph every min-weight edge is maximal, so this is the plain
    injection along the lexicographically smallest min-weight edge; the
    inverse adds the isolated edge's indicator back.
    """
    if M < 2:
        raise ValueError("injection requires M >= 2")
    if f.M != M:
        raise ValueError(f"objective range {f.M} does not match M={M}")
    domain_size = (M - 1) ** H.n
    if domain_size > budget:
        raise BudgetExceededError(f"domain size {domain_size} exceeds budget {budget}")
    domain = list(itertools.product(range(2, M + 1), repeat=H.n))
    findings = []
    if not H.edges:
        pairs = [(w, w) for w in domain]
    else:
        W = np.array(domain, dtype=np.int64)
        at_min = _classify_rows(H, f, W)[1]
        # inside[a, b]: edge a is a strict subset of edge b
        inside = np.array([[a != b and a & b == a for b in H.edges] for a in H.edges])
        e = (at_min & ~(at_min @ inside.T)).argmax(axis=1)
        lowered = W - _plan((H,)).members.T[e]
        iso, hit = _classify_rows(H, f, lowered)
        pairs = list(zip(domain, map(tuple, lowered.tolist())))
        for k in np.flatnonzero(~(iso & hit[np.arange(len(domain)), e])).tolist():
            findings.append(
                InjectionFinding(
                    weight=domain[k],
                    image=pairs[k][1],
                    reason=f"image does not isolate edge {list(edge_vertices(H.edges[e[k]]))}",
                )
            )
    images = [img for _, img in pairs]
    injective = len(set(images)) == len(images)
    if not injective:
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for w, img in pairs:
            if img in seen:
                findings.append(
                    InjectionFinding(weight=w, image=img, reason=f"collides with {seen[img]}")
                )
            else:
                seen[img] = w
    return MaximalInjectionReport(
        mapping=tuple(pairs), findings=tuple(findings), injective=injective
    )


def zero_weight_tightness(n: int, M: int, *, budget: int = DEFAULT_BUDGET) -> CountReport:
    """Exact count for the power-set hypergraph under f(i) = i - 1; equals
    (M-1)^n, which is verified before returning."""
    H = power_set_hypergraph(n)
    report = count_isolating(H, M, zero_based_identity(M), budget=budget)
    expected = (M - 1) ** n
    if report.total != expected:
        raise AssertionError(
            f"power-set count {report.total} != (M-1)^n = {expected} at n={n}, M={M}"
        )
    return report
