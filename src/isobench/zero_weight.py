"""The Ta-Shma injection {2..M}^n -> Z(H, M, f) in the form that also
covers the zero-allowed objective setting: it picks inclusion-wise maximal
min-weight edges (hypergraphs may contain nested edges and the empty edge
here).  Also the tight power-set instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import counting
from .counting import CountReport, _check, _classify, _decode_rows, _single, _stacked_sums, count_isolating
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


def _injection(
    members: np.ndarray, M: int, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The injection on each hypergraph of the stack ``members`` (graphs, m,
    n), under its row of the value tables ``tables`` (see
    ``_stacked_sums``), on their shared domain {2..M}^n in lexicographic order: returns the
    domain (weights, n), the lowered edge (graphs, weights), the images
    (graphs, weights, n) and the images that do not isolate their edge
    (graphs, weights).  With no edges every weight is its own image."""
    c, m, n = members.shape
    domain = _decode_rows(n, M - 1) + 1
    if not m:
        shape = (c, domain.shape[0])
        images = np.broadcast_to(domain, shape + (n,))
        return domain, np.zeros(shape, dtype=np.intp), images, np.zeros(shape, dtype=bool)
    at_min = _classify(_stacked_sums(tables, members, domain), n)[1]
    # inside[g, a, b]: edge a of graph g is a strict subset of its edge b
    edge = members.astype(bool)
    inside = (edge[:, :, None] <= edge[:, None, :]).all(axis=3) & ~np.eye(m, dtype=bool)
    covered = (inside.astype(np.int64) @ at_min) > 0
    e = (at_min & ~covered).argmax(axis=1)
    images = domain - members[np.arange(c)[:, None], e]
    iso, hit = _classify(_stacked_sums(tables, members, images), n)
    bad = ~(iso & np.take_along_axis(hit, e[:, None, :], axis=1)[:, 0])
    return domain, e, images, bad


def tashma_injection_maximal(H: Hypergraph, M: int, f: Objective) -> MaximalInjectionReport:
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
    members, tables = _single(H, M, f)
    domain, e, images, bad = _injection(members, M, tables)
    domain = list(map(tuple, domain.tolist()))
    pairs = list(zip(domain, map(tuple, images[0].tolist())))
    findings = [
        InjectionFinding(
            weight=domain[k],
            image=pairs[k][1],
            reason=f"image does not isolate edge {list(edge_vertices(H.edges[e[0, k]]))}",
        )
        for k in np.flatnonzero(bad[0]).tolist()
    ]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w, img in pairs:
        first = seen.setdefault(img, w)
        if first != w:
            findings.append(InjectionFinding(weight=w, image=img, reason=f"collides with {first}"))
    return MaximalInjectionReport(
        mapping=tuple(pairs), findings=tuple(findings), injective=len(seen) == len(pairs)
    )


def zero_weight_tightness(n: int, M: int) -> CountReport:
    """Exact count for the power-set hypergraph under f(i) = i - 1; equals
    (M-1)^n, which is verified before returning.  M^n is refused against
    DEFAULT_BUDGET, as it reads at call time, before the hypergraph or the
    objective is built."""
    _check(None, M, budget=counting.DEFAULT_BUDGET, n=n)
    report = count_isolating(power_set_hypergraph(n), M, zero_based_identity(M))
    expected = (M - 1) ** n
    if report.total != expected:
        raise AssertionError(
            f"power-set count {report.total} != (M-1)^n = {expected} at n={n}, M={M}"
        )
    return report
