"""Two-valued weight machinery: special isolating weights, the reduction
to minimum-cardinality subhypergraphs, exact minimum vertex covers, and
per-edge richness reports for uniform hypergraphs.

A weight w: [n] -> {1, 2} is special isolating when some edge e is the
unique min-weight edge under unit weights and every vertex of e weighs no
more than every vertex outside e.  The objective function plays no role.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .counting import _classify, _decode_rows, _single, _stacked_sums, _table
from .errors import BudgetExceededError
from .hypergraph import Hypergraph, edge_vertices
from .weights import Objective, identity_objective

# f(1) = 1, f(2) = 2: an edge weighs |e| + #(weight-2 vertices in e)
_UNIT = identity_objective(2)
_COVER_VERTICES = 20  # the most vertices an exact cover search tries subsets of


def _special_scan(
    members: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan [2]^n for each hypergraph of the stack ``members`` (graphs, m, n)
    restricted to its edges where ``keep`` (graphs, m) holds.  Returns the
    rows of [2]^n in lexicographic order, the mask of special weights
    (graphs, rows) and each row's first unique-minimum edge under unit
    weights (graphs, rows).  With no edges every weight is special."""
    c, m, n = members.shape
    W = _decode_rows(n, 2)
    if not m:
        shape = (c, W.shape[0])
        return W, np.ones(shape, dtype=bool), np.zeros(shape, dtype=np.intp)
    # an edge of unit weight at most 2n; the dropped edges weigh more
    unit = _table(_UNIT, n)[:, None]
    sums = _stacked_sums(unit, members, W) + np.where(keep, 0, 2 * n + 1)[..., None]
    iso, at_min = _classify(sums, n)
    first = at_min.argmax(axis=1)
    inside = members[np.arange(c)[:, None], first] == 1
    # condition 1: no weight-2 vertex inside the edge or no weight-1 vertex outside
    cond1 = ~(inside & (W == 2)).any(axis=2) | ~(~inside & (W == 1)).any(axis=2)
    return W, iso & cond1, first


def _reduction(
    members: np.ndarray, tables: np.ndarray, graph: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z'(H_r) against Z(H, 2, f) for each pair g of a stack of instances:
    H is hypergraph ``graph[g]`` of the stack ``members`` (graphs, m, n),
    H_r its least-cardinality edges, and f reads row g of the value tables
    ``tables`` (see ``_stacked_sums``).  [2]^n is scanned for special
    weights once per hypergraph, however many pairs share it.  Returns the
    rows of [2]^n, the special weights of each pair's H_r and those of them
    that do not isolate in H, both masks of shape (pairs, rows)."""
    cards = members.sum(axis=2)
    keep = cards == cards.min(axis=1, initial=members.shape[2], keepdims=True)
    W, special, _ = _special_scan(members, keep)
    special = special[graph]
    iso = _classify(_stacked_sums(tables, members[graph], W), members.shape[2])[0]
    return W, special, special & ~iso


@dataclass(frozen=True)
class SubsetCheck:
    """Result of the special-weights containment check."""

    holds: bool
    special_count: int
    counterexamples: tuple[tuple[int, ...], ...]

    def __bool__(self) -> bool:
        return self.holds


def check_min_cardinality_reduction(H: Hypergraph, f: Objective) -> SubsetCheck:
    """Verify Z'(H_r) is contained in Z(H, 2, f) by direct enumeration."""
    if f.M != 2:
        raise ValueError("this reduction is specific to M = 2")
    if not H.edges:
        return SubsetCheck(holds=True, special_count=2**H.n, counterexamples=())
    members, tables = _single(H, 2, f)
    W, special, bad = _reduction(members, tables, np.zeros(1, dtype=np.intp))
    bad = tuple(map(tuple, W[bad[0]].tolist()))
    return SubsetCheck(holds=not bad, special_count=int(special.sum()), counterexamples=bad)


def min_vertex_cover(G: Hypergraph) -> tuple[int, ...]:
    """Exact minimum vertex cover by smallest-first exhaustive search over
    the vertices that occur in edges; ties broken to the lexicographically
    smallest cover.  Rejects hypergraphs with an empty edge (uncoverable).
    """
    if any(e == 0 for e in G.edges):
        raise ValueError("empty edge cannot be covered")
    if not G.edges:
        return ()
    used = sorted({v for e in G.edges for v in edge_vertices(e)})
    if len(used) > _COVER_VERTICES:
        raise BudgetExceededError(f"exact cover search limited to {_COVER_VERTICES} vertices")
    for k in range(1, len(used) + 1):
        for combo in itertools.combinations(used, k):
            mask = 0
            for v in combo:
                mask |= 1 << (v - 1)
            if all(e & mask for e in G.edges):
                return combo


@dataclass(frozen=True)
class EdgeRichness:
    """Per-edge data for an r-uniform hypergraph: minimum covers of the
    difference hypergraphs, the guaranteed special-weight count, the exact
    count, richness, and the single-swap indicators."""

    edge: int
    cover1: tuple[int, ...]
    cover2: tuple[int, ...]
    s_lower: int
    s_exact: int
    rich: bool
    swaps: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class RichEdgeReport:
    n: int
    r: int
    total_special: int
    edges: tuple[EdgeRichness, ...]


def rich_edge_report(H: Hypergraph) -> RichEdgeReport:
    """Full per-edge richness report for a nonempty r-uniform hypergraph.

    The difference hypergraphs H1(e) = {e - e'} and H2(e) = {e' - e} range
    over the other edges e' != e (including e' = e would add the empty,
    uncoverable set), with duplicate difference sets collapsed.
    """
    if not H.edges:
        raise ValueError("hypergraph has no edges")
    cards = {e.bit_count() for e in H.edges}
    if len(cards) != 1:
        raise ValueError(f"hypergraph is not uniform (cardinalities {sorted(cards)})")
    r = cards.pop()
    if r == 0:
        raise ValueError("uniform cardinality must be >= 1")
    members = _single(H, 2, _UNIT)[0]

    def cover(differences) -> tuple[int, ...]:
        edges = tuple(sorted(set(differences), key=edge_vertices))
        return min_vertex_cover(Hypergraph(H.n, edges, require_inclusion_free=False))

    _, special, first = _special_scan(members, np.ones((1, H.m), dtype=bool))
    hist = np.bincount(first[0, special[0]], minlength=H.m)
    reports = []
    for t, e in enumerate(H.edges):
        rest = [o for o in H.edges if o != e]
        c1, c2 = cover(e & ~o for o in rest), cover(o & ~e for o in rest)
        s_lower = 2 ** (H.n - r - len(c2)) + 2 ** (r - len(c1)) - 1
        rich = len(c2) < H.n - r or len(c1) < r
        swaps = []
        e_vs = edge_vertices(e)
        out_vs = [v for v in range(1, H.n + 1) if v not in e_vs]
        edge_set = set(H.edges)
        for i in e_vs:
            for j in out_vs:
                swapped = e ^ (1 << (i - 1)) ^ (1 << (j - 1))
                swaps.append((i, j, 1 if swapped in edge_set else 0))
        reports.append(
            EdgeRichness(
                edge=e,
                cover1=c1,
                cover2=c2,
                s_lower=s_lower,
                s_exact=int(hist[t]),
                rich=rich,
                swaps=tuple(swaps),
            )
        )
    return RichEdgeReport(
        n=H.n, r=r, total_special=int(special.sum()), edges=tuple(reports)
    )
