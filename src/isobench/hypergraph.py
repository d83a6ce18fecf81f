"""Hypergraphs on vertex set {1..n} with bitmask edge storage.

Vertices are 1-based.  An edge is stored as an integer bitmask with bit
``i - 1`` set when vertex ``i`` belongs to the edge; Python integers are
unbounded, so the same representation works for any ``n``.  Edges are kept
in a canonical order (lexicographic by sorted vertex tuple), and every
"lexicographically smallest edge" tie-break in this package refers to that
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceededError

# Dedekind numbers D(0..8) (OEIS A000372), the antichains of subsets of
# [n]: an inclusion-free walk visits the D(n) - 1 antichains of nonempty
# sets.  D grows with n, so past the table D(8) - 1 bounds the walk below.
_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354, 2414682040998, 56130437228687557907788)
_POWER_SET_EDGES = 1 << 16  # the largest power-set hypergraph built
_MAX_COUNT = 1_000_000  # the most antichains an enumeration walks


def edge_mask(vertices: Iterable[int], n: int) -> int:
    """Build an edge bitmask from 1-based vertices, validating the range."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
        mask |= 1 << (v - 1)
    return mask


def edge_vertices(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex tuple of an edge bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class Hypergraph:
    """An immutable hypergraph: ``n`` vertices plus distinct edge bitmasks.

    ``allow_empty_edge`` admits the empty edge (needed only for power-set
    style instances); ``require_inclusion_free`` makes construction reject
    any pair of nested edges.
    """

    n: int
    edges: tuple[int, ...]
    allow_empty_edge: bool = False
    require_inclusion_free: bool = True

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("vertex count must be a positive integer")
        seen = set()
        for e in self.edges:
            # e >> n, not a mask of n bits, which a huge n could not allocate
            if not isinstance(e, int) or e < 0 or e >> self.n:
                raise ValueError(f"edge {e!r} is not a subset of 1..{self.n}")
            if e == 0 and not self.allow_empty_edge:
                raise ValueError("empty edge requires allow_empty_edge")
            if e in seen:
                raise ValueError(f"duplicate edge {edge_vertices(e)}")
            seen.add(e)
        normalized = tuple(sorted(seen, key=edge_vertices))
        object.__setattr__(self, "edges", normalized)
        if self.require_inclusion_free and not is_inclusion_free(self):
            raise ValueError("edge set is not inclusion-free")

    @classmethod
    def from_edges(
        cls,
        n: int,
        vertex_sets: Iterable[Iterable[int]],
        *,
        allow_empty_edge: bool = False,
        require_inclusion_free: bool = True,
    ) -> "Hypergraph":
        masks = tuple(edge_mask(vs, n) for vs in vertex_sets)
        return cls(n, masks, allow_empty_edge, require_inclusion_free)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(edge_vertices(e) for e in self.edges)

    def degree(self, v: int) -> int:
        """Number of edges containing vertex ``v``."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        bit = 1 << (v - 1)
        return sum(1 for e in self.edges if e & bit)

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(e.bit_count() for e in self.edges)

    def to_json_dict(self) -> dict:
        doc: dict = {"n": self.n, "edges": [list(edge_vertices(e)) for e in self.edges]}
        if self.allow_empty_edge:
            doc["allow_empty_edge"] = True
        if not self.require_inclusion_free:
            doc["require_inclusion_free"] = False
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Hypergraph":
        try:
            n = doc["n"]
            edges = doc["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed hypergraph document: {exc}") from exc
        if type(n) is not int:
            kind = type(n).__name__
            raise ValueError(f"malformed hypergraph document: n must be an integer, not {kind}")
        if not isinstance(edges, list):
            kind = type(edges).__name__
            raise ValueError(f"malformed hypergraph document: edges must be a list, not {kind}")
        flags = {
            "allow_empty_edge": doc.get("allow_empty_edge", False),
            "require_inclusion_free": doc.get("require_inclusion_free", True),
        }
        for name, value in flags.items():
            if type(value) is not bool:
                kind = type(value).__name__
                raise ValueError(f"malformed hypergraph document: {name} must be boolean, not {kind}")
        for e in edges:
            if not isinstance(e, list) or not all(type(v) is int for v in e):
                raise ValueError(
                    f"malformed hypergraph document: edge {e!r} is not a list of integers"
                )
        return cls.from_edges(n, edges, **flags)


def is_inclusion_free(H: Hypergraph) -> bool:
    """True iff no edge is a strict subset of another edge."""
    for a, b in itertools.combinations(H.edges, 2):
        inter = a & b
        if inter == a or inter == b:
            return False
    return True


def is_linear(H: Hypergraph) -> bool:
    """True iff every pair of distinct edges meets in at most one vertex."""
    return all((a & b).bit_count() <= 1 for a, b in itertools.combinations(H.edges, 2))


def is_connected(H: Hypergraph) -> bool:
    """Connectivity over the 'share an edge' vertex graph.

    Degree-zero vertices count as separate components, so any uncovered
    vertex makes the hypergraph disconnected.  The vertices reached from
    the first nonempty edge grow by every edge they meet until none adds a
    vertex.
    """
    reached, before = next((e for e in H.edges if e), 0), -1
    while reached != before:
        before = reached
        for e in H.edges:
            if e & reached:
                reached |= e
    return reached == (1 << H.n) - 1


def min_degree(H: Hypergraph) -> int:
    return min((H.degree(v) for v in range(1, H.n + 1)), default=0)


def singleton_hypergraph(n: int) -> Hypergraph:
    """The hypergraph with the n singleton edges {1}, ..., {n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Hypergraph(n, tuple(1 << i for i in range(n)))


def complement_singleton_hypergraph(n: int) -> Hypergraph:
    """The n edges {1..n} - {i}, each of cardinality n - 1."""
    if n < 2:
        raise ValueError("n must be >= 2 (edges would be empty)")
    full = (1 << n) - 1
    return Hypergraph(n, tuple(full ^ (1 << i) for i in range(n)))


def power_set_hypergraph(n: int) -> Hypergraph:
    """All 2^n subsets of {1..n} including the empty edge."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 1 << n > _POWER_SET_EDGES:
        raise BudgetExceededError(f"2^{n} edges exceeds budget {_POWER_SET_EDGES}")
    return Hypergraph(
        n,
        tuple(range(1 << n)),
        allow_empty_edge=True,
        require_inclusion_free=False,
    )


def remove_vertex(H: Hypergraph, v: int) -> Hypergraph:
    """Induced subhypergraph on {1..n} - {v}: keeps edges avoiding ``v``.

    Vertices above ``v`` are relabeled down by one.
    """
    if not 1 <= v <= H.n:
        raise ValueError(f"vertex {v} out of range 1..{H.n}")
    if H.n == 1:
        raise ValueError("cannot remove the only vertex")
    bit = 1 << (v - 1)
    low = bit - 1
    kept = []
    for e in H.edges:
        if e & bit:
            continue
        kept.append((e & low) | ((e >> 1) & ~low))
    return Hypergraph(H.n - 1, tuple(kept), H.allow_empty_edge, H.require_inclusion_free)


def disjoint_union(H1: Hypergraph, H2: Hypergraph) -> Hypergraph:
    """Place H2 on fresh vertices n1+1..n1+n2 and take the edge union."""
    if 0 in H1.edges and 0 in H2.edges:
        raise ValueError("both operands contain the empty edge; union would collapse them")
    shifted = tuple(e << H1.n for e in H2.edges)
    return Hypergraph(
        H1.n + H2.n,
        H1.edges + shifted,
        H1.allow_empty_edge or H2.allow_empty_edge,
        H1.require_inclusion_free and H2.require_inclusion_free,
    )


def one_degenerate_order(H: Hypergraph) -> Optional[tuple[int, ...]]:
    """A vertex order v1..vn where each vi has degree <= 1 among the edges
    contained in {vi..vn}, or None if no such order exists.

    Greedy elimination is complete here: dropping a vertex only removes
    edges, so degrees in later induced subhypergraphs never grow.
    """
    remaining_mask = (1 << H.n) - 1
    remaining = list(range(1, H.n + 1))
    order = []
    while remaining:
        inside = [e for e in H.edges if e & ~remaining_mask == 0]
        chosen = None
        for v in remaining:
            bit = 1 << (v - 1)
            if sum(1 for e in inside if e & bit) <= 1:
                chosen = v
                break
        if chosen is None:
            return None
        order.append(chosen)
        remaining.remove(chosen)
        remaining_mask ^= 1 << (chosen - 1)
    return tuple(order)


def enumerate_hypergraphs(n: int, *, prune: bool = False) -> Iterator[Hypergraph]:
    """Yield every inclusion-free hypergraph on n vertices, each exactly
    once, in a deterministic order (depth-first over the canonical
    candidate-edge order, empty edge set first).  Edges are nonempty.

    ``prune`` yields only the connected ones with minimum degree at least
    two, the shape any minimal counterexample must have.  The walk visits
    the D(n) - 1 antichains of nonempty sets (Dedekind numbers), pruned or
    not, so one of more than _MAX_COUNT is refused with
    BudgetExceededError before its first visit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if _DEDEKIND[min(n, len(_DEDEKIND) - 1)] - 1 > _MAX_COUNT:
        raise BudgetExceededError(f"enumeration exceeds budget {_MAX_COUNT}")
    candidates = sorted(range(1, 1 << n), key=edge_vertices)
    chosen: list[int] = []

    def compatible(e: int) -> bool:
        for other in chosen:
            inter = e & other
            if inter == e or inter == other:
                return False
        return True

    # Recursive DFS over candidate indices: each call extends the chosen
    # edges by compatible candidates from `start` on.  Preorder emission
    # keeps the stream ordering independent of ``prune``.
    def walk(start: int) -> Iterator[Hypergraph]:
        H = Hypergraph(n, tuple(chosen))
        if not prune or (is_connected(H) and min_degree(H) >= 2):
            yield H
        for k in range(start, len(candidates)):
            e = candidates[k]
            if compatible(e):
                chosen.append(e)
                yield from walk(k + 1)
                chosen.pop()

    yield from walk(0)


def random_hypergraph(
    n: int,
    max_edges: int,
    rng,
    *,
    inclusion_free: bool = True,
    allow_empty_edge: bool = False,
) -> Hypergraph:
    """Seeded random hypergraph with at most ``max_edges`` edges.

    Candidate edges are drawn in a random order and taken greedily while
    they respect the inclusion-free constraint, so the result may have
    fewer than ``max_edges`` edges.  ``rng`` is a numpy Generator.
    """
    lo = 0 if allow_empty_edge else 1
    candidates = list(range(lo, 1 << n))
    order = rng.permutation(len(candidates))
    chosen: list[int] = []
    for idx in order:
        if len(chosen) >= max_edges:
            break
        e = candidates[int(idx)]
        if inclusion_free and any(
            (e & o) == e or (e & o) == o for o in chosen
        ):
            continue
        chosen.append(e)
    return Hypergraph(
        n,
        tuple(chosen),
        allow_empty_edge=allow_empty_edge,
        require_inclusion_free=inclusion_free,
    )


def random_uniform_hypergraph(n: int, r: int, m: int, rng) -> Hypergraph:
    """Seeded random r-uniform hypergraph with exactly m distinct edges."""
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}")
    candidates = sorted(
        (edge_mask(c, n) for c in itertools.combinations(range(1, n + 1), r)),
        key=edge_vertices,
    )
    if m > len(candidates):
        raise ValueError(f"only {len(candidates)} distinct {r}-edges exist on {n} vertices")
    picked = rng.choice(len(candidates), size=m, replace=False)
    return Hypergraph(n, tuple(candidates[int(i)] for i in picked))
