"""The bipartite witness graphs, built from verified descents to isolating
weights, and exact checkers for the vertex-removal / disjoint-union
counting inequalities.  The Ta-Shma injection lives in ``zero_weight``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .counting import (
    _classify,
    _decode_rows,
    _rank_rows,
    _single,
    _stacked_sums,
    count_isolating,
    count_layer1,
)
from .hypergraph import (
    Hypergraph,
    disjoint_union,
    is_inclusion_free,
    is_linear,
    remove_vertex,
)
from .weights import Objective


def _assert_isolates(
    tables: np.ndarray,
    members: np.ndarray,
    W: np.ndarray,
    edges: np.ndarray,
    need: np.ndarray,
    what: str,
) -> np.ndarray:
    """Check in one batch that each row of W, shape (graphs, rows, n), where
    ``need`` holds isolates the edge of the same index in ``edges``
    (graphs, rows) of its hypergraph in the stack ``members``, under its
    row of the value tables ``tables`` (see ``_stacked_sums``); name the
    first row, in stack order, that does not.  ``verify`` builds the
    stacks of one M edge-count group by edge-count group, each stack
    objective by objective, then hypergraph by hypergraph, so the row it
    names is the first failing one in that order.  Returns the isolating
    mask of every row of W, (graphs, rows)."""
    iso, at_min = _classify(_stacked_sums(tables, members, W), members.shape[2])
    hit = np.take_along_axis(at_min, edges[:, None, :], axis=1)[:, 0]
    bad = need & ~(iso & hit)
    if bad.any():
        g, k = np.unravel_index(bad.argmax(), bad.shape)
        edge = tuple((np.flatnonzero(members[g, edges[g, k]]) + 1).tolist())
        raise AssertionError(
            f"{what} failed to isolate edge {edge} at weight {tuple(W[g, k].tolist())}"
        )
    return iso


# ---------------------------------------------------------------------------
# Witness graphs


@dataclass(frozen=True)
class WitnessGraph:
    """Bipartite counting gadget: left nodes are the weights with exactly
    one entry equal to 1; right nodes are the isolating weights they were
    charged to.  ``adjacency[k]`` lists right indices adjacent to left
    node k (coincident targets merged), and ``charges[k]`` is
    R(w) = sum over neighbors u of 1/deg(u).
    """

    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]
    charges: tuple[Fraction, ...]

    def total_charge(self) -> Fraction:
        den = math.lcm(*(c.denominator for c in self.charges))
        return Fraction(sum(c.numerator * (den // c.denominator) for c in self.charges), den)


@functools.lru_cache(maxsize=64)
def _left_nodes(n: int, M: int) -> np.ndarray:
    """Weights with exactly one entry 1, in (position, remainder) order, as
    a read-only array of shape (n (M-1)^(n-1), n), in the narrowest signed
    integer type that holds M: the descents and their targets keep it, so
    a stack of many (objective, hypergraph) pairs holds them in a fraction
    of int64's memory."""
    narrow = next(t for t in (np.int8, np.int16, np.int32, np.int64) if M <= np.iinfo(t).max)
    rests = _decode_rows(n - 1, M - 1) + 1
    left = np.concatenate([np.insert(rests, pos, 1, axis=1) for pos in range(n)]).astype(narrow)
    left.flags.writeable = False
    return left


class _Witnesses(NamedTuple):
    """The witness graphs of a stack of hypergraphs with one edge count, on
    their shared left nodes.  ``targets`` (graphs, left nodes, 2, n) holds
    each left node's targets, the second one charged only where ``two``,
    ``isolating`` which of them isolate, and ``ids`` their right-node
    numbers, the second equal to the first unless ``two``.  The right
    nodes are each graph's distinct charged targets, graph by graph in
    order of first appearance: ``first`` is the flat index of each in
    ``targets``' rows, ``degree`` its degree.  ``classified`` is the left
    nodes' (isolating mask, edges at the minimum) as ``_classify`` gives
    them."""

    left: np.ndarray
    targets: np.ndarray
    isolating: np.ndarray
    two: np.ndarray
    ids: np.ndarray
    first: np.ndarray
    degree: np.ndarray
    classified: tuple[np.ndarray, np.ndarray]

    @property
    def right(self) -> np.ndarray:
        return self.targets.reshape(-1, self.left.shape[1])[self.first]

    @property
    def owner(self) -> np.ndarray:
        """The graph of each right node."""
        return self.first // (2 * self.left.shape[0])

    def shares(self) -> tuple[np.ndarray, int]:
        """Each left node's charge R(w) as an integer share of one
        denominator: (numerators (graphs, left nodes), den).  ``den`` is the
        lcm of the right nodes' degrees and a right node's share is den //
        degree; the numerators are Python integers, exact at any den."""
        den = math.lcm(*set(self.degree.tolist()))
        share = np.array([den // d for d in self.degree.tolist()], dtype=object)
        return share[self.ids[..., 0]] + np.where(self.two, share[self.ids[..., 1]], 0), den

    def charges(self) -> tuple[list[Fraction], list[Fraction]]:
        """The total and the least charge of each graph."""
        num, den = self.shares()
        sums, mins = num.sum(axis=1).tolist(), num.min(axis=1).tolist()
        return [Fraction(t, den) for t in sums], [Fraction(t, den) for t in mins]


def _pivot_step(edge_rows: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """The vertices a pivot descent lowers: the charged edge minus the pivot."""
    return edge_rows & (np.arange(edge_rows.shape[-1]) != pivot[:, None])


def _next_vertex_step(edge_rows: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """The vertex a next-vertex descent lowers, as a one-hot row: the
    smallest vertex of the charged edge after the pivot, else its smallest
    vertex."""
    vertices = np.arange(edge_rows.shape[-1])
    after = edge_rows & (vertices > pivot[:, None])
    j = np.where(after.any(axis=-1), after.argmax(axis=-1), edge_rows.argmax(axis=-1))
    return vertices == j[..., None]


def _witnesses(
    members: np.ndarray,
    M: int,
    tables: np.ndarray,
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    what: str,
    classified: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> _Witnesses:
    """Charge each left node w, whose unique 1 sits at the pivot i, in each
    hypergraph of the stack ``members`` (graphs, m, n), under its row of
    the value tables ``tables`` (see ``_stacked_sums``): if some min-weight
    edge avoids i, to the descent along the first such edge; otherwise to
    w itself (when already isolating) and the descent ``step`` along the
    first min-weight edge, or to the descents along the first two
    min-weight edges.  ``step`` maps the charged edges' membership rows
    (graphs, left nodes, n) and the pivots to the vertices a descent
    lowers.  ``classified``, when given, is the left nodes' classification
    from another graph on the same stack, which is not redone.  Every
    target is classified once, in one batch, which verifies that each
    descent isolates its edge; coincident targets merge into one simple
    edge."""
    c, m, n = members.shape
    left = _left_nodes(n, M)
    targets = np.broadcast_to(left[:, None], (c, left.shape[0], 2, n))
    two = np.zeros((c, left.shape[0]), dtype=bool)
    isolating = np.ones(two.shape + (2,), dtype=bool)
    if classified is None:
        classified = _classify(_stacked_sums(tables, members, left), n)
    if m:
        pivot = (left == 1).argmax(axis=1)
        iso, at_min = classified[0], classified[1].swapaxes(1, 2)
        edge = members.astype(bool)
        avoiding = at_min & ~edge[:, :, pivot].swapaxes(1, 2)
        free = avoiding.any(axis=2)
        first = at_min.argmax(axis=2)
        second = (at_min & (np.arange(m) > first[..., None])).argmax(axis=2)
        g = np.arange(c)[:, None]
        down = [left - step(edge[g, e], pivot) for e in (first, second)]
        # slot 1 takes the descent along the first min edge when w is
        # isolating, else along the second; slot 0 along the first when not
        solo = iso[..., None]
        avoided = left - edge[g, avoiding.argmax(axis=2)]
        slot0 = np.where(free[..., None], avoided, np.where(solo, left, down[0]))
        slot1 = np.where(free[..., None], left, np.where(solo, *down))
        targets = np.stack([slot0, slot1], axis=2)
        isolating = _assert_isolates(
            tables,
            members,
            targets.reshape(c, -1, n),
            np.stack([first, np.where(iso, first, second)], axis=2).reshape(c, -1),
            np.stack([~free & ~iso, ~free], axis=2).reshape(c, -1),
            what,
        ).reshape(isolating.shape)
        two = ~free & (slot0 != slot1).any(axis=2)
    used = np.stack([np.ones_like(two), two], axis=2)
    keys = _rank_rows(targets, M)[used]
    _, seen, inverse, degree = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(seen)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    ids = np.empty(used.shape, dtype=np.intp)
    ids[used] = number[inverse]
    ids[..., 1] = np.where(two, ids[..., 1], ids[..., 0])
    return _Witnesses(
        left=left,
        targets=targets,
        isolating=isolating,
        two=two,
        ids=ids,
        first=np.flatnonzero(used)[seen[order]],
        degree=degree[order],
        classified=classified,
    )


def _graph(W: _Witnesses) -> WitnessGraph:
    """The witness graph of a stack of one."""
    num, den = W.shares()
    shares = num[0].tolist()
    charge = {k: Fraction(k, den) for k in set(shares)}
    adjacency = tuple(
        (a, b) if pair else (a,) for (a, b), pair in zip(W.ids[0].tolist(), W.two[0].tolist())
    )
    return WitnessGraph(
        left=tuple(map(tuple, W.left.tolist())),
        right=tuple(map(tuple, W.right.tolist())),
        adjacency=adjacency,
        charges=tuple(map(charge.__getitem__, shares)),
    )


def _require_witness(H: Hypergraph, M: int, f: Objective) -> tuple[np.ndarray, np.ndarray]:
    """Refuse before any work, through ``_single`` at the end; then H and f
    as a stack of one."""
    if M < 2:
        raise ValueError("witness graph requires M >= 2")
    if not is_inclusion_free(H):
        raise ValueError("construction requires an inclusion-free hypergraph")
    return _single(H, M, f)


def build_witness_graph_A(H: Hypergraph, M: int, f: Objective) -> WitnessGraph:
    """The general witness graph.

    For a left node w whose unique 1 sits at vertex i: if some min-weight
    edge avoids i, charge the descent along the lexicographically smallest
    such edge; otherwise charge w itself (when already isolating) plus the
    pivot descent, or the pivot descents along the two lexicographically
    smallest min-weight edges.  Coincident targets merge into one simple
    edge.  Refuses, before building any left node, an (H, M) whose
    construction stack ``verify`` refuses (``counting._check_stack``).
    """
    members, tables = _require_witness(H, M, f)
    return _graph(_witnesses(members, M, tables, _pivot_step, "pivot descent"))


def build_witness_graph_B(H: Hypergraph, M: int, f: Objective) -> WitnessGraph:
    """The witness graph for linear hypergraphs whose edges all have
    cardinality at least two; pivot descents are replaced by single-vertex
    descents at the next vertex of the charged edge.  Refuses what A
    refuses, before building any left node.
    """
    members, tables = _require_witness(H, M, f)
    if not is_linear(H):
        raise ValueError("witness graph B requires a linear hypergraph")
    if any(e.bit_count() < 2 for e in H.edges):
        raise ValueError("witness graph B requires every edge cardinality >= 2")
    return _graph(_witnesses(members, M, tables, _next_vertex_step, "next-vertex descent"))


# ---------------------------------------------------------------------------
# Vertex-removal and disjoint-union inequalities


@dataclass(frozen=True)
class ReductionCheck:
    """Both sides of one counting inequality, so violations are diagnosable."""

    name: str
    lhs: int
    rhs: int
    holds: bool
    parts: tuple[tuple[str, int], ...]

    def __bool__(self) -> bool:
        return self.holds


def check_degree_zero_reduction(H: Hypergraph, v: int, M: int, f: Objective) -> ReductionCheck:
    """|Z_1(H)| >= M |Z_1(H-v)| + sum_{j>=2} |Z_j(H-v)| for degree-0 v."""
    if H.degree(v) != 0:
        raise ValueError(f"vertex {v} has degree {H.degree(v)}, expected 0")
    # H's scan first: its M^n - (M-1)^n rows outnumber H-v's M^(n-1), so an
    # instance over budget is refused before any count
    lhs = count_layer1(H, M, f)
    sub = count_isolating(remove_vertex(H, v), M, f)
    upper_layers = sum(sub.per_layer[1:])
    rhs = M * sub.layer1 + upper_layers
    return ReductionCheck(
        name="degree_zero_reduction",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        parts=(("Z1_sub", sub.layer1), ("upper_layers_sub", upper_layers)),
    )


def check_degree_one_reduction(H: Hypergraph, v: int, M: int, f: Objective) -> ReductionCheck:
    """|Z_1(H)| >= (M-1) |Z_1(H-v)| + (M-1)^(n-1) for degree-1 v."""
    if H.degree(v) != 1:
        raise ValueError(f"vertex {v} has degree {H.degree(v)}, expected 1")
    lhs = count_layer1(H, M, f)  # the larger scan first, as above
    sub_layer1 = count_layer1(remove_vertex(H, v), M, f)
    rhs = (M - 1) * sub_layer1 + (M - 1) ** (H.n - 1)
    return ReductionCheck(
        name="degree_one_reduction",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        parts=(("Z1_sub", sub_layer1),),
    )


def check_disjoint_union_reduction(
    H1: Hypergraph, H2: Hypergraph, M: int, f: Objective
) -> ReductionCheck:
    """|Z_1(H1 + H2)| >= (M-1)^n2 |Z_1(H1)| + (M-1)^n1 |Z_1(H2)|."""
    union = disjoint_union(H1, H2)
    lhs = count_layer1(union, M, f)
    z1_a = count_layer1(H1, M, f)
    z1_b = count_layer1(H2, M, f)
    rhs = (M - 1) ** H2.n * z1_a + (M - 1) ** H1.n * z1_b
    return ReductionCheck(
        name="disjoint_union_reduction",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        parts=(("Z1_H1", z1_a), ("Z1_H2", z1_b)),
    )
