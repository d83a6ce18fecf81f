"""The bipartite witness graphs, built from verified descents to isolating
weights, and exact checkers for the vertex-removal / disjoint-union
counting inequalities.  The Ta-Shma injection lives in ``zero_weight``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .counting import DEFAULT_BUDGET, _classify_rows, _plan, count_isolating, count_layer1
from .errors import BudgetExceededError
from .hypergraph import (
    Hypergraph,
    disjoint_union,
    edge_vertices,
    is_inclusion_free,
    is_linear,
    remove_vertex,
)
from .weights import Objective


def _require_inclusion_free(H: Hypergraph) -> None:
    if not is_inclusion_free(H):
        raise ValueError("construction requires an inclusion-free hypergraph")


def _assert_isolates(
    H: Hypergraph, f: Objective, W: np.ndarray, edges: np.ndarray, what: str
) -> None:
    """Check in one batch that each row of W isolates the edge of the same
    index in ``edges``; name the first row that does not."""
    iso, at_min = _classify_rows(H, f, W)
    bad = ~(iso & at_min[np.arange(W.shape[0]), edges])
    if bad.any():
        k = int(bad.argmax())
        raise AssertionError(
            f"{what} failed to isolate edge {edge_vertices(H.edges[edges[k]])}"
            f" at weight {tuple(W[k].tolist())}"
        )


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


def _left_nodes(n: int, M: int) -> list[tuple[int, ...]]:
    """Weights with exactly one entry 1, in (position, remainder) order."""
    rests = list(itertools.product(range(2, M + 1), repeat=n - 1))
    return [rest[:pos] + (1,) + rest[pos:] for pos in range(n) for rest in rests]


def _assemble(left: list[tuple[int, ...]], targets: np.ndarray, two: np.ndarray) -> WitnessGraph:
    """Number the targets, shape (left, 2, n), in order of first appearance.
    Left node k is charged to its first target, and to its second when
    ``two[k]``; coincident targets merge into one simple edge.  The charge
    of a left node is 1/a for one neighbour of degree a, (a + b)/(ab) for
    two."""
    two = two & (targets[:, 0] != targets[:, 1]).any(axis=1)
    right_index: dict[tuple[int, ...], int] = {}
    used = targets[np.stack([np.ones_like(two), two], axis=1)]
    ids = [right_index.setdefault(t, len(right_index)) for t in map(tuple, used.tolist())]
    deg = [0] * len(right_index)
    for u in ids:
        deg[u] += 1
    it = iter(ids)
    adjacency = tuple((next(it), next(it)) if pair else (next(it),) for pair in two.tolist())
    keys = [tuple(map(deg.__getitem__, nbrs)) for nbrs in adjacency]
    charge = {
        k: Fraction(1, k[0]) if len(k) == 1 else Fraction(k[0] + k[1], k[0] * k[1])
        for k in set(keys)
    }
    charges = tuple(map(charge.__getitem__, keys))
    return WitnessGraph(tuple(left), tuple(right_index), adjacency, charges)


def _pivot_step(edge_rows: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """The vertices a pivot descent lowers: the charged edge minus the pivot."""
    return edge_rows & (np.arange(edge_rows.shape[1]) != pivot[:, None])


def _next_vertex_step(edge_rows: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """The vertex a next-vertex descent lowers, as a one-hot row: the
    smallest vertex of the charged edge after the pivot, else its smallest
    vertex."""
    after = edge_rows & (np.arange(edge_rows.shape[1]) > pivot[:, None])
    j = np.where(after.any(axis=1), after.argmax(axis=1), edge_rows.argmax(axis=1))
    return np.arange(edge_rows.shape[1]) == j[:, None]


def _witness(
    H: Hypergraph,
    M: int,
    f: Objective,
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    what: str,
) -> WitnessGraph:
    """Charge each left node w, whose unique 1 sits at the pivot i: if some
    min-weight edge avoids i, to the descent along the first such edge;
    otherwise to w itself (when already isolating) and the descent
    ``step`` along the first min-weight edge, or to the descents along the
    first two min-weight edges.  ``step`` maps the charged edges' membership
    rows and the pivots to the vertices a descent lowers.  Every descent is
    verified to isolate its edge, in one batch."""
    lefts = _left_nodes(H.n, M)
    left = np.array(lefts, dtype=np.int64)
    targets = np.stack([left, left], axis=1)
    if not H.edges:
        return _assemble(lefts, targets, np.zeros(len(lefts), dtype=bool))
    pivot = (left == 1).argmax(axis=1)
    iso, at_min = _classify_rows(H, f, left)
    members = _plan((H,)).members.T.astype(bool)
    avoiding = at_min & ~members[:, pivot].T
    free = avoiding.any(axis=1)
    targets[free, 0] -= members[avoiding[free].argmax(axis=1)]
    # the other nodes take descents: slot 1 along the first min edge when w
    # is isolating, else along the second; slot 0 along the first when not
    first = at_min.argmax(axis=1)
    second = (at_min & (np.arange(H.m) > first[:, None])).argmax(axis=1)
    slot1 = np.flatnonzero(~free)
    slot0 = np.flatnonzero(~free & ~iso)
    rows = np.concatenate([slot1, slot0])
    edges = np.concatenate([np.where(iso, first, second)[slot1], first[slot0]])
    out = left[rows] - step(members[edges], pivot[rows])
    _assert_isolates(H, f, out, edges, what)
    targets[slot1, 1] = out[: slot1.size]
    targets[slot0, 0] = out[slot1.size :]
    return _assemble(lefts, targets, ~free)


def _require_witness(H: Hypergraph, M: int, f: Objective, budget: int) -> None:
    if M < 2:
        raise ValueError("witness graph requires M >= 2")
    if f.M != M:
        raise ValueError(f"objective range {f.M} does not match M={M}")
    _require_inclusion_free(H)
    left_nodes = H.n * (M - 1) ** (H.n - 1)
    if left_nodes > budget:
        raise BudgetExceededError(f"{left_nodes} left nodes exceed budget {budget}")


def build_witness_graph_A(
    H: Hypergraph, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> WitnessGraph:
    """The general witness graph.

    For a left node w whose unique 1 sits at vertex i: if some min-weight
    edge avoids i, charge the descent along the lexicographically smallest
    such edge; otherwise charge w itself (when already isolating) plus the
    pivot descent, or the pivot descents along the two lexicographically
    smallest min-weight edges.  Coincident targets merge into one simple
    edge.  Refuses more than ``budget`` left nodes, n (M-1)^(n-1), before
    building any.
    """
    _require_witness(H, M, f, budget)
    return _witness(H, M, f, _pivot_step, "pivot descent")


def build_witness_graph_B(
    H: Hypergraph, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> WitnessGraph:
    """The witness graph for linear hypergraphs whose edges all have
    cardinality at least two; pivot descents are replaced by single-vertex
    descents at the next vertex of the charged edge.  Refuses more than
    ``budget`` left nodes, as A does.
    """
    _require_witness(H, M, f, budget)
    if not is_linear(H):
        raise ValueError("witness graph B requires a linear hypergraph")
    if any(e.bit_count() < 2 for e in H.edges):
        raise ValueError("witness graph B requires every edge cardinality >= 2")
    return _witness(H, M, f, _next_vertex_step, "next-vertex descent")


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


def check_degree_zero_reduction(
    H: Hypergraph, v: int, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> ReductionCheck:
    """|Z_1(H)| >= M |Z_1(H-v)| + sum_{j>=2} |Z_j(H-v)| for degree-0 v."""
    if H.degree(v) != 0:
        raise ValueError(f"vertex {v} has degree {H.degree(v)}, expected 0")
    sub = count_isolating(remove_vertex(H, v), M, f, budget=budget)
    lhs = count_layer1(H, M, f, budget=budget)
    upper_layers = sum(sub.per_layer[1:])
    rhs = M * sub.layer1 + upper_layers
    return ReductionCheck(
        name="degree_zero_reduction",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        parts=(("Z1_sub", sub.layer1), ("upper_layers_sub", upper_layers)),
    )


def check_degree_one_reduction(
    H: Hypergraph, v: int, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> ReductionCheck:
    """|Z_1(H)| >= (M-1) |Z_1(H-v)| + (M-1)^(n-1) for degree-1 v."""
    if H.degree(v) != 1:
        raise ValueError(f"vertex {v} has degree {H.degree(v)}, expected 1")
    sub_layer1 = count_layer1(remove_vertex(H, v), M, f, budget=budget)
    lhs = count_layer1(H, M, f, budget=budget)
    rhs = (M - 1) * sub_layer1 + (M - 1) ** (H.n - 1)
    return ReductionCheck(
        name="degree_one_reduction",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        parts=(("Z1_sub", sub_layer1),),
    )


def check_disjoint_union_reduction(
    H1: Hypergraph, H2: Hypergraph, M: int, f: Objective, *, budget: int = DEFAULT_BUDGET
) -> ReductionCheck:
    """|Z_1(H1 + H2)| >= (M-1)^n2 |Z_1(H1)| + (M-1)^n1 |Z_1(H2)|."""
    union = disjoint_union(H1, H2)
    lhs = count_layer1(union, M, f, budget=budget)
    z1_a = count_layer1(H1, M, f, budget=budget)
    z1_b = count_layer1(H2, M, f, budget=budget)
    rhs = (M - 1) ** H2.n * z1_a + (M - 1) ** H1.n * z1_b
    return ReductionCheck(
        name="disjoint_union_reduction",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        parts=(("Z1_H1", z1_a), ("Z1_H2", z1_b)),
    )
