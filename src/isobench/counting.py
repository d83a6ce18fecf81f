"""Exact brute-force counts of isolating weight vectors.

Every row of [M]^n (for ``count_layer1``, every row with some entry 1) is
classified, in exact integers: edge weights use the objective's
denominator-cleared values, summed in the narrowest of int16, int32 and
int64 that holds n times the largest value, or from 2^62 on in int64
limbs, digits in base 2^b with b = 62 - n.bit_length() (``_table``): a sum
of n digits stays below n 2^b < 2^62, so a limb plus the carry
``_classify`` adds to it stays below 2^63, and ties are detected exactly.
A row isolates when exactly one edge is at its minimum, counted in bytes
below 256 edges.

One generator, ``_blocks``, walks [M]^n for a tuple of hypergraphs on the
same n under a stack of objectives, their value tables of one dtype and
one number of limbs on an axis after the limbs.  It splits the coordinates
into a prefix and a suffix of length k (meet-in-the-middle, after Horowitz
and Sahni 1974): each distinct edge's weight is summed once per suffix and
once per prefix, and a block of rows is one broadcast addition of the two.
Both sides come from one cached table per length, sorted by row minimum,
so every scan is a set of index ranges over the two tables: a block's rows
with minimum at least j are one rectangle, the layer counts are flat
counts over rectangles with no per-row layer, and the rows with some entry
1 are two spans of the same edge sums.  One hypergraph is classified in
place; a batch is classified group by group, the hypergraphs with the same
number of edges gathered into one array.  Three reducers sum its blocks:
``count_isolating`` (per layer and per edge, with the sorted prefixes
optionally cut into ranges across worker processes) and ``count_layer1``
(the rows with some entry 1 only), each on a stack of one objective, and
the sweeps' ``_count_many`` (|Z| and |Z_1| of every hypergraph of a walk
under every objective of one M, in stacks of one dtype and one number of
limbs, handed back one stack at a time).  Explicit weight rows (the
constructions' weights, the samplers' draws) go through the same classify
step, and the samplers' draws through the same edge sums.

Edge sums need no multiplication, and take two steps that the scans and
the samplers share: ``_gather`` takes a side's (or a batch of draws')
values once, vertex-major, over a zero padding row, under each limb of
each table of a stack (or the samplers' one table), and ``_slot_sums``
adds, for each edge, the rows of its vertices, in the tables' dtype.
Where most draws are on layer 1 and the table is one limb, ``sample
--layer1`` reads acceptance from a whole gathered batch: a row holds a 1
exactly when its least value is the table's value of label 1, the table's
unique least value.  The constructions' stacks of hypergraphs
(``_stacked_sums``) keep a matmul: on at most 5 vertices one matmul costs
fewer numpy calls than a gather through slots offset per hypergraph, which
made ``verify --n-max 4 --M 2,3`` slower.  Such a stack may mix objectives
of one M: each hypergraph reads its own column of a stack of value tables,
padded to one number of limbs (``_tables``).

The grid that ``search`` and ``verify`` sweep, ``_grid``, is here too,
next to the refusal it applies to each scan before any objective is built.
It hands out one ``_Walk`` per walk: the hypergraphs, their plan, built
once, and the (M, f) listing grouped by M, which the sweeps read off it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .hypergraph import Hypergraph, edge_vertices
from .weights import Objective

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 15  # rows per classified block
_SUFFIX_ROWS = 4096  # bound on M^k for the suffix tables, except k = 1
_GATHER = 1 << 16  # bound on rows times gathered edge columns times objectives times limbs
_STACK_CELLS = 1 << 22  # cells of one (objective, hypergraph) pair's construction stack
# the one-limb edge-sum dtypes and the largest sum each holds
_RUNGS = ((np.int16, (1 << 15) - 1), (np.int32, (1 << 31) - 1), (np.int64, (1 << 62) - 1))


@dataclass(frozen=True)
class CountReport:
    """Exact isolating-weight counts for one (H, M, f) instance.

    ``per_layer[j-1]`` counts isolating weights with minimum entry j;
    ``per_edge`` maps each isolated edge (bitmask) to its count and is
    empty for the empty hypergraph, whose weights are all isolating by
    convention.
    """

    n: int
    M: int
    total: int
    per_layer: tuple[int, ...]
    per_edge: tuple[tuple[int, int], ...]

    @property
    def layer1(self) -> int:
        return self.per_layer[0]

    @property
    def p(self) -> Fraction:
        """|Z| / M^n, the chance that a uniform weight isolates."""
        return Fraction(self.total, self.M**self.n)

    @property
    def q(self) -> Fraction:
        """|Z_1| / (M^n - (M-1)^n), the chance that a uniform weight with
        some entry 1 isolates (1 when there is none)."""
        denom = self.M**self.n - (self.M - 1) ** self.n
        return Fraction(self.layer1, denom) if denom else Fraction(1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "total": self.total,
            "per_layer": list(self.per_layer),
            "per_edge": [
                {"edge": list(edge_vertices(e)), "count": c} for e, c in self.per_edge
            ],
        }


class _Plan(NamedTuple):
    """``members``: the read-only (n, edges) 0/1 matrix of a tuple's distinct
    edges in first-seen order (so (H,) keeps H's order), [v - 1, t] = 1 when
    vertex v is in edge t; ``slots``: the same edges as the read-only
    (edges, width) lists of their vertices (0-based), padded with n up to
    the largest edge, the edge sums' gather index.  ``groups``: (positions
    in the tuple, edge columns of shape (hypergraphs, m)) per edge count
    m, the empty hypergraphs too."""

    members: np.ndarray
    slots: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]


def _build_plan(Hs: tuple[Hypergraph, ...]) -> _Plan:
    """The plan of Hs, uncached: a walk's, built once, would only fill ``_plan``'s cache."""
    column = {e: c for c, e in enumerate(dict.fromkeys(e for H in Hs for e in H.edges))}
    n = Hs[0].n
    members = np.array([[e >> v & 1 for e in column] for v in range(n)], dtype=np.int64)
    vertices = [[v for v in range(n) if e >> v & 1] for e in column]
    width = max(map(len, vertices), default=0)
    slots = np.array([vs + [n] * (width - len(vs)) for vs in vertices], dtype=np.intp)
    slots = slots.reshape(len(vertices), width)
    members.flags.writeable = slots.flags.writeable = False
    by_size: dict[int, list[int]] = {}
    for i, H in enumerate(Hs):
        by_size.setdefault(H.m, []).append(i)
    groups = tuple(
        (
            np.array(which, dtype=np.intp),
            np.array([[column[e] for e in Hs[i].edges] for i in which], dtype=np.intp),
        )
        for which in by_size.values()
    )
    return _Plan(members, slots, groups)


# the plan of the single-hypergraph callers, (H,), which repeat it
_plan = functools.lru_cache(maxsize=256)(_build_plan)


def _base(n: int) -> int:
    """Bits per limb on n vertices: n < 2^n.bit_length(), so a sum of n
    digits below 2^b stays below 2^62."""
    return 62 - n.bit_length()


@functools.lru_cache(maxsize=256)
def _value_table(scaled: tuple[int, ...], n: int, limbs: int) -> np.ndarray:
    top = max(scaled)  # the values are nonnegative
    dtype = next((d for d, most in _RUNGS if top * max(n, 1) <= most), None)
    if limbs == 1 and dtype is not None:
        table = np.array([[0, *scaled]], dtype=dtype)
    else:
        b = _base(n)
        limbs = max(limbs, -(-top.bit_length() // b))
        digits = [[v >> (b * i) & ((1 << b) - 1) for v in (0, *scaled)] for i in range(limbs)]
        table = np.array(digits, dtype=np.int64)
    table.flags.writeable = False
    return table


def _table(f: Objective, n: int, limbs: int = 1) -> np.ndarray:
    """The objective's scaled values indexed by label (slot 0 a dummy),
    read-only, as a stack of limbs (limbs, M + 1), low limb first.  One
    limb in the narrowest of int16, int32 and int64 that holds every edge
    sum on n vertices; when such a sum could reach 2^62, or more than one
    limb is asked for, the values' int64 digits in base 2^b (``_base``),
    as many as the largest value needs, or ``limbs``.  Each digit is below
    2^b, so an edge sum of n digits stays below 2^62 in every limb.
    Cached by the values, not by the objective."""
    return _value_table(f.scaled, n, limbs)


def _limbs(table: np.ndarray) -> int:
    """The number of limbs of a value table (see ``_table``) or a stack of them."""
    return len(table)


def _tables(fs: Sequence[Objective], n: int) -> np.ndarray:
    """The value tables of ``fs`` on n vertices stacked on axis 1, (limbs,
    objectives, M + 1), in their common dtype: each with as many limbs as
    the widest, its digits in the one base of n, so that the high limbs it
    gains are exact (zero, or the digits of a one-limb value)."""
    limbs = max(_limbs(_table(f, n)) for f in fs)
    return np.stack([_table(f, n, limbs) for f in fs], axis=1)


def _decode_rows(n: int, M: int) -> np.ndarray:
    """The rows of [M]^n in lexicographic order (first coordinate most
    significant), as an int64 array of shape (M^n, n)."""
    idx = np.arange(M**n, dtype=np.int64)
    cols = np.empty((M**n, n), dtype=np.int64)
    for pos in range(n):
        cols[:, pos] = (idx // M ** (n - 1 - pos)) % M + 1
    return cols


def _rank_rows(rows: np.ndarray, M: int) -> np.ndarray:
    """A key per row of a stack of shape (hypergraphs, ..., n) with entries in
    1..M: the hypergraph's position times M^n plus the row's rank in the
    lexicographic order of [M]^n, the inverse of ``_decode_rows``.  Keys
    are int64, or Python integers when one could overflow int64."""
    n, size = rows.shape[-1], M ** rows.shape[-1]
    dtype = np.int64 if rows.shape[0] * size < 1 << 63 else object
    radix = np.array([M ** (n - 1 - pos) for pos in range(n)], dtype=dtype)
    offset = np.arange(rows.shape[0], dtype=dtype) * size
    return (rows - 1).astype(dtype) @ radix + offset.reshape((-1,) + (1,) * (rows.ndim - 2))


def _classify(sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Isolation of each row of an array of edge weights on n vertices
    with the limbs (see ``_table``) on axis 0, the edges on axis -2 and any
    axes between: shape (limbs, ..., edges, rows), such as ``_blocks``'
    (limbs, objectives, hypergraphs, edges, rows).

    Returns the isolating mask, of the shape of ``sums`` without the limb
    and edge axes, and the mask of edges at the row's minimum, of the shape
    of ``sums`` without the limb axis.  With no edges every row is
    isolating.  With more than one limb, ``sums`` is overwritten: each limb
    is carried once into the next, low to high, leaving digits below 2^b
    under the top limb, and an edge is at the minimum when it is at the
    least top limb and, among the edges still at the minimum, at the least
    digit of each limb below, in turn.  In place, because each fresh array
    of a block's size costs more than the arithmetic on it.
    """
    edges = sums.shape[-2]
    if not edges:
        iso = np.ones(sums.shape[1:-2] + sums.shape[-1:], dtype=bool)
        return iso, np.zeros(sums.shape[1:], dtype=bool)
    if len(sums) == 1:
        at_min = sums[0] == sums[0].min(axis=-2, keepdims=True)
    else:
        b, top = _base(n), sums[-1]
        for low, high in zip(sums[:-1], sums[1:]):  # below 2^62 plus a carry below 2^(63 - b)
            high += low >> b
            low &= (1 << b) - 1
        at_min = top == top.min(axis=-2, keepdims=True)
        for digit in sums[-2::-1]:
            digit += ~at_min * (1 << b)  # the edges off the minimum, above every digit
            at_min &= digit == digit.min(axis=-2, keepdims=True)
    # count the edges at the minimum in bytes, which would wrap at 256 of them
    count = at_min.view(np.uint8).sum(axis=-2, dtype=np.uint8) if edges < 256 else at_min.sum(axis=-2)
    return count == 1, at_min


def _gather(W: np.ndarray, table: np.ndarray, first: int = 0) -> np.ndarray:
    """The values of W's rows, whose coordinates are the vertices first,
    first + 1, ..., gathered once, vertex-major, under each table of a
    stack (limbs, objectives, M + 1), or one table (limbs, M + 1): shape
    (limbs, ..., first + W's columns + 1, rows), in the tables' dtype.  The
    rows of the vertices before W are zero, and so is the last row, the
    padding onto which ``_slot_sums`` clips every index past W.  The gather is a ``take`` in
    W's own order, transposed as it is copied in: indexing with a leading
    Ellipsis, or through ``table.T``, or with W transposed, takes up to
    four times as long on a stack and as much as half again on one
    table."""
    values = np.zeros((*table.shape[:-1], first + W.shape[1] + 1, W.shape[0]), dtype=table.dtype)
    values[..., first:-1, :] = np.swapaxes(table.take(W, axis=-1), -1, -2)
    return values


def _slot_sums(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Weight of each edge of ``slots`` (a plan's vertex lists, padded with
    n) over gathered ``values`` (..., vertices + 1, rows): shape (...,
    edges, rows), in their dtype.  Each edge adds its slots' rows, so no
    value is multiplied by 0 or 1."""
    return np.add.reduce(values.take(slots, axis=-2, mode="clip"), axis=-2, dtype=values.dtype)


def _stacked_sums(tables: np.ndarray, members: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Weight of each edge of a stack of hypergraphs on weight rows, in the
    shape ``_classify`` takes: ``tables`` holds the value tables (see
    ``_table``) of the stack's objectives, (limbs, hypergraphs, M + 1), or
    one (limbs, 1, M + 1) for the whole stack, ``members`` is the
    (hypergraphs, m, n) 0/1 edge membership and W the rows, (hypergraphs,
    rows, n) or one (rows, n) array for the whole stack; the result has
    shape (limbs, hypergraphs, m, rows), in int64.  Each hypergraph reads
    its own table through a flat offset into the stack; a stack of one
    objective reads one table, so rows the stack shares (left nodes, the
    injection's domain, [2]^n) are gathered once, not once per hypergraph.
    The gather is a ``take``, which reads through narrow rows (the int8
    left nodes) about twice as fast as indexing with them."""
    if (tables[:, 1:] != tables[:, :1]).any():
        W = W + (np.arange(tables.shape[1]) * tables.shape[2]).reshape(-1, 1, 1)
    else:
        tables = tables[:, :1]
    values = tables.reshape(len(tables), -1).take(W.reshape(-1, *W.shape[-2:]), axis=1)
    return members @ np.swapaxes(values, -1, -2)


def _suffix_len(n: int, M: int) -> int:
    """Largest k <= n with M^k <= _SUFFIX_ROWS, and at least 1."""
    k = 1
    while k < n and M ** (k + 1) <= _SUFFIX_ROWS:
        k += 1
    return min(k, n)


@functools.lru_cache(maxsize=64)
def _suffix_table(k: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of [M]^k and their minima (M + 1, above every label, when
    k = 0), read-only, sorted by minimum and lexicographic within one: the
    suffixes and the prefixes of every scan."""
    rows = _decode_rows(k, M)
    low = rows.min(axis=1, initial=M + 1)
    order = np.argsort(low, kind="stable")
    rows, low = rows[order], low[order]
    rows.flags.writeable = False
    low.flags.writeable = False
    return rows, low


def _blocks(
    plan: _Plan,
    tables: np.ndarray,
    M: int,
    k: int,
    start: int = 0,
    stop: Optional[int] = None,
    layer1: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Classify the rows of [M]^n whose (n - k)-prefix is at a position in
    [start, stop) of the sorted prefix table, or with ``layer1`` only those
    with some entry 1, for every hypergraph of a tuple Hs (one n), given
    as its plan, under each value table of ``tables``, a stack (limbs,
    objectives, M + 1) of one dtype (see ``_table``).  Yields (positions
    in Hs, isolating mask (objectives, hypergraphs, rows), edges at the
    minimum (objectives, hypergraphs, m, rows), prefix minima, suffix
    minima) per block, a range of prefixes times a range of suffixes, and
    group.  A block's rows are prefix-major
    and both sides are sorted by minimum, so the rows with minimum at least
    j form one rectangle: the prefixes and the suffixes with minimum at
    least j.  For the same reason the rows with some entry 1 are two index
    ranges: the prefixes holding a 1 times every suffix, and the other
    prefixes times the suffixes holding a 1.  Blocks hold at most _CHUNK
    rows, and for a batch at most _GATHER rows times edges times objectives
    times limbs."""
    n = plan.members.shape[0]
    p = n - k
    single = len(plan.groups) == 1 and plan.groups[0][0].size == 1
    prefix, prefix_low = (side[start:stop] for side in _suffix_table(p, M))
    suffix, suffix_low = _suffix_table(k, M)
    pre_sums = _slot_sums(_gather(prefix, tables), plan.slots)
    suf_sums = _slot_sums(_gather(suffix, tables, p), plan.slots)
    spans = [(0, prefix_low.size, suffix_low.size)]  # (first prefix, end, suffixes)
    if layer1:
        one = int(prefix_low.searchsorted(2))
        spans = [(0, one, suffix_low.size), (one, prefix_low.size, int(suffix_low.searchsorted(2)))]
    # a table of L limbs counts L times; no hypergraph has more edges
    stack, edges = tables[..., 0].size, plan.members.shape[1]
    bound = _CHUNK if single else max(1, min(_CHUNK, _GATHER // (stack * max(edges, 1))))
    for first, end, width in spans:
        if not width:  # no suffix holds a 1, as at k = 0
            continue
        step, span = max(1, bound // width), min(width, bound)
        for a, c in itertools.product(range(first, end, step), range(0, width, span)):
            b, d = min(a + step, end), min(c + span, width)
            block = pre_sums[..., a:b, None] + suf_sums[..., None, c:d]
            block = block.reshape(*block.shape[:3], (b - a) * (d - c))
            low = prefix_low[a:b], suffix_low[c:d]
            if single:  # in place, with no gathered copy
                yield (plan.groups[0][0], *_classify(block[:, :, None], n), *low)
                continue
            for which, cols in plan.groups:
                per = max(1, _GATHER // (stack * max(cols.shape[1], 1) * block.shape[-1]))
                for g in range(0, len(which), per):
                    sums = block.take(cols[g : g + per], axis=2)
                    yield (which[g : g + per], *_classify(sums, n), *low)


def _tally(
    H: Hypergraph, f: Objective, M: int, k: int, start: int = 0, stop: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """(per-layer counts indexed by layer, per-edge counts) over the
    prefixes at positions [start, stop) of the sorted prefix table, with
    suffix length k."""
    at_least = [0] * M  # rows with minimum at least j, for j = 1..M
    per_edge = [0] * H.m
    labels = np.arange(1, M + 1)
    blocks = _blocks(_plan((H,)), _table(f, H.n)[:, None], M, k, start, stop)
    for _, iso, at_min, pre_low, suf_low in blocks:
        iso, at_min = iso[0, 0], at_min[0, 0]
        grid = iso.reshape(pre_low.shape[0], suf_low.shape[0])
        corners = zip(pre_low.searchsorted(labels).tolist(), suf_low.searchsorted(labels).tolist())
        at_least = [t + np.count_nonzero(grid[a:, c:]) for t, (a, c) in zip(at_least, corners)]
        per_edge = [t + np.count_nonzero(hit) for t, hit in zip(per_edge, at_min & iso)]
    per_layer = [0] + [a - b for a, b in zip(at_least, at_least[1:] + [0])]
    return np.array(per_layer, dtype=np.int64), np.array(per_edge, dtype=np.int64)


def _check(f: Optional[Objective], M: int, rows: int = 0, budget: int = 0, label: str = "") -> None:
    """Refuse a scan before any work: wrong objective range, or more rows
    than the budget (only that with no objective, before it is built)."""
    if f is not None and f.M != M:
        raise ValueError(f"objective range {f.M} does not match M={M}")
    if rows > budget:
        raise BudgetExceededError(f"{label}{rows} weight evaluations exceed budget {budget}")


class _Walk(NamedTuple):
    """One walk of a grid, as ``search`` and ``verify`` read it:
    ``hypergraphs``, the walk as a tuple (one n); ``plan``, their
    ``_plan``; ``objectives``, the flat (M, f) listing; ``groups``, for
    each M of the listing in order of first appearance, (M, its distinct
    objectives, the positions in the listing of each), so that a repeated
    objective is counted once and read at every listing."""

    hypergraphs: tuple[Hypergraph, ...]
    plan: _Plan
    objectives: tuple[tuple[int, Objective], ...]
    groups: tuple[tuple[int, list[Objective], list[list[int]]], ...]


def _walk(Hs: Iterable[Hypergraph], objectives: Iterable[tuple[int, Objective]]) -> _Walk:
    """The walk of the hypergraphs Hs, one n, under the (M, f) listing
    ``objectives``, its plan built once."""
    Hs, objectives = tuple(Hs), tuple(objectives)
    groups = []
    for M in dict.fromkeys(M for M, _ in objectives):
        listings: dict[Objective, list[int]] = {}
        for j, (M_j, f) in enumerate(objectives):
            if M_j == M:
                listings.setdefault(f, []).append(j)
        groups.append((M, list(listings), list(listings.values())))
    return _Walk(Hs, _build_plan(Hs), objectives, tuple(groups))


def _grid(
    walks: Iterable[Iterable[Hypergraph]],
    M_values: Sequence[int],
    candidates: Callable[[int, int], Sequence[Objective]],
    budget: int,
) -> list[_Walk]:
    """The ``_walk`` of each walk, such as ``enumerate_hypergraphs(n)`` or
    [H], that yields a hypergraph, n read off the first, under [(M, f) for
    M in M_values for f in candidates(M, n)], the candidates of a repeated
    M built once and listed again.  Every walk is started and its scans of
    [M]^n refused over ``budget`` before any objective is built, which at
    a large M takes long, and the walks are materialized last."""
    started = []
    for walk in walks:
        walk = iter(walk)
        first = next(walk, None)
        if first is None:
            continue
        for M in M_values:
            _check(None, M, M**first.n, budget, f"{M}^{first.n} = ")
        started.append((first, walk))
    built = [{M: candidates(M, first.n) for M in dict.fromkeys(M_values)} for first, _ in started]
    return [
        _walk((first, *walk), [(M, f) for M in M_values for f in by_M[M]])
        for (first, walk), by_M in zip(started, built)
    ]


def _stack_cells(n: int, M: int, m: int) -> int:
    """Rows times edges (or vertices, when more) of the construction stack,
    built unchunked, of one hypergraph with m edges on n vertices at M >= 2."""
    rows = max(2 * n * (M - 1) ** (n - 1), (M - 1) ** n, 2**n if M == 2 else 0)
    return rows * max(m, n)


def _check_stack(n: int, M: int, m: int) -> int:
    """The one size rule of the constructions, ``verify``'s and the builders':
    refuse a stack of more than _STACK_CELLS cells, as it reads at call
    time, before any work; else return the stack's cells."""
    cells = _stack_cells(n, M, m)
    if cells > _STACK_CELLS:
        raise BudgetExceededError(
            f"the constructions of one hypergraph on {n} vertices at M = {M}"
            f" stack {cells} cells, more than {_STACK_CELLS}"
        )
    return cells


def _single(H: Hypergraph, M: int, f: Objective) -> tuple[np.ndarray, np.ndarray]:
    """Refuse a single-instance construction before any work, f's range and
    H's stack; then hand the batched cores their stack of one: H's (1, m, n)
    0/1 edge membership, in its edge order, and f's value table (L, 1, M + 1)."""
    _check(f, M)
    _check_stack(H.n, M, H.m)
    return _plan((H,)).members.T[None], _table(f, H.n)[:, None]


def count_isolating(
    H: Hypergraph,
    M: int,
    f: Objective,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> CountReport:
    """Exact |Z(H, M, f)| with per-layer and per-isolated-edge breakdowns,
    by full enumeration of [M]^n; ``budget`` defaults to DEFAULT_BUDGET at call time."""
    _check(f, M, M**H.n, DEFAULT_BUDGET if budget is None else budget, f"{M}^{H.n} = ")
    k = _suffix_len(H.n, M)
    heads = M ** (H.n - k)
    jobs = max(1, min(workers, heads))
    if jobs == 1:
        parts = [_tally(H, f, M, k)]
    else:
        # imported here, off the start-up path of every other run
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # cut the sorted prefix table into balanced ranges, one per worker
        cuts = [heads * i // jobs for i in range(jobs + 1)]
        fixed = map(itertools.repeat, (H, f, M, k))
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            parts = list(pool.map(_tally, *fixed, cuts[:-1], cuts[1:]))
    per_layer, per_edge = (sum(counts).tolist() for counts in zip(*parts))
    return CountReport(
        n=H.n,
        M=M,
        total=sum(per_layer),
        per_layer=tuple(per_layer[1:]),
        per_edge=tuple((e, c) for e, c in zip(H.edges, per_edge) if c),
    )


def count_layer1(H: Hypergraph, M: int, f: Objective) -> int:
    """Exact |Z_1(H, M, f)|, scanning only weights with some entry 1;
    its rows are refused against DEFAULT_BUDGET, as it reads at call time."""
    _check(f, M, M**H.n - (M - 1) ** H.n, DEFAULT_BUDGET)
    blocks = _blocks(_plan((H,)), _table(f, H.n)[:, None], M, _suffix_len(H.n, M), layer1=True)
    return sum(int(np.count_nonzero(iso)) for _, iso, *_ in blocks)


def _count_many(
    walk: _Walk, M: int, fs: Sequence[Objective]
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """|Z| and |Z_1| of every hypergraph of the walk, read through its
    plan, under each objective of ``fs``, one stack of objectives at a
    time: (the stack's positions in ``fs``, and two int64 arrays (stack,
    hypergraphs) in the orders of those positions and of the walk); the
    caller checks the budget.  A stack holds objectives whose tables share
    a dtype and a number of limbs L, so a wide table never widens a narrow
    one's arithmetic, at most _GATHER over (L times distinct edges times
    M^n) of them, or one: a block then holds as many rows per objective as
    a scan of one objective would.  A stack is scanned once it is full, and
    the part-full ones last, so memory is bounded by the stack, not ``fs``."""
    Hs, plan = walk.hypergraphs, walk.plan
    n = Hs[0].n
    size = _GATHER // (max(plan.members.shape[1], 1) * M**n)

    def stacks() -> Iterator[list[tuple[int, np.ndarray]]]:
        pending: dict[tuple[np.dtype, int], list[tuple[int, np.ndarray]]] = {}
        for i, f in enumerate(fs):
            table = _table(f, n)
            key = table.dtype, _limbs(table)
            pending.setdefault(key, []).append((i, table))
            if len(pending[key]) == max(1, size // key[1]):
                yield pending.pop(key)
        yield from pending.values()

    for stack in stacks():
        at, tables = zip(*stack)
        # flat, so that a block's counts land with a one-dimensional index;
        # ``outside`` counts the isolating rows with no entry 1
        total = np.zeros(len(at) * len(Hs), dtype=np.int64)
        outside = np.zeros(len(at) * len(Hs), dtype=np.int64)
        offset = np.arange(len(at))[:, None] * len(Hs)
        blocks = _blocks(plan, np.stack(tables, axis=1), M, _suffix_len(n, M))
        for which, iso, _, pre_low, suf_low in blocks:
            # the rows with no entry 1: the prefixes and suffixes with no 1
            grid = iso.reshape(*iso.shape[:2], pre_low.shape[0], suf_low.shape[0])
            above = grid[..., pre_low.searchsorted(2) :, suf_low.searchsorted(2) :]
            cells = offset + which
            total[cells] += iso.sum(axis=2)
            outside[cells] += above.sum(axis=(2, 3))
        total = total.reshape(len(at), len(Hs))
        yield list(at), total, total - outside.reshape(len(at), len(Hs))
