"""Exact brute-force counts of isolating weight vectors.

Every row of [M]^n (for ``count_layer1``, every row with some entry 1) is
classified, in exact integers: edge weights use the objective's
denominator-cleared values, held as Python integers (``dtype=object``) when
an edge sum could overflow int64, so ties are detected exactly.  The scan
splits the coordinates into a prefix and a suffix of length k
(meet-in-the-middle, after Horowitz and Sahni 1974): each edge's weight is
summed once per suffix and once per prefix, and a block of rows is one
broadcast addition of the two.  Prefix-major order keeps the rows
lexicographic; ``count_isolating`` can split the prefixes across worker
processes by rank.  Explicit weight rows (the constructions' weights, the
samplers' draws) go through the same classify step in blocks.

The conjecture sweep counts many hypergraphs on the same n at once
(``_count_many``): per (M, f), each block of rows sums the distinct edges
of the whole batch in one matmul, and the hypergraphs with the same
number of edges are classified together, as one gathered array per edge
count.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .hypergraph import Hypergraph, edge_vertices
from .weights import (
    Objective,
    generic_high_objective,
    generic_low_objective,
    identity_objective,
    random_objective,
)

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 15  # rows per classified block
_SUFFIX_ROWS = 4096  # bound on M^k for the suffix tables, except k = 1
_GATHER = 1 << 16  # bound on rows times gathered edge columns in _count_many


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


@functools.lru_cache(maxsize=256)
def _edge_members(H: Hypergraph) -> np.ndarray:
    """(n, edges) 0/1 matrix, read-only: entry [v - 1, t] is 1 when vertex v
    is in edge t."""
    members = np.array([[e >> v & 1 for e in H.edges] for v in range(H.n)], dtype=np.int64)
    members.flags.writeable = False
    return members


def _int64_safe(f: Objective, n: int) -> bool:
    return max(abs(s) for s in f.scaled) * max(n, 1) < (1 << 62)


def _decode_rows(n: int, M: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [start, stop) of [M]^n in lexicographic order (first coordinate
    most significant), as an int64 array of shape (stop-start, n), and the
    minimum of each row (M + 1, above every label, when n = 0)."""
    idx = np.arange(start, stop, dtype=np.int64)
    cols = np.empty((stop - start, n), dtype=np.int64)
    for pos in range(n):
        div = M ** (n - 1 - pos)
        cols[:, pos] = (idx // div) % M + 1
    return cols, cols.min(axis=1, initial=M + 1)


def _classify(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isolation of each row of an array of edge weights with the edges on
    axis -2: shape (edges, rows), or (hypergraphs, edges, rows).

    Returns the isolating mask, of the shape of ``sums`` without the edge
    axis, and the mask of edges at the row's minimum, of the shape of
    ``sums``.  With no edges every row is isolating.
    """
    if not sums.shape[-2]:
        iso = np.ones(sums.shape[:-2] + sums.shape[-1:], dtype=bool)
        return iso, np.zeros(sums.shape, dtype=bool)
    at_min = sums == sums.min(axis=-2, keepdims=True)
    return at_min.sum(axis=-2) == 1, at_min


def _edge_sums(W: np.ndarray, table: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Weight of each edge on each weight row, shape (edges, rows); the rows
    of ``members`` match the columns of W."""
    return members.T @ table[W].T


def _classify_rows(H: Hypergraph, f: Objective, W) -> tuple[np.ndarray, np.ndarray]:
    """Isolation of explicit weight rows W (an array of shape (rows, n), or a
    list of weight tuples), in blocks of at most _CHUNK rows.

    Returns the isolating mask per row and the (rows, edges) mask of edges
    at each row's minimum.  Edge weights are Python integers
    (``dtype=object``) when an edge sum could overflow int64.
    """
    W = np.asarray(W, dtype=np.int64).reshape(-1, H.n)
    table = np.array(f.int_table(), dtype=np.int64 if _int64_safe(f, H.n) else object)
    members = _edge_members(H)
    starts = range(0, max(W.shape[0], 1), _CHUNK)
    iso, at_min = zip(*(_classify(_edge_sums(W[a : a + _CHUNK], table, members)) for a in starts))
    return np.concatenate(iso), np.concatenate(at_min, axis=1).T


def _suffix_len(n: int, M: int) -> int:
    """Largest k <= n with M^k <= _SUFFIX_ROWS, and at least 1."""
    k = 1
    while k < n and M ** (k + 1) <= _SUFFIX_ROWS:
        k += 1
    return min(k, n)


@dataclass(frozen=True)
class _Part:
    """The minima of one side's decoded rows and the per-edge weight over
    that side's coordinates, shape (edges, rows)."""

    low: np.ndarray
    sums: np.ndarray

    def take(self, keep: np.ndarray) -> "_Part":
        return _Part(self.low[keep], self.sums[:, keep])


@functools.lru_cache(maxsize=64)
def _suffix_table(k: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    rows, low = _decode_rows(k, M, 0, M**k)
    rows.flags.writeable = False
    low.flags.writeable = False
    return rows, low


def _split(
    H: Hypergraph, f: Objective, M: int, k: int, start: int = 0, stop: Optional[int] = None
) -> tuple[_Part, _Part]:
    """The prefix ranks [start, stop) and all M^k suffixes of [M]^n."""
    p = H.n - k
    if stop is None:
        stop = M**p
    # Python integers when an edge sum could overflow int64
    table = np.array(f.int_table(), dtype=np.int64 if _int64_safe(f, H.n) else object)
    members = _edge_members(H)
    prefix, prefix_low = _decode_rows(p, M, start, stop)
    suffix, suffix_low = _suffix_table(k, M)
    return (
        _Part(prefix_low, _edge_sums(prefix, table, members[:p])),
        _Part(suffix_low, _edge_sums(suffix, table, members[p:])),
    )


def _blocks(prefix: _Part, suffix: _Part) -> Iterator[tuple]:
    """Classify every (prefix, suffix) row in prefix-major order, in blocks
    of about _CHUNK rows.

    Yields (isolating mask, layer, edges at the minimum), flat over the
    block's rows.
    """
    m, width = suffix.sums.shape
    if not width:
        return
    step = max(1, _CHUNK // width)
    for a in range(0, prefix.low.shape[0], step):
        b = min(a + step, prefix.low.shape[0])
        sums = prefix.sums[:, a:b, None] + suffix.sums[:, None, :]
        iso, at_min = _classify(sums.reshape(m, (b - a) * width))
        yield iso, np.minimum.outer(prefix.low[a:b], suffix.low).ravel(), at_min


def _tally(
    H: Hypergraph, f: Objective, M: int, k: int, start: int = 0, stop: Optional[int] = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """(total, per-layer counts indexed by layer, per-edge counts) over the
    prefix ranks [start, stop) with suffix length k."""
    total = 0
    per_layer = np.zeros(M + 1, dtype=np.int64)
    per_edge = np.zeros(H.m, dtype=np.int64)
    for iso, layer, at_min in _blocks(*_split(H, f, M, k, start, stop)):
        total += int(iso.sum())
        per_layer += np.bincount(layer[iso], minlength=M + 1)
        per_edge += np.count_nonzero(at_min & iso, axis=1)
    return total, per_layer, per_edge


def _check(f: Objective, M: int, rows: int, budget: int, label: str = "") -> None:
    """Refuse a scan before any work: wrong objective range, or more rows
    than the budget."""
    if f.M != M:
        raise ValueError(f"objective range {f.M} does not match M={M}")
    if rows > budget:
        raise BudgetExceededError(f"{label}{rows} weight evaluations exceed budget {budget}")


def count_isolating(
    H: Hypergraph,
    M: int,
    f: Objective,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> CountReport:
    """Exact |Z(H, M, f)| with per-layer and per-isolated-edge breakdowns,
    by full enumeration of [M]^n."""
    _check(f, M, M**H.n, budget, f"{M}^{H.n} = ")
    k = _suffix_len(H.n, M)
    ranks = M ** (H.n - k)
    jobs = max(1, min(workers, ranks))
    if jobs == 1:
        parts = [_tally(H, f, M, k)]
    else:
        # partition the prefix ranks into balanced ranges; merge in rank order
        cuts = [ranks * i // jobs for i in range(jobs + 1)]
        fixed = map(itertools.repeat, (H, f, M, k))
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            parts = list(pool.map(_tally, *fixed, cuts[:-1], cuts[1:]))
    total = sum(p[0] for p in parts)
    per_layer = sum(p[1] for p in parts)
    per_edge = sum(p[2] for p in parts)
    pairs = tuple((e, int(c)) for e, c in zip(H.edges, per_edge) if c)
    return CountReport(
        n=H.n,
        M=M,
        total=total,
        per_layer=tuple(int(x) for x in per_layer[1:]),
        per_edge=pairs,
    )


def _count_layer1(H: Hypergraph, f: Objective, M: int, k: int) -> int:
    """Isolating rows with some entry 1: prefixes holding a 1 take every
    suffix, the other prefixes only the suffixes holding a 1."""
    prefix, suffix = _split(H, f, M, k)
    hit = prefix.low == 1
    total = 0
    for pre, suf in ((prefix.take(hit), suffix), (prefix.take(~hit), suffix.take(suffix.low == 1))):
        for iso, _, _ in _blocks(pre, suf):
            total += int(iso.sum())
    return total


def count_layer1(
    H: Hypergraph,
    M: int,
    f: Objective,
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact |Z_1(H, M, f)|, scanning only weights with some entry 1."""
    _check(f, M, M**H.n - (M - 1) ** H.n, budget)
    return _count_layer1(H, f, M, _suffix_len(H.n, M))


def _count_many(Hs: Sequence[Hypergraph], M: int, f: Objective) -> tuple[np.ndarray, np.ndarray]:
    """|Z| and |Z_1| of every hypergraph in Hs, all on the same n, as int64
    arrays in the order of Hs; the caller checks the budget.

    Each block of [M]^n rows sums the distinct edges of Hs once.  The
    hypergraphs with m edges gather their edge weights into one array of
    shape (hypergraphs, m, rows), and one ``_classify`` step classifies
    every row of every one of them.  Blocks of rows
    and groups of hypergraphs keep rows times gathered edges under _GATHER.
    """
    n = Hs[0].n
    rows = M**n
    total = np.zeros(len(Hs), dtype=np.int64)
    layer1 = np.zeros(len(Hs), dtype=np.int64)
    by_size: dict[int, list[int]] = {}
    for i, H in enumerate(Hs):
        if H.edges:
            by_size.setdefault(H.m, []).append(i)
        else:  # every row isolates, by convention
            total[i], layer1[i] = rows, rows - (M - 1) ** n
    if not by_size:
        return total, layer1
    distinct = sorted({e for H in Hs for e in H.edges})
    column = {e: c for c, e in enumerate(distinct)}
    members = np.array([[e >> v & 1 for e in distinct] for v in range(n)], dtype=np.int64)
    step = min(rows, max(1, _GATHER // max(len(distinct), *by_size)))
    groups = []  # (positions in Hs, edge columns of shape (hypergraphs, m))
    for m, which in by_size.items():
        cols = np.array([[column[e] for e in Hs[i].edges] for i in which], dtype=np.intp)
        per = max(1, _GATHER // (m * step))
        groups.extend((which[a : a + per], cols[a : a + per]) for a in range(0, len(which), per))
    table = np.array(f.int_table(), dtype=np.int64 if _int64_safe(f, n) else object)
    for r in range(0, rows, step):
        W, low = _decode_rows(n, M, r, min(r + step, rows))
        sums = _edge_sums(W, table, members)
        hit = low == 1
        for which, cols in groups:
            iso = _classify(sums[cols])[0]
            total[which] += np.count_nonzero(iso, axis=1)
            layer1[which] += np.count_nonzero(iso[:, hit], axis=1)
    return total, layer1


# ---------------------------------------------------------------------------
# Minimization over a finite objective family


@dataclass(frozen=True)
class ObjectiveStrategy:
    """A finite, reportable family of objectives standing in for the
    minimization over all strictly increasing f.

    kinds: ``presets`` (identity + the two generic presets),
    ``random_rational`` (``count`` seeded random objectives), and
    ``exhaustive_integer`` (all strictly increasing integer objectives
    with values in 1..bound).
    """

    kind: str
    count: int = 0
    seed: int = 0
    bound: int = 0

    def __post_init__(self):
        if self.kind not in ("presets", "random_rational", "exhaustive_integer"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "random_rational" and self.count < 1:
            raise ValueError("random_rational strategy needs count >= 1")
        if self.kind == "exhaustive_integer" and self.bound < 1:
            raise ValueError("exhaustive_integer strategy needs bound >= 1")

    def candidates(self, M: int, n: int) -> list[Objective]:
        if self.kind == "presets":
            return [
                identity_objective(M),
                generic_high_objective(M, n),
                generic_low_objective(M, n),
            ]
        if self.kind == "random_rational":
            rng = np.random.default_rng([self.seed, M, n])
            return [random_objective(M, rng) for _ in range(self.count)]
        cands = [
            Objective(M, tuple(Fraction(v) for v in combo))
            for combo in itertools.combinations(range(1, self.bound + 1), M)
        ]
        if not cands:
            raise ValueError(
                f"exhaustive_integer bound {self.bound} admits no strictly increasing objective on {M} labels"
            )
        return cands

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "random_rational":
            doc["count"] = self.count
            doc["seed"] = self.seed
        if self.kind == "exhaustive_integer":
            doc["bound"] = self.bound
        return doc


@dataclass(frozen=True)
class MinimizationResult:
    """Minimum counts over a strategy's objective family (an upper bound
    on the true minimum over all strictly increasing objectives)."""

    report: CountReport
    objective: Objective
    min_layer1: int
    layer1_objective: Objective
    candidates: int


def count_min_over_objectives(
    H: Hypergraph,
    M: int,
    strategy: ObjectiveStrategy,
    *,
    budget: int = DEFAULT_BUDGET,
) -> MinimizationResult:
    """Minimum |Z| (and, separately, minimum |Z_1|) over the strategy's
    finite objective family, deterministic given the strategy seed."""
    family = strategy.candidates(M, H.n)
    best: Optional[CountReport] = None
    best_f: Optional[Objective] = None
    best_l1: Optional[int] = None
    best_l1_f: Optional[Objective] = None
    for f in family:
        report = count_isolating(H, M, f, budget=budget)
        if best is None or report.total < best.total:
            best, best_f = report, f
        if best_l1 is None or report.layer1 < best_l1:
            best_l1, best_l1_f = report.layer1, f
    assert best is not None and best_f is not None
    assert best_l1 is not None and best_l1_f is not None
    return MinimizationResult(
        report=best,
        objective=best_f,
        min_layer1=best_l1,
        layer1_objective=best_l1_f,
        candidates=len(family),
    )
