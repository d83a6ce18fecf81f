"""Counterexample hunting over exhaustive small-hypergraph families, the
seeded Monte Carlo samplers, and the asymptotic comparison table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bounds import conjectured_Y, conjectured_Y1, h_eval
from .counting import (
    DEFAULT_BUDGET,
    _check,
    _classify,
    _count_many,
    _gather,
    _grid,
    _limbs,
    _plan,
    _slot_sums,
    _table,
    count_isolating,
)
from .errors import BudgetExceededError
from .hypergraph import Hypergraph, enumerate_hypergraphs
from .weights import Objective, preset_objectives, random_objective

_BATCH = 1 << 14  # weight rows a sampler draws at a time
_EXACT_BUDGET = 1_000_000  # the most rows a sampler's exact count scans
_MAX_OBJECTIVES = 1_000_000  # the most objectives a strategy builds at one M, as a walk's antichains


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def candidates(self, M: int, n: int) -> list[Objective]:
        if self.kind == "presets":
            return list(preset_objectives(M, n))
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
class InstanceRecord:
    """One (H, M, f) instance together with its exact counts and ratios."""

    hypergraph: dict
    M: int
    objective: dict
    total: int
    layer1: int
    ratio_total: Optional[Fraction]
    ratio_layer1: Optional[Fraction]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a conjecture sweep.  ``violations`` must stay empty
    unless a conjecture actually falls on the searched grid."""

    n_max: int
    M_values: tuple[int, ...]
    strategy: dict
    prune: bool
    seed: int
    instances: int
    min_ratio_total: Optional[Fraction]
    min_ratio_layer1: Optional[Fraction]
    witness_total: Optional[InstanceRecord]
    witness_layer1: Optional[InstanceRecord]
    violations: tuple[InstanceRecord, ...]


def conjecture_search(
    n_max: int,
    M_values: Sequence[int],
    strategy: ObjectiveStrategy,
    *,
    prune: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exhaustive sweep of inclusion-free hypergraphs on up to n_max
    vertices against both conjectured minima.

    ``prune`` restricts to connected hypergraphs with minimum degree two,
    the shape any minimal counterexample must have.  Deterministic given
    the strategy, whose seed feeds its random objectives.  Each vertex
    count's walk is counted whole, one batch per M.  A strategy of
    more than _MAX_OBJECTIVES objectives at some M is refused before any
    objective is built.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    M_values = tuple(M_values)
    if not M_values or any(M < 1 for M in M_values):
        raise ValueError("M_values must be a nonempty list of positive integers")
    for M in M_values:
        # a strategy's count and bound are 0 unless they size its family
        size = max(strategy.count, math.comb(strategy.bound, M))
        if size > _MAX_OBJECTIVES:
            raise BudgetExceededError(f"{size} objectives at M = {M} exceed budget {_MAX_OBJECTIVES}")

    instances = 0
    # Each instance is keyed by the order of the per-instance walk, (n,
    # index of H, index of (M, f) in the walk's objectives): ratio ties go
    # to the first instance in that order, and violations are listed in it.
    witness: list[Optional[tuple]] = [None, None]  # (ratio, key, instance) for |Z|, |Z_1|
    violations: list[tuple] = []  # (key, instance)
    walks = (enumerate_hypergraphs(n, prune=prune) for n in range(1, n_max + 1))
    for walk in _grid(walks, M_values, strategy.candidates, budget):
        Hs = walk.hypergraphs
        n = Hs[0].n
        for M, fs, listings in walk.groups:
            minima = conjectured_Y(M, n), conjectured_Y1(M, n)
            for at, *counted in _count_many(walk, M, fs):
                rows = zip(at, zip(*counted))
                for j, f, counts in [(j, fs[i], c) for i, c in rows for j in listings[i]]:
                    instances += len(Hs)

                    def keyed(h: int) -> tuple:
                        return (n, h, j), (Hs[h], M, f, *(c[h] for c in counts))

                    below = np.zeros(len(Hs), dtype=bool)
                    for k, (denom, count) in enumerate(zip(minima, counts)):
                        if denom:
                            h = int(count.argmin())
                            candidate = (Fraction(int(count[h]), denom), *keyed(h))
                            if witness[k] is None or candidate[:2] < witness[k][:2]:
                                witness[k] = candidate
                            below |= count < denom
                    violations.extend(map(keyed, np.flatnonzero(below).tolist()))
    violations.sort(key=lambda v: v[0])
    ratios = [None if w is None else w[0] for w in witness]
    records = [None if w is None else _record(*w[2]) for w in witness]
    return SearchReport(
        n_max=n_max,
        M_values=M_values,
        strategy=strategy.to_json_dict(),
        prune=prune,
        seed=strategy.seed,
        instances=instances,
        min_ratio_total=ratios[0],
        min_ratio_layer1=ratios[1],
        witness_total=records[0],
        witness_layer1=records[1],
        violations=tuple(_record(*instance) for _, instance in violations),
    )


def _record(H: Hypergraph, M: int, f: Objective, total, layer1) -> InstanceRecord:
    """The report's record of one (H, M, f) instance and its counts."""
    denom_total, denom_layer1 = conjectured_Y(M, H.n), conjectured_Y1(M, H.n)
    return InstanceRecord(
        hypergraph=H.to_json_dict(),
        M=M,
        objective=f.to_json_dict(),
        total=int(total),
        layer1=int(layer1),
        ratio_total=Fraction(int(total), denom_total) if denom_total else None,
        ratio_layer1=Fraction(int(layer1), denom_layer1) if denom_layer1 else None,
    )


# ---------------------------------------------------------------------------
# Seeded samplers


@dataclass(frozen=True)
class SampleReport:
    """A Monte Carlo estimate with its exact counterpart (when affordable)
    and the h-function predictions at phi = n/M."""

    kind: str  # "uniform" | "layer1"
    n: int
    M: int
    trials: int
    seed: int
    successes: int
    draws: int
    estimate: float
    exact: Optional[Fraction]
    phi: Fraction
    h0: float
    h1: float
    h2: float


def _h_values(n: int, M: int) -> tuple[Fraction, float, float, float]:
    phi = Fraction(n, M)
    return (
        phi,
        float(h_eval("h0", phi)),
        float(h_eval("h1", phi)),
        float(h_eval("h2", phi)),
    )


def sample_uniform(
    H: Hypergraph, M: int, f: Objective, trials: int, seed: int, *, budget: int = DEFAULT_BUDGET
) -> SampleReport:
    """Estimate p = |Z|/M^n from seeded uniform draws over [M]^n."""
    return _sample("uniform", H, M, f, trials, seed, budget)


def sample_layer1(
    H: Hypergraph, M: int, f: Objective, trials: int, seed: int, *, budget: int = DEFAULT_BUDGET
) -> SampleReport:
    """Estimate q = |Z_1|/(M^n - (M-1)^n) from uniform draws over the
    layer-1 weights, implemented by rejecting draws with no entry 1.

    Acceptance probability is 1 - (1 - 1/M)^n, so the expected number of
    rejections stays small for phi = n/M bounded away from 0.  The total
    number of raw draws is reported.
    """
    return _sample("layer1", H, M, f, trials, seed, budget)


def _sample(
    kind: str, H: Hypergraph, M: int, f: Objective, trials: int, seed: int, budget: int
) -> SampleReport:
    """Classify the first ``trials`` accepted rows of seeded uniform draws
    over [M]^n, drawn _BATCH rows at a time: every row for ``uniform``, the
    rows with some entry 1 for ``layer1``.  Layer 1 holds a share 1 - (1 -
    1/M)^n of the draws.  Above a quarter, with a one-limb table, each
    batch is classified whole and its rejected rows are masked, which costs
    less than copying the accepted ones out; otherwise the accepted rows
    are found from W's ones and copied.  More trials than ``budget`` are
    refused before the first draw.  The exact probability comes with the
    estimate when M^n is at most both ``budget`` and _EXACT_BUDGET."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check(f, M, trials, budget)
    rng = np.random.default_rng(seed)
    table, slots = _table(f, H.n), _plan((H,)).slots
    masked = kind == "layer1" and _limbs(table) == 1 and 4 * (M - 1) ** H.n < 3 * M**H.n
    successes = accepted = batches = 0
    while accepted < trials:
        W = rng.integers(1, M + 1, size=(_BATCH, H.n), dtype=np.int64)
        batches += 1
        if kind == "layer1" and not masked:
            hit = np.zeros(_BATCH, dtype=bool)
            hit[np.flatnonzero(W == 1) // H.n] = True  # the rows holding a 1
            W = W.take(np.flatnonzero(hit), axis=0)
        values = _gather(W if masked else W[: trials - accepted], table)
        iso = _classify(_slot_sums(values, slots), H.n)[0]
        if masked:
            # f is strictly increasing and scaled by a positive lcm, so label
            # 1 has the table's unique least value
            hit = np.minimum.reduce(values[0, : H.n], axis=0) == table[0, 1]
            iso = iso[np.flatnonzero(hit)[: trials - accepted]]
        successes += int(np.count_nonzero(iso))
        accepted += iso.size
    exact = None
    if M**H.n <= min(budget, _EXACT_BUDGET):
        report = count_isolating(H, M, f, budget=_EXACT_BUDGET)
        exact = report.q if kind == "layer1" else report.p
    phi, h0, h1, h2 = _h_values(H.n, M)
    return SampleReport(
        kind=kind,
        n=H.n,
        M=M,
        trials=trials,
        seed=seed,
        successes=successes,
        draws=batches * _BATCH if kind == "layer1" else trials,
        estimate=successes / trials,
        exact=exact,
        phi=phi,
        h0=h0,
        h1=h1,
        h2=h2,
    )


# ---------------------------------------------------------------------------
# Asymptotic comparison


@dataclass(frozen=True)
class AsymptoticRow:
    quantity: str  # "p" | "q"
    n: int
    M: int
    phi: Fraction
    value: float
    exact: Optional[Fraction]
    h0: float
    h1: float
    h2: float
    margin_h2: float
    h2_applicable: bool


def compare_to_asymptotics(
    n: int,
    M: int,
    p: Optional[Fraction] = None,
    q: Optional[Fraction] = None,
) -> tuple[AsymptoticRow, ...]:
    """Rows comparing exact or estimated p and q to h0/h1/h2 at phi = n/M.

    The q >= h2 guarantee applies only for phi <= 1; the flag records
    whether the comparison is in force for that row.
    """
    phi, h0, h1, h2 = _h_values(n, M)
    rows = []
    for name, value in (("p", p), ("q", q)):
        if value is None:
            continue
        val = float(value)
        rows.append(
            AsymptoticRow(
                quantity=name,
                n=n,
                M=M,
                phi=phi,
                value=val,
                exact=value if isinstance(value, Fraction) else None,
                h0=h0,
                h1=h1,
                h2=h2,
                margin_h2=val - h2,
                h2_applicable=(name == "q" and phi <= 1),
            )
        )
    return tuple(rows)

