"""Objective functions.

An Objective maps the weight labels ``1..M`` to exact rationals; all
isolation decisions are made in exact arithmetic by clearing
denominators once and comparing integers (never floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True)
class Objective:
    """A strictly increasing map f: {1..M} -> rationals.

    Values must be strictly positive unless ``zero_allowed`` is set, in
    which case f(1) = 0 is permitted (strict monotonicity is still
    enforced).  ``scaled`` holds the values times the lcm of their
    denominators; comparisons of edge weights use these exact integers.
    """

    M: int
    values: tuple[Fraction, ...]
    zero_allowed: bool = False
    kind: str = "explicit"
    scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.M, int) or self.M < 1:
            raise ValueError("M must be a positive integer")
        values = tuple(Fraction(v) for v in self.values)
        if len(values) != self.M:
            raise ValueError(f"expected {self.M} values, got {len(values)}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("objective values must be strictly increasing")
        if self.zero_allowed:
            if values[0] < 0:
                raise ValueError("objective values must be nonnegative")
        elif values[0] <= 0:
            raise ValueError("objective values must be strictly positive")
        if self.kind not in ("identity", "explicit", "generic_high", "generic_low"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        object.__setattr__(self, "values", values)
        denom = math.lcm(*(v.denominator for v in values))
        object.__setattr__(
            self, "scaled", tuple(int(v * denom) for v in values)
        )

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "M": self.M}
        if self.kind == "explicit":
            doc["values"] = [str(v) for v in self.values]
        if self.zero_allowed:
            doc["zero_allowed"] = True
        return doc


def identity_objective(M: int) -> Objective:
    return Objective(M, tuple(Fraction(k) for k in range(1, M + 1)), kind="identity")


def generic_high_objective(M: int, n: int) -> Objective:
    """f(k) = (n+1)^k: comparisons become lexicographic on the counts of
    each weight label from M downward (no edge has more than n vertices).
    """
    return Objective(M, tuple(Fraction((n + 1) ** k) for k in range(1, M + 1)), kind="generic_high")


def generic_low_objective(M: int, n: int) -> Objective:
    """f(k) = 1 + k/(n(M+1)): comparisons become edge cardinality first,
    then sum of weight labels.
    """
    d = n * (M + 1)
    return Objective(M, tuple(1 + Fraction(k, d) for k in range(1, M + 1)), kind="generic_low")


def explicit_objective(values: Iterable, *, zero_allowed: bool = False) -> Objective:
    vals = tuple(Fraction(v) for v in values)
    return Objective(len(vals), vals, zero_allowed=zero_allowed)


def random_objective(M: int, rng, *, zero_allowed: bool = False) -> Objective:
    """Seeded random strictly increasing rational objective.

    Built as cumulative sums of random positive fractions with small
    numerators/denominators; with ``zero_allowed`` the first value is 0
    half the time.
    """
    values = []
    current = Fraction(0)
    start_at_zero = zero_allowed and int(rng.integers(0, 2)) == 0
    for k in range(M):
        if k == 0 and start_at_zero:
            values.append(Fraction(0))
            continue
        num = int(rng.integers(1, 8))
        den = int(rng.integers(1, 8))
        current += Fraction(num, den)
        values.append(current)
    return Objective(M, tuple(values), zero_allowed=zero_allowed)


def preset_objectives(M: int, n: int) -> tuple[Objective, ...]:
    """The three preset objectives used throughout the verification suites."""
    return (identity_objective(M), generic_high_objective(M, n), generic_low_objective(M, n))


def shift_objective_up(f: Objective, j: int, M: int) -> Objective:
    """Extension of f (on labels 1..M-j+1) to labels 1..M so that weights of
    layer j compare exactly like shifted layer-1 weights under f.

    New labels below j get alpha*k with alpha = f(1)/(2M); any alpha in
    (0, f(1)/M) works, this choice makes results deterministic.
    """
    if not 1 <= j <= M:
        raise ValueError(f"layer index {j} out of range 1..{M}")
    if f.M != M - j + 1:
        raise ValueError(f"objective has {f.M} labels, expected {M - j + 1}")
    if f.values[0] <= 0:
        raise ValueError("shift_objective_up needs a strictly positive objective")
    if j == 1:
        return f
    alpha = f.values[0] / (2 * M)
    values = tuple(alpha * k for k in range(1, j)) + f.values
    return Objective(M, values)
