"""Closed-form lower bounds, conjectured values, and asymptotic h-functions.

Integer formulas are evaluated exactly; the h-functions are evaluated in
the standard ``decimal`` module and returned as 40-digit ``Decimal`` values
(at least 30 correct significant digits).  Isolation decisions never depend
on the h-functions.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

_DPS = 40  # significant digits of an h-function value
_GUARD = 5  # extra working digits against rounding in exp and the quotients


def ta_shma_bound(M: int, n: int) -> int:
    """(M-1)^n, the classical injection lower bound on |Z(H, M, f)|.  It
    still holds, and is tight (on the power-set hypergraph), once zero
    objective values are allowed."""
    _check_mn(M, n)
    return (M - 1) ** n


def conjectured_Y(M: int, n: int) -> int:
    """n * sum_{i=0}^{M-1} i^(n-1), the conjectured exact minimum of |Z|.

    It is the exact count |Z(S_n, M, f)| of the singleton hypergraph for
    every f, and for n >= 2 also that of its complement.  0^0 is taken as
    1, which only matters at n = 1, where every weight isolates {1}.
    """
    _check_mn(M, n)
    return n * _power_sum(M, n - 1)


def _power_sum(M: int, k: int) -> int:
    """sum_{i=0}^{M-1} i^k (0^0 = 1) in O(k^2) integer steps, whatever M:
    i^k = sum_j S(k, j) j! C(i, j) with Stirling numbers of the second
    kind S, and C(i, j) summed over i < M is C(M, j + 1)."""
    stirling = [1]
    for r in range(1, k + 1):
        stirling = [0] + [j * stirling[j] + stirling[j - 1] for j in range(1, r)] + [1]
    total, falling = 0, M
    for j, s in enumerate(stirling):
        total += s * (falling // (j + 1))  # j! C(M, j + 1)
        falling *= M - j - 1
    return total


def conjectured_Y1(M: int, n: int) -> int:
    """n (M-1)^(n-1), the conjectured exact minimum of |Z_1|."""
    _check_mn(M, n)
    return n * (M - 1) ** (n - 1)


def main_theorem_bound(M: int, n: int) -> int:
    """2(M-1)^n - 2(M-2)^n - n(M-2)^(n-1): the witness-graph lower bound
    on |Z_1|.  May be non-positive for small M; returned verbatim."""
    if M < 2:
        raise ValueError("main theorem bound requires M >= 2")
    _check_mn(M, n)
    return 2 * (M - 1) ** n - 2 * (M - 2) ** n - n * (M - 2) ** (n - 1)


def corollary_Y_bound(M: int, n: int) -> int:
    """2(M-1)^n - n * sum_{i=1}^{M-2} i^(n-1): the layer-summed (telescoped)
    lower bound on |Z|."""
    _check_mn(M, n)
    # _power_sum counts 0^0 = 1 at i = 0, which the sum from i = 1 leaves out
    return 2 * (M - 1) ** n - n * _power_sum(M - 1, n - 1) + (1 if n == 1 and M >= 2 else 0)


def bounded_edge_bound(M: int, n: int, r: int) -> Fraction:
    """(2/r) n (M-1)^(n-1): lower bound on |Z_1| when every edge has
    cardinality at most r (requires r >= 2)."""
    if r < 2:
        raise ValueError("bounded-edge bound requires r >= 2")
    _check_mn(M, n)
    return Fraction(2, r) * n * (M - 1) ** (n - 1)


def _check_mn(M: int, n: int) -> None:
    if M < 1:
        raise ValueError("M must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")


def h_eval(which: str, phi) -> Decimal:
    """h0(x) = e^-x, h1(x) = x/(e^x - 1), h2(x) = (2(e^x - 1) - x)/(e^x (e^x - 1)),
    at x = phi (anything ``Fraction`` accepts, from 0 to 10^18), rounded to
    40 significant digits, at least 30 of them correct.  All three are 1 at
    x = 0.
    """
    if which not in ("h0", "h1", "h2"):
        raise ValueError(f"unknown h-function {which!r}")
    phi = Fraction(phi)
    if phi < 0:
        raise ValueError("phi must be nonnegative")
    if phi > 10**18:  # e^phi would leave the decimal module's exponent range
        raise ValueError("phi must be at most 10^18")
    if phi == 0:
        return Decimal(1)
    num, den = Decimal(phi.numerator), Decimal(phi.denominator)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = _DPS + _GUARD, ROUND_HALF_EVEN
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN  # e^x of a large phi stays finite
        # e^x - 1 loses about -log10(x) leading digits to cancellation at x < 1
        ctx.prec += max(0, -(num / den).adjusted())
        x = num / den
        if which == "h0":
            value = (-x).exp()
        else:
            ex = x.exp()
            em1 = ex - 1
            value = x / em1 if which == "h1" else (2 * em1 - x) / (ex * em1)
        ctx.prec = _DPS
        return +value
