from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest

from isobench import (
    Hypergraph,
    bounded_edge_bound,
    conjectured_Y,
    conjectured_Y1,
    corollary_Y_bound,
    count_isolating,
    h_eval,
    identity_objective,
    main_theorem_bound,
    singleton_hypergraph,
    ta_shma_bound,
)
from isobench.bounds import _power_sum

F = Fraction


class TestClosedForms:
    def test_ta_shma(self):
        assert ta_shma_bound(3, 2) == 4
        assert ta_shma_bound(1, 5) == 0
        assert ta_shma_bound(2, 3) == 1

    def test_conjectured_Y(self):
        assert conjectured_Y(3, 2) == 6
        assert conjectured_Y(2, 3) == 3
        # 0^0 = 1 makes n = 1 agree with the singleton count
        assert conjectured_Y(2, 1) == 2
        rep = count_isolating(singleton_hypergraph(1), 2, identity_objective(2))
        assert rep.total == 2

    def test_conjectured_Y1(self):
        assert conjectured_Y1(3, 3) == 12
        assert conjectured_Y1(2, 5) == 5
        assert conjectured_Y1(1, 2) == 0

    def test_main_theorem(self):
        assert main_theorem_bound(3, 3) == 11
        assert main_theorem_bound(2, 4) == 2
        assert main_theorem_bound(4, 2) == 6
        with pytest.raises(ValueError):
            main_theorem_bound(1, 3)

    def test_corollary(self):
        assert corollary_Y_bound(3, 2) == 6
        assert corollary_Y_bound(2, 3) == 2
        assert corollary_Y_bound(4, 2) == 12

    def test_corollary_matches_direct_sum(self):
        # the power sum from i = 1, n = 1 included, where 0^0 must not count
        for M in range(1, 41):
            for n in range(1, 9):
                direct = 2 * (M - 1) ** n - n * sum(i ** (n - 1) for i in range(1, M - 1))
                assert corollary_Y_bound(M, n) == direct

    def test_bounded_edge(self):
        assert bounded_edge_bound(3, 4, 2) == 32
        assert bounded_edge_bound(2, 6, 3) == 4
        with pytest.raises(ValueError):
            bounded_edge_bound(3, 4, 1)

    def test_zero_weight(self):
        assert ta_shma_bound(2, 2) == 1
        assert ta_shma_bound(3, 2) == 4
        assert ta_shma_bound(1, 1) == 0

    def test_singleton_count(self):
        """conjectured_Y is the exact singleton count, n = 1 included."""
        assert conjectured_Y(3, 2) == 6
        assert conjectured_Y(6, 6) == 26550
        S1 = singleton_hypergraph(1)
        for M in (1, 2, 3):
            assert count_isolating(S1, M, identity_objective(M)).total == conjectured_Y(M, 1) == M

    def test_power_sum_matches_direct_sum(self):
        for M in range(1, 20):
            for k in range(12):
                assert _power_sum(M, k) == sum(i**k for i in range(M))
        assert _power_sum(10**6, 3) == (10**6 * (10**6 - 1) // 2) ** 2


@pytest.mark.parametrize(
    "M,n,message", [(0, 2, "M must be >= 1"), (2, 0, "n must be >= 1")], ids=["M", "n"]
)
def test_range_refused(M, n, message):
    with pytest.raises(ValueError) as info:
        ta_shma_bound(M, n)
    assert str(info.value) == message


class TestIdentities:
    def test_telescoping(self):
        """Summing the layer-1 bound over shifted ranges reproduces the
        two-sided bound exactly."""
        for n in range(2, 13):
            for M in range(2, 13):
                telescoped = sum(main_theorem_bound(j, n) for j in range(2, M + 1))
                assert telescoped == corollary_Y_bound(M, n)

    def test_layer_sum(self):
        for n in range(2, 13):
            for M in range(1, 13):
                assert conjectured_Y(M, n) == sum(
                    conjectured_Y1(i, n) for i in range(1, M + 1)
                )


def mp_h(which, phi):
    """h0, h1 or h2 at phi in mpmath, at the caller's working precision."""
    x = mpmath.mpf(phi.numerator) / phi.denominator
    if which == "h0":
        return mpmath.exp(-x)
    em1 = mpmath.expm1(x)
    if which == "h1":
        return x / em1
    return (2 * em1 - x) / (mpmath.exp(x) * em1)


class TestHFunctions:
    def test_known_values(self):
        tol = Decimal("1e-28")
        assert abs(h_eval("h0", 1) - Decimal("0.367879441171442321595523770161")) < tol
        assert abs(h_eval("h1", 1) - Decimal("0.581976706869326424385002005109")) < tol
        assert float(h_eval("h2", 1)) == pytest.approx(0.5216616166450005, abs=1e-12)

    def test_limits_at_zero(self):
        for which in ("h0", "h1", "h2"):
            assert h_eval(which, 0) == 1

    def test_precision_at_least_30_digits(self):
        with mpmath.workdps(60):
            ref = mpmath.mpf(1) / (mpmath.e - 1)
            got = mpmath.mpf(str(h_eval("h1", 1)))
            assert abs(got - ref) < mpmath.mpf(10) ** (-30)

    def test_accepts_fractions(self):
        assert float(h_eval("h0", F(1, 2))) == pytest.approx(0.6065306597126334)

    def test_rejects_negative_and_unknown(self):
        with pytest.raises(ValueError):
            h_eval("h1", -1)
        with pytest.raises(ValueError):
            h_eval("h1", 10**18 + 1)
        with pytest.raises(ValueError):
            h_eval("h3", 1)

    def test_ordering_on_grid(self):
        for k in range(1, 65):
            phi = F(k, 16)
            h0, h1, h2 = (h_eval(w, phi) for w in ("h0", "h1", "h2"))
            assert h2 <= h1 <= 1
            assert h0 <= h1

    def test_floats_match_mpmath_on_a_grid(self):
        """The floats the reports print equal mpmath's 40-digit values."""
        with mpmath.workdps(40):
            for which in ("h0", "h1", "h2"):
                for n in range(1, 41):
                    for M in range(1, 41):
                        phi = F(n, M)
                        assert float(h_eval(which, phi)) == float(mp_h(which, phi)), (which, phi)

    @pytest.mark.parametrize("which", ["h0", "h1", "h2"])
    def test_30_digits_at_small_and_large_phi(self, which):
        """Against mpmath at 60 digits, where e^x - 1 cancels (phi = 10^-k),
        where e^x leaves the float range (phi = 700 and 10^4) and where it
        leaves the default decimal context's exponent range (phi = 10^7)."""
        with mpmath.workdps(60):
            for phi in [F(1, 10**k) for k in range(31)] + [F(700), F(10**4), F(10**7)]:
                ref = mp_h(which, phi)
                got = mpmath.mpf(str(h_eval(which, phi)))
                assert abs(got - ref) <= abs(ref) * mpmath.mpf(10) ** (-30), phi

    def test_series_remainders_have_the_right_order(self):
        """The normalized remainders are bounded by their limiting
        coefficients 1/720 and 1/6 and converge to them from below (so
        they are non-decreasing in k as phi = 2^-k shrinks)."""
        r1_prev = r2_prev = None
        with localcontext() as ctx:
            ctx.prec = 40
            for k in range(3, 11):
                phi = Decimal(1) / 2**k
                r1 = abs(h_eval("h1", F(1, 2**k)) - (1 - phi / 2 + phi**2 / 12)) / phi**4
                r2 = abs(h_eval("h2", F(1, 2**k)) - (1 - phi / 2 - phi**2 / 12)) / phi**3
                assert r1 <= Decimal(1) / 720
                assert r2 <= Decimal(1) / 6
                if r1_prev is not None:
                    assert r1 >= r1_prev
                    assert r2 >= r2_prev
                r1_prev, r2_prev = r1, r2
        assert float(r1_prev) == pytest.approx(1 / 720, rel=1e-4)
        assert float(r2_prev) == pytest.approx(1 / 6, rel=1e-2)


class TestSuccessProbabilities:
    def test_singleton_pair(self):
        H, M, f = singleton_hypergraph(2), 2, identity_objective(2)
        rep = count_isolating(H, M, f)
        assert (rep.p, rep.q) == (F(1, 2), F(2, 3))

    def test_empty(self):
        H, f = Hypergraph(2, ()), identity_objective(2)
        rep = count_isolating(H, 2, f)
        assert (rep.p, rep.q) == (1, 1)

    def test_three_singletons(self):
        H, f = singleton_hypergraph(3), identity_objective(2)
        rep = count_isolating(H, 2, f)
        assert (rep.p, rep.q) == (F(3, 8), F(3, 7))

    def test_M1_denominator(self):
        H, f = singleton_hypergraph(2), identity_objective(1)
        rep = count_isolating(H, 1, f)
        assert (rep.p, rep.q) == (0, 0)

