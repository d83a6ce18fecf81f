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
    success_probabilities,
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


class TestHFunctions:
    def test_known_values(self):
        with mpmath.workdps(40):
            assert abs(h_eval("h0", 1) - mpmath.mpf("0.367879441171442321595523770161")) < 1e-28
            assert abs(h_eval("h1", 1) - mpmath.mpf("0.581976706869326424385002005109")) < 1e-28
        assert float(h_eval("h2", 1)) == pytest.approx(0.5216616166450005, abs=1e-12)

    def test_limits_at_zero(self):
        for which in ("h0", "h1", "h2"):
            assert h_eval(which, 0) == 1

    def test_precision_at_least_30_digits(self):
        with mpmath.workdps(60):
            ref = mpmath.mpf(1) / (mpmath.e - 1)
            got = h_eval("h1", 1)
            assert abs(got - ref) < mpmath.mpf(10) ** (-30)

    def test_accepts_fractions(self):
        assert float(h_eval("h0", F(1, 2))) == pytest.approx(0.6065306597126334)

    def test_rejects_negative_and_unknown(self):
        with pytest.raises(ValueError):
            h_eval("h1", -1)
        with pytest.raises(ValueError):
            h_eval("h3", 1)

    def test_ordering_on_grid(self):
        for k in range(1, 65):
            phi = F(k, 16)
            h0, h1, h2 = (h_eval(w, phi) for w in ("h0", "h1", "h2"))
            assert h2 <= h1 <= 1
            assert h0 <= h1

    def test_series_remainders_have_the_right_order(self):
        """The normalized remainders are bounded by their limiting
        coefficients 1/720 and 1/6 and converge to them from below (so
        they are non-decreasing in k as phi = 2^-k shrinks)."""
        r1_prev = r2_prev = None
        with mpmath.workdps(40):
            for k in range(3, 11):
                phi = mpmath.mpf(2) ** (-k)
                r1 = abs(h_eval("h1", phi) - (1 - phi / 2 + phi**2 / 12)) / phi**4
                r2 = abs(h_eval("h2", phi) - (1 - phi / 2 - phi**2 / 12)) / phi**3
                assert r1 <= mpmath.mpf(1) / 720
                assert r2 <= mpmath.mpf(1) / 6
                if r1_prev is not None:
                    assert r1 >= r1_prev
                    assert r2 >= r2_prev
                r1_prev, r2_prev = r1, r2
        assert float(r1_prev) == pytest.approx(1 / 720, rel=1e-4)
        assert float(r2_prev) == pytest.approx(1 / 6, rel=1e-2)


class TestSuccessProbabilities:
    def test_singleton_pair(self):
        H, M, f = singleton_hypergraph(2), 2, identity_objective(2)
        p, q = success_probabilities(H, M, f, count_isolating(H, M, f))
        assert (p, q) == (F(1, 2), F(2, 3))

    def test_empty(self):
        H, f = Hypergraph(2, ()), identity_objective(2)
        p, q = success_probabilities(H, 2, f, count_isolating(H, 2, f))
        assert (p, q) == (1, 1)

    def test_three_singletons(self):
        H, f = singleton_hypergraph(3), identity_objective(2)
        p, q = success_probabilities(H, 2, f, count_isolating(H, 2, f))
        assert (p, q) == (F(3, 8), F(3, 7))

    def test_M1_denominator(self):
        H, f = singleton_hypergraph(2), identity_objective(1)
        p, q = success_probabilities(H, 1, f, count_isolating(H, 1, f))
        assert (p, q) == (0, 0)

    def test_mismatched_report_rejected(self):
        H, f = singleton_hypergraph(2), identity_objective(2)
        rep = count_isolating(H, 2, f)
        with pytest.raises(ValueError):
            success_probabilities(singleton_hypergraph(3), 2, f, rep)

