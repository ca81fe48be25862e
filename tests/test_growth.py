"""Tests for the growth-function families and their derived data."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from discinterp.growth import GrowthError, GrowthFunction, _kummer_integral

from helpers import psi_tilde_log_quad

ALL_FAMILIES = [
    GrowthFunction("power", 0.5),
    GrowthFunction("power", 1.0),
    GrowthFunction("power", 2.0),
    GrowthFunction("log_power", 1.0),
    GrowthFunction("log_power", 2.0),
    GrowthFunction("exp_log_power", 0.3),
    GrowthFunction("exp_log_power", 0.5),
    GrowthFunction("exp_log_power", 0.7),
]


class TestPsi:
    def test_power_at_one(self):
        assert GrowthFunction("power", 1.0).psi(1.0) == pytest.approx(1.0)

    def test_log_power_at_e(self):
        assert GrowthFunction("log_power", 2.0).psi(math.e) == pytest.approx(1.0, rel=1e-12)

    def test_power_value(self):
        assert GrowthFunction("power", 2.0).psi(3.0) == pytest.approx(9.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(GrowthError):
            GrowthFunction("power", 1.0).psi(0.5)

    def test_bad_parameters(self):
        with pytest.raises(GrowthError):
            GrowthFunction("power", 0.0)
        with pytest.raises(GrowthError):
            GrowthFunction("log_power", -1.0)
        with pytest.raises(GrowthError):
            GrowthFunction("exp_log_power", 1.0)
        with pytest.raises(GrowthError):
            GrowthFunction("weird", 1.0)

    def test_nondecreasing(self):
        grid = np.geomspace(1.0, 1e6, 200)
        for gf in ALL_FAMILIES:
            vals = gf.psi(grid)
            assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("method", ["psi", "psi_log", "psi_tilde", "psi_tilde_log",
                                    "psi_inverse_log"])
def test_evaluation_keeps_the_input_shape(method):
    # numpy's result as it comes: a 0-d point gives a 0-d result, an (n,)
    # batch an (n,) array, and a point's value is its entry in the batch
    xs = np.array([1.0, 2.5, 40.0])
    for gf in ALL_FAMILIES + [GrowthFunction("log_power", 0.0)]:
        if method == "psi_inverse_log" and gf.param == 0.0:
            continue  # constant, not invertible
        fn = getattr(gf, method)
        batch = fn(xs)
        assert np.shape(batch) == xs.shape
        for x, value in zip(xs.tolist(), batch.tolist()):
            point = fn(x)
            assert np.shape(point) == ()
            assert float(point) == value


class TestPsiTilde:
    def test_empty_integral(self):
        for gf in ALL_FAMILIES:
            assert gf.psi_tilde(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_log_power_closed_form(self):
        gf = GrowthFunction("log_power", 2.0)
        for x in (2.0, 10.0, 1e4):
            assert gf.psi_tilde(x) == pytest.approx(math.log(x) ** 3 / 3, rel=1e-12)

    def test_power_closed_form(self):
        gf = GrowthFunction("power", 0.5)
        for x in (2.0, 10.0, 1e4):
            assert gf.psi_tilde(x) == pytest.approx((x**0.5 - 1) / 0.5, rel=1e-12)

    @pytest.mark.parametrize("gf", ALL_FAMILIES, ids=lambda g: f"{g.family}-{g.param}")
    def test_against_direct_quadrature(self, gf):
        # independent oracle: integrate psi(t)/t in the t variable directly
        for x in (1.5, 7.0, 300.0):
            oracle = quad(lambda t: float(gf.psi(t)) / t, 1.0, x,
                          epsabs=1e-12, epsrel=1e-11, limit=300)[0]
            assert gf.psi_tilde(x) == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_exp_log_power_against_quadrature(self, beta):
        # the long-double series of _kummer_integral against adaptive
        # quadrature of exp(v^beta) (epsrel 1e-10) and against 30-digit
        # mpmath quadrature; TestKummerIntegral checks it to the last bit
        gf = GrowthFunction("exp_log_power", beta)
        u = np.linspace(0.0, 40.0, 401)
        got = gf.psi_tilde_log(u)
        assert got[0] == 0.0
        assert np.allclose(got, psi_tilde_log_quad(beta, u), rtol=1e-9, atol=0.0)
        with mpmath.workdps(30):
            for ui, gi in zip(u[1::40], got[1::40]):
                ref = mpmath.quad(lambda v: mpmath.exp(v**mpmath.mpf(beta)), [0, ui])
                assert abs(gi - ref) <= 1e-14 * ref

    def test_exp_log_power_overflow_raises(self):
        # past ln(x)^beta of about 709 the integral leaves the double range
        gf = GrowthFunction("exp_log_power", 0.5)
        assert math.isfinite(gf.psi_tilde_log(700.0**2))
        with pytest.raises(OverflowError):
            gf.psi_tilde_log(np.array([1.0, 710.0**2]))
        with pytest.raises(OverflowError):
            gf.psi_tilde_log(710.0**2)

    def test_convex_in_log(self):
        # second differences of psi_tilde(e^u) in u are nonnegative
        u = np.linspace(0.0, 12.0, 121)
        for gf in ALL_FAMILIES:
            vals = gf.psi_tilde_log(u)
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second >= -1e-9)

    def test_psi_dominated_by_doubled_tilde(self):
        # psi(x) <= psi_tilde(2x) / ln 2 since psi is nondecreasing
        grid = np.geomspace(4.0, 1e5, 60)
        for gf in ALL_FAMILIES:
            ratio = gf.psi(grid) / gf.psi_tilde(2 * grid)
            assert np.all(ratio <= 1 / math.log(2) + 1e-9)

    def test_log_negligible_against_tilde(self):
        grid = np.geomspace(10.0, 1e8, 50)
        for gf in ALL_FAMILIES:
            ratio = np.log(grid) / gf.psi_tilde(grid)
            assert ratio[-1] < 0.2
            assert ratio[-1] < ratio[0]


class TestKummerIntegral:
    """psi_tilde of exp_log_power, u 1F1(1/beta; 1/beta + 1; u^beta), against mpmath."""

    @staticmethod
    def exact(u, beta):
        with mpmath.workprec(200):
            p, x = mpmath.mpf(beta), mpmath.mpf(u)
            return x * mpmath.hyp1f1(1 / p, 1 / p + 1, x**p), x**p

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_within_the_series_bound_up_to_the_overflow_edge(self, beta):
        # relative error at most 2^-53 + (5 x + p + 8) r, x = u^beta, with the
        # unit roundoff r and significand bits p of this platform's long
        # double; every inf result is past the double range
        info = np.finfo(np.longdouble)
        r, p = float(info.eps) / 2, info.nmant + 1
        u = np.linspace(0.0, 712.0, 65) ** (1 / beta)  # past the range at x = 712
        last = int(np.flatnonzero(np.isfinite(_kummer_integral(u, beta)))[-1])
        u = np.concatenate((u, np.linspace(u[last], u[last + 1], 18)[1:-1]))  # 16 up to the edge
        got = _kummer_integral(u, beta)
        assert got[0] == 0.0
        for ui, gi in zip(u[1:], got[1:]):
            ref, x = self.exact(ui, beta)
            if math.isfinite(gi):
                assert abs(gi - ref) <= (2.0**-53 + (5 * float(x) + p + 8) * r) * ref
            else:
                assert ref > np.finfo(float).max

    def test_values_do_not_depend_on_the_batch(self):
        # each element bit-equal in batches of 1, 2 and the whole array,
        # duplicates included; the whole array of 600 values takes fewer
        # terms per step than a batch of 1 or 2
        rng = np.random.default_rng(5)
        for beta in (0.2, 0.5, 0.9):
            x = np.concatenate((rng.uniform(0.0, 40.0, 580), rng.uniform(40.0, 709.0, 8)))
            u = np.concatenate((x ** (1 / beta), [0.0, 0.0]))
            u = rng.permutation(np.concatenate((u, u[:10])))
            whole = _kummer_integral(u, beta)
            for i in range(len(u)):
                assert np.array_equal(_kummer_integral(u[i:i + 1], beta), whole[i:i + 1])
                assert np.array_equal(_kummer_integral(u[i:i + 2], beta), whole[i:i + 2])

    def test_past_the_cut_without_summing(self):
        # x > 711 is past the double range, as psi_tilde >= e^(x - 1); the
        # series of x = 1e150 would not stop, its terms reaching inf before k > x
        got = _kummer_integral(np.array([1e300, np.inf, np.nan, 4.0]), 0.5)
        assert np.isinf(got[:2]).all() and np.isnan(got[2]) and np.isfinite(got[3])

    def test_zero_at_zero(self):
        for beta in (0.05, 0.5, 0.95):
            assert GrowthFunction("exp_log_power", beta).psi_tilde_log(0.0) == 0.0


class TestPolyaOrder:
    def test_power_order_is_rho(self):
        assert GrowthFunction("power", 3.0).polya_order == 3.0

    def test_log_power_vanishes(self):
        assert GrowthFunction("log_power", 2.0).polya_order == 0.0

    def test_exp_log_power_vanishes(self):
        assert GrowthFunction("exp_log_power", 0.5).polya_order == 0.0

    def test_genus(self):
        assert GrowthFunction("power", 0.5).genus == 1
        assert GrowthFunction("power", 1.0).genus == 2
        assert GrowthFunction("power", 2.0).genus == 3
        assert GrowthFunction("log_power", 2.0).genus == 1
        assert GrowthFunction("exp_log_power", 0.5).genus == 1


class TestSerialization:
    def test_missing_field(self):
        with pytest.raises(GrowthError):
            GrowthFunction.from_dict({"family": "power"})

    def test_inverse_log(self):
        for gf in ALL_FAMILIES:
            if gf.family == "log_power" and gf.param == 0:
                continue
            for x_log in (0.5, 2.0, 5.0):
                y = float(gf.psi_log(x_log))
                assert gf.psi_inverse_log(y) == pytest.approx(x_log, rel=1e-10, abs=1e-10)
