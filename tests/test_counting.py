"""Tests for counting functions and condition checkers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from discinterp.counting import (
    ALPHA,
    CountingError,
    carleson_delta,
    check_concentration,
    check_korenblum_sum,
    concentration_korenblum_comparison,
    counting_N,
    counting_n,
    counting_sandwich_check,
    separation,
    sigma_log_comparison,
)
from discinterp.geometry import DELTA, DiscSequence
from discinterp.growth import GrowthFunction

from helpers import abs_split_sequence, pseudo_dist


def random_sequence(rng, n, r_lo=0.2, r_hi=0.9, min_gap=0.02):
    pts = []
    while len(pts) < n:
        r = rng.uniform(r_lo, r_hi)
        z = r * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) > min_gap for w in pts):
            pts.append(complex(z))
    return DiscSequence(pts)


GF = GrowthFunction("power", 1.0)


class TestCountingN:
    def test_empty(self):
        assert counting_n(DiscSequence([]), 0.3, 0.5) == 0

    def test_point_itself(self):
        seq = DiscSequence([0.5, 0.7])
        assert counting_n(seq, 0.5, 0.0) == 1

    def test_pair_gap(self):
        eps = 0.5 * math.exp(-2.0)
        seq = DiscSequence([0.5, 0.5 + eps])
        gap = abs(seq.values[1] - seq.values[0])  # realized double-precision gap
        assert counting_n(seq, complex(seq.values[1]), gap) == 2
        assert counting_n(seq, complex(seq.values[1]), gap * (1 - 1e-12)) == 1

    def test_negative_radius(self):
        with pytest.raises(CountingError):
            counting_n(DiscSequence([0.5]), 0.0, -1.0)


class TestCountingBigN:
    def test_point_at_exact_radius(self):
        r = 0.2
        seq = DiscSequence([0.3, 0.3 + r])
        assert counting_N(seq, 0.3, r) == pytest.approx(0.0, abs=1e-15)

    def test_point_at_radius_over_e(self):
        r = 0.2
        seq = DiscSequence([0.3, 0.3 + r / math.e])
        assert counting_N(seq, 0.3, r) == pytest.approx(1.0, rel=1e-14)

    def test_nondecreasing_in_radius(self):
        rng = np.random.default_rng(21)
        seq = random_sequence(rng, 15)
        radii = np.linspace(0.01, 0.8, 60)
        vals = [counting_N(seq, 0.1 + 0.1j, r) for r in radii]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_quadrature_of_step_integrand(self):
        # independent oracle: integrate (n_z(t) - 1)^+ / t numerically
        rng = np.random.default_rng(22)
        seq = random_sequence(rng, 12)
        z = 0.15 - 0.2j
        r = 0.7
        d = np.sort(np.abs(seq.values - z))

        def integrand(t):
            return max(int(np.count_nonzero(d <= t)) - 1, 0) / t

        oracle = quad(integrand, d[1] if len(d) > 1 else r, r,
                      points=list(d[(d > 0) & (d < r)]), limit=400)[0]
        assert counting_N(seq, z, r) == pytest.approx(oracle, rel=1e-6)


class TestConcentration:
    def test_singleton(self):
        rep = check_concentration(DiscSequence([0.5]), GF)
        assert rep.best_constant == 0.0

    def test_far_separated_pair(self):
        seq = DiscSequence([0.3, -0.3])
        assert pseudo_dist(0.3, -0.3) > 0.5
        rep = check_concentration(seq, GF)
        assert rep.best_constant == 0.0

    def test_holds_with(self):
        rng = np.random.default_rng(23)
        seq = random_sequence(rng, 10)
        rep = check_concentration(seq, GF)
        assert rep.witness_index in range(len(seq))


class TestKorenblum:
    def test_singleton(self):
        assert check_korenblum_sum(DiscSequence([0.5]), GF).best_constant == 0.0

    def test_empty_window_pair(self):
        seq = DiscSequence([0.3, -0.3])  # gap 0.6 > (1 - 0.3)/2 both ways
        assert check_korenblum_sum(seq, GF).best_constant == 0.0

    @pytest.mark.parametrize("delta", [DELTA])  # the one radius, named in the test id
    def test_equals_the_per_node_numpy_loop(self, delta):
        # the same arithmetic node by node, so the sums must agree to the last
        # bit, also where a node has eight or more close pairs
        rng = np.random.default_rng(25)
        seq = random_sequence(rng, 60, r_lo=0.3, r_hi=0.95, min_gap=0.002)
        v = seq.values
        sums = np.zeros(len(seq))
        for k in range(len(seq)):
            d = np.abs(v - v[k])
            close = (d > 0) & (d < delta * (1.0 - seq.moduli[k]))
            if close.any():
                sums[k] = -np.sum(np.log(d[close] / np.abs(1.0 - np.conj(v[k]) * v[close])))
        assert max(np.count_nonzero(np.abs(v - z) < delta * (1 - abs(z))) for z in v) > 9
        psi = GF.psi(1.0 / (1.0 - seq.moduli))
        rep = check_korenblum_sum(seq, GF)
        assert rep.numerators.tobytes() == sums.tobytes()
        assert not rep.numerators.flags.writeable
        assert (rep.best_constant, rep.witness_index) == (float((sums / psi).max()),
                                                          int(np.argmax(sums / psi)))

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(24)
        seq = random_sequence(rng, 30, min_gap=0.01)
        rep = check_korenblum_sum(seq, GF)
        best = 0.0
        witness = 0
        v, m = seq.values, seq.moduli
        for k in range(len(seq)):
            total = 0.0
            for j in range(len(seq)):
                gap = abs(v[j] - v[k])
                if j != k and 0 < gap < 0.5 * (1 - m[k]):
                    total += math.log(1.0 / pseudo_dist(v[k], v[j]))
            c = total / float(GF.psi(1 / (1 - m[k])))
            if c > best:
                best, witness = c, k
        assert rep.best_constant == pytest.approx(best, rel=1e-12)
        assert rep.witness_index == witness


class TestCarlesonAndSeparation:
    def test_singleton_product(self):
        assert carleson_delta(DiscSequence([0.5])) == 1.0
        assert carleson_delta(DiscSequence([])) == 1.0

    def test_two_points(self):
        seq = DiscSequence([0.5, 0.75])
        assert carleson_delta(seq) == pytest.approx(pseudo_dist(0.5, 0.75), rel=1e-14)

    def test_three_on_a_radius_hand_product(self):
        r1, r2, r3 = 0.2, 0.5, 0.8
        seq = DiscSequence([r1, r2, r3])
        prods = []
        for k, a in enumerate((r1, r2, r3)):
            prod = 1.0
            for j, b in enumerate((r1, r2, r3)):
                if j != k:
                    prod *= abs(a - b) / abs(1 - a * b)
            prods.append(prod)
        assert carleson_delta(seq) == pytest.approx(min(prods), rel=1e-12)

    def test_separation_needs_two(self):
        with pytest.raises(CountingError):
            separation(DiscSequence([0.5]))

    def test_separation_pair(self):
        seq = DiscSequence([0.5, 0.75])
        assert separation(seq) == pytest.approx(0.4, rel=1e-13)

    def test_equally_spaced_radial_triple(self):
        gamma = 0.3
        r1 = 0.1
        r2 = (r1 + gamma) / (1 + gamma * r1)
        r3 = (r2 + gamma) / (1 + gamma * r2)
        seq = DiscSequence([r1, r2, r3])
        assert separation(seq) == pytest.approx(gamma, rel=1e-12)


class TestComparisonAndSandwich:
    def test_singleton_comparison(self):
        seq = DiscSequence([0.5])
        rep = concentration_korenblum_comparison(seq, check_concentration(seq, GF),
                                                 check_korenblum_sum(seq, GF))
        assert rep.lower_ok and rep.upper_ok

    def test_per_term_and_affine_bounds(self):
        rng = np.random.default_rng(26)
        for trial in range(5):
            seq = random_sequence(rng, 25, min_gap=0.005)
            rep = concentration_korenblum_comparison(seq, check_concentration(seq, GF),
                                                     check_korenblum_sum(seq, GF))
            assert rep.lower_ok
            assert rep.upper_ok

    def test_sigma_log_comparison_bounds(self):
        rng = np.random.default_rng(27)
        seq = random_sequence(rng, 30, min_gap=0.004)
        rep = sigma_log_comparison(seq)
        assert rep.holds
        assert rep.min_excess >= -1e-12
        assert rep.max_excess <= math.log(2.5) + 1e-12

    @pytest.mark.parametrize("delta", [DELTA])  # the one radius, named in the test id
    def test_sigma_log_comparison_matches_double_loop(self, delta):
        # the dyadic pairs put |z_j - z_k| exactly on
        # delta (1 - |z_k|) = 2^-(n+1), which the closed mask <= counts
        from discinterp.oscillation import sharpness_sequence

        rng = np.random.default_rng(31)
        for seq in (random_sequence(rng, 40, min_gap=0.004),
                    sharpness_sequence(1.0, 5).to_disc_sequence()):
            v, m = seq.values, seq.moduli
            excess = [
                math.log(abs(1 - v[j].conjugate() * v[k]) / (1 - m[k]))
                for k in range(len(seq)) for j in range(len(seq))
                if 0 < abs(v[j] - v[k]) <= delta * (1 - m[k])
            ]
            rep = sigma_log_comparison(seq)
            assert rep.pair_count == len(excess) > 0
            assert rep.min_excess == pytest.approx(min(excess), abs=1e-15)
            assert rep.max_excess == pytest.approx(max(excess), abs=1e-15)

    def test_reports_of_another_length_are_rejected(self):
        # a report longer or shorter than the sequence is an error, not cut short
        seq = DiscSequence([0.5, 0.3j])
        conc, kore = check_concentration(seq, GF), check_korenblum_sum(seq, GF)
        for other in (DiscSequence([0.5]), DiscSequence([0.5, 0.3j, -0.4])):
            n = len(other)
            with pytest.raises(CountingError, match=f"{n} numerators for 2 nodes"):
                concentration_korenblum_comparison(seq, check_concentration(other, GF), kore)
            with pytest.raises(CountingError, match=f"{n} numerators for 2 nodes"):
                concentration_korenblum_comparison(seq, conc, check_korenblum_sum(other, GF))
            with pytest.raises(CountingError, match=f"{n} numerators for 2 nodes"):
                counting_sandwich_check(seq, GF, check_concentration(other, GF), z_points=[0.1])

    def test_sandwich_singleton(self):
        seq = DiscSequence([0.5])
        rep = counting_sandwich_check(seq, GF, check_concentration(seq, GF), z_points=[])
        assert rep.sandwich_ok
        assert rep.n_bound.best_constant >= 0.0

    def test_sandwich_cluster_lower_bound(self):
        # m extra points inside (DELTA/ALPHA)(1 - |z|) force N >= m ln(ALPHA)
        center = 0.5
        radius = (DELTA / ALPHA) * (1 - center) * 0.9
        pts = [center] + [center + radius * np.exp(2j * np.pi * k / 5) for k in range(5)]
        seq = DiscSequence(pts)
        m = 5
        assert counting_N(seq, center, DELTA * (1 - center)) >= m * math.log(ALPHA) - 1e-9
        rep = counting_sandwich_check(seq, GF, check_concentration(seq, GF), z_points=[])
        assert rep.sandwich_ok

    def test_sandwich_random_with_grid(self):
        rng = np.random.default_rng(28)
        seq = random_sequence(rng, 30, min_gap=0.004)
        grid = [complex(z) for z in 0.8 * np.sqrt(rng.uniform(size=40))
                * np.exp(2j * np.pi * rng.uniform(size=40))]
        rep = counting_sandwich_check(seq, GF, check_concentration(seq, GF), z_points=grid)
        assert rep.sandwich_ok
        assert rep.max_lower_violation <= 1e-12


class TestSharpnessSequenceConditions:
    def test_concentration_constant_near_one(self):
        # on the paired dyadic sequence the best constant approaches 1 from
        # below, with deficit of order n 2^(-n rho) at the deepest pair
        from discinterp.oscillation import sharpness_sequence

        sharp = sharpness_sequence(1.0, 5)
        seq = sharp.to_disc_sequence()
        gf = GrowthFunction("power", 1.0)
        rep = check_concentration(seq, gf)
        assert 0.8 <= rep.best_constant <= 1.0 + 1e-9
        deficit = 1.0 - rep.best_constant
        assert deficit <= 5 * math.log(2) * 2.0**-5 + 0.02

    def test_comparison_finite_and_within_proved_factor(self):
        from discinterp.oscillation import sharpness_sequence

        seq = sharpness_sequence(1.0, 5).to_disc_sequence()
        rep = concentration_korenblum_comparison(seq, check_concentration(seq, GF),
                                                 check_korenblum_sum(seq, GF))
        assert math.isfinite(rep.pointwise_max)
        assert rep.lower_ok and rep.upper_ok


class TestOneModulus:
    """Every per-node radius is DELTA (1 - seq.moduli[k]), to the last bit."""

    @pytest.mark.parametrize("delta", [DELTA])  # the one radius, named in the test id
    def test_N_sums_equal_the_loop_on_moduli(self, delta):
        seq = abs_split_sequence()
        v = seq.values
        sums = np.zeros(len(seq))
        for k in range(len(seq)):
            r = delta * (1.0 - seq.moduli[k])
            d = np.sort(np.abs(v - v[k]))[1:]
            sums[k] = np.sum(np.log(r / d[d <= r]))
        psi = GF.psi(1.0 / (1.0 - seq.moduli))
        assert np.count_nonzero(sums) > len(seq) // 2
        rep = check_concentration(seq, GF)
        assert rep.numerators.tobytes() == sums.tobytes()
        assert not rep.numerators.flags.writeable
        assert (rep.best_constant, rep.witness_index) == (float((sums / psi).max()),
                                                          int(np.argmax(sums / psi)))

    def test_a_neighbour_on_the_korenblum_radius_is_not_close(self):
        # the neighbour sits exactly at DELTA (1 - np.abs(z_k)), which the
        # strict korenblum mask excludes; abs(z_k) is an ulp smaller here
        zk = -0.5481736768171097 + 0.28941791760788355j
        r = 0.5 * (1.0 - np.abs(np.array([zk]))[0])
        seq = DiscSequence([zk, zk + r])
        assert abs(zk) < seq.moduli[0]
        assert np.abs(seq.values[1] - seq.values[0]) == r
        assert check_korenblum_sum(seq, GF).numerators[0] == 0.0

    def test_sandwich_equals_the_loop_on_moduli(self):
        seq = abs_split_sequence()
        rng = np.random.default_rng(32)
        grid = 0.92 * np.sqrt(rng.uniform(size=32)) * np.exp(2j * np.pi * rng.uniform(size=32))
        points = np.concatenate([seq.values, grid])
        moduli = np.concatenate([seq.moduli, np.abs(grid)])
        worst, nums, dens = -math.inf, [], []
        for z, m in zip(points, moduli):
            lower = max(counting_n(seq, z, 0.25 * (1.0 - m)) - 1, 0) * math.log(2.0)
            worst = max(worst, lower - counting_N(seq, z, 0.5 * (1.0 - m)))
            nums.append(float(counting_n(seq, z, 0.5 * (1.0 - m))))
            dens.append(float(GF.psi(1.0 / (1.0 - m))))
        rep = counting_sandwich_check(seq, GF, check_concentration(seq, GF), z_points=grid)
        ratios = np.array(nums) / np.array(dens)
        assert rep.n_bound.numerators.tobytes() == np.array(nums).tobytes()
        assert rep.n_bound.best_constant == float(ratios.max())
        assert rep.n_bound.witness_index == int(np.argmax(ratios))
        assert rep.max_lower_violation == worst
        assert type(rep.max_lower_violation) is float and type(rep.sandwich_ok) is bool

    def test_sandwich_rejects_points_off_the_disc(self):
        seq = DiscSequence([0.5])
        for z in (1.0, 1.5j, complex(math.nan, 0.0)):
            with pytest.raises(CountingError):
                counting_sandwich_check(seq, GF, check_concentration(seq, GF), z_points=[0.1, z])


class TestCrossChecks:
    def test_carleson_below_exp_of_minus_korenblum_witness(self):
        rng = np.random.default_rng(29)
        seq = random_sequence(rng, 20, min_gap=0.01)
        rep = check_korenblum_sum(seq, GF)
        witness_sum = rep.best_constant * float(GF.psi(
            1 / (1 - seq.moduli[rep.witness_index])))
        assert carleson_delta(seq) <= math.exp(-witness_sum) + 1e-12
