"""Tests for the ODE-coefficient construction and the sharpness sequence."""

import hashlib
import json
import math
import os

from types import SimpleNamespace

import numpy as np
import pytest

from discinterp.counting import counting_N
from discinterp.geometry import DiscSequence, _Pcg64
from discinterp import products
from discinterp.growth import GrowthFunction
from discinterp.harness import generate_sequence
from discinterp.interpolation import Interpolant
from discinterp.oscillation import (
    _PANEL_TS,
    _PANEL_WEIGHTS,
    WINDING_CAP,
    WINDING_START,
    OscillationError,
    OscillationSolution,
    _w8,
    _x8,
    build_coefficient,
    osc_targets,
    sharpness_counting_check,
    sharpness_growth_witness,
    sharpness_sequence,
)
from discinterp.products import CanonicalProduct

from helpers import abs_split_sequence, lattice_instance, zero_count_circle

GF1 = GrowthFunction("power", 1.0)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
# sha256 of the residual sample points of configs/oscillate.json (200 complex
# doubles), recorded with the sample-by-sample residual_report
OSCILLATE_POINTS_SHA256 = "0262ba505f6f78806a86f399b19e8d349da0f2d325a91face1c3ec6bb8d548d6"


def cauchy_ratio_targets(cp, k, n_points=1024):
    """Contour oracle for -P''(z_k) / (2 P'(z_k))."""
    zk = cp.sequence.values[k]
    r = (1 - cp.sequence.moduli[k]) / 4
    thetas = 2 * np.pi * np.arange(n_points) / n_points
    ring = zk + r * np.exp(1j * thetas)
    vals = cp.P(ring)
    p1 = np.mean(vals * np.exp(-1j * thetas)) / r
    p2 = 2.0 * np.mean(vals * np.exp(-2j * thetas)) / r**2
    return complex(-p2 / (2 * p1))


class TestOscTargets:
    def test_singleton_closed_form(self):
        z1 = 0.45 + 0.2j
        for s in (1, 2):
            cp = CanonicalProduct(DiscSequence([z1]), s)
            b = osc_targets(cp)
            expected = -(s + 1) * np.conj(z1) / (1 - abs(z1) ** 2)
            assert b[0] == pytest.approx(expected, rel=1e-13)

    def test_matches_cauchy_oracle(self):
        rng = np.random.default_rng(60)
        pts = []
        while len(pts) < 8:
            z = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - w) > 0.05 for w in pts):
                pts.append(complex(z))
        cp = CanonicalProduct(DiscSequence(pts), 2)
        b = osc_targets(cp)
        for k in range(len(pts)):
            assert b[k] == pytest.approx(cauchy_ratio_targets(cp, k), rel=1e-8)

    def test_conjugate_pair_symmetry(self):
        z = 0.5 + 0.3j
        cp = CanonicalProduct(DiscSequence([z, np.conj(z)]), 1)
        b = osc_targets(cp)
        assert b[0] == pytest.approx(np.conj(b[1]), rel=1e-13)

    def test_magnitude_bound_constant(self):
        # ln|b_k| <= C psi_tilde + ln(4 / (1 - |z_k|)) with finite measured C
        seq, _ = lattice_instance(seed=61, gf=GF1, max_points=25)
        cp = CanonicalProduct(seq, GF1.genus)
        b = osc_targets(cp)
        tilde = GF1.psi_tilde(1 / (1 - seq.moduli))
        slack = np.log(4.0 / (1 - seq.moduli))
        measured = (np.log(np.abs(b)) - slack) / tilde
        assert np.all(np.isfinite(measured))
        assert measured.max() < 50.0


class TestBuildCoefficient:
    # these run at the minimum admissible C0: the empirical growth constant
    # carries C0-power amplification, and for rho >= 1 with nodes near 0.8
    # the interpolant already overflows doubles at C0 = 8
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_residual_small(self, rho):
        gf = GrowthFunction("power", rho)
        seq, _ = lattice_instance(seed=62, gf=gf, rings=3, r0=0.45,
                                  max_points=18)
        sol = build_coefficient(seq, gf, C0=2.0)
        rep = sol.residual_report(n_samples=60, seed=5)
        assert rep.max_residual < 1e-6

    def test_f_vanishes_exactly_on_nodes(self):
        seq, _ = lattice_instance(seed=63, gf=GF1, max_points=12)
        sol = build_coefficient(seq, GF1, C0=2.0)
        for zk in seq.values:
            assert np.isneginf(sol.product.log_P_many(zk).real)

    def test_argument_principle_counts(self):
        seq, _ = lattice_instance(seed=64, gf=GF1, max_points=12)
        sol = build_coefficient(seq, GF1, C0=2.0)
        counts = sol.zero_counts()
        assert np.all(np.abs(counts - 1.0) < 1e-6)

    def test_node_free_annulus_is_empty(self):
        seq = DiscSequence([0.2, 0.25j, 0.85, 0.8j])
        sol = build_coefficient(seq, GF1, C0=2.0)
        inner = zero_count_circle(sol, 0.0, 0.4, 2048)
        outer = zero_count_circle(sol, 0.0, 0.7, 2048)
        assert outer - inner == pytest.approx(0.0, abs=1e-6)
        assert inner == pytest.approx(2.0, abs=1e-6)

    def test_coefficient_analytic_across_nodes(self):
        # max principle: |a| on shrinking circles around a node cannot grow
        seq, _ = lattice_instance(seed=65, gf=GF1, max_points=10)
        sol = build_coefficient(seq, GF1, C0=2.0)
        thetas = np.exp(2j * np.pi * np.arange(64) / 64)
        for k in (0, len(seq) - 1):
            zk = seq.values[k]
            gap = 1 - seq.moduli[k]
            maxima = []
            for frac in (1e-1, 1e-2, 1e-3, 1e-4):
                ring = zk + frac * gap * thetas
                maxima.append(float(np.abs(sol._coefficient(ring)[0]).max()))
            assert maxima[-1] <= maxima[0] * (1 + 1e-3) + 1e-9
            assert all(math.isfinite(m) for m in maxima)

    def test_gprime_derivative_matches_finite_difference(self):
        seq, _ = lattice_instance(seed=69, gf=GF1, max_points=10)
        sol = build_coefficient(seq, GF1, C0=2.0)
        h = sol.gprime
        for z in (0.1 + 0.1j, -0.3j, 0.45):
            step = 1e-6 * (1 - abs(z))
            fd = (h.eval_many(z + step) - h.eval_many(z - step)) / (2 * step)
            assert h.derivative_many(z) == pytest.approx(fd, rel=1e-5)

    def test_coefficient_log_matches_direct_value(self):
        seq, _ = lattice_instance(seed=70, gf=GF1, max_points=10)
        sol = build_coefficient(seq, GF1, C0=2.0)
        zs = np.array([0.2 + 0.1j, -0.5j, 0.66])
        direct = sol._coefficient(zs)[0]
        via_log = np.exp(sol.coefficient_log_many(zs))
        assert np.allclose(direct, via_log, rtol=1e-10)

    def test_growth_of_coefficient_bounded(self):
        seq, _ = lattice_instance(seed=71, gf=GF1, max_points=15)
        sol = build_coefficient(seq, GF1, C0=2.0)
        table = sol.growth_a_report([0.9, 0.99, 0.999], theta_count=128)
        ratios = [row.ratio for row in table.rows]
        assert all(math.isfinite(r) for r in ratios)
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 2.0 * max(a, 0.1)

    def test_one_column_block_pass_for_all_radii(self, monkeypatch):
        # every ring is a row of one coefficient_log_many batch: one _blockwise call
        seq, _ = lattice_instance(seed=71, gf=GF1, max_points=15)
        sol = build_coefficient(seq, GF1, C0=2.0)
        calls, blockwise = [], CanonicalProduct._blockwise
        monkeypatch.setattr(CanonicalProduct, "_blockwise",
                            lambda self, n, block: calls.append(n) or blockwise(self, n, block))
        sol.growth_a_report([0.5, 0.9, 0.99, 0.999], theta_count=128)
        assert calls == [4 * 128]

    def test_growth_radius_outside_the_disc_is_an_oscillation_error(self):
        seq, _ = lattice_instance(seed=71, gf=GF1, max_points=6)
        sol = build_coefficient(seq, GF1, C0=2.0)
        with pytest.raises(OscillationError):
            sol.growth_a_report([0.5, 1.5], theta_count=16)


def shipped_oscillate(rings=None):
    """(solution, config) of configs/oscillate.json, optionally with another ring count."""
    with open(os.path.join(CONFIG_DIR, "oscillate.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    spec = cfg["sequence"] if rings is None else dict(cfg["sequence"], rings=rings,
                                                      max_points=1000)
    seq = generate_sequence(spec, cfg["seed"])
    gf = GrowthFunction(cfg["growth"]["family"], cfg["growth"]["param"])
    return build_coefficient(seq, gf, C0=cfg["C0"]), cfg


class TestOneFactorPass:
    """The coefficient's single evaluation gives the bits of the separate passes."""

    @pytest.fixture(scope="class", params=["four-nodes", "shipped-lattice"])
    def case(self, request):
        if request.param == "four-nodes":
            sol = build_coefficient(DiscSequence([0.5, 0.3 + 0.4j, -0.6j, 0.7]), GF1, C0=2.0)
        else:
            sol = shipped_oscillate()[0]
        rng = np.random.default_rng(13)
        zs = 0.95 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
        # and a ring next to the first node
        zk = sol.sequence.values[0]
        zs = np.concatenate([zs, zk + 1e-6 * (1 - abs(zk)) * np.exp(0.5j + np.arange(8))])
        return sol, zs

    def test_log_derivatives_equal_the_product_passes(self, case):
        sol, zs = case
        *_, lp, lp2 = sol.gprime.eval_and_derivative_many(zs)
        assert np.array_equal(lp, sol.product.log_deriv_P_many(zs))
        assert np.array_equal(lp2, sol.product.log_deriv_prime_many(zs))

    def test_coefficient_equals_the_three_call_formula(self, case):
        sol, zs = case
        h, hp, lam_h, lam_hp = sol.gprime.eval_and_derivative_many(zs)[:4]
        lp = sol.product.log_deriv_P_many(zs)
        lp2 = sol.product.log_deriv_prime_many(zs)
        assert np.array_equal(sol._coefficient(zs)[0],
                              -(lp**2 + lp2) - 2.0 * h * lp - h**2 - hp)
        comp = np.stack([2.0 * lam_h + 1j * math.pi, lam_hp + 1j * math.pi,
                         np.log(lp**2 + lp2) + 1j * math.pi,
                         lam_h + np.log(2.0 * lp) + 1j * math.pi])
        assert np.array_equal(sol.coefficient_log_many(zs), products.logsumexp_complex(comp))


class TestResidualReportBatching:
    def test_shipped_config_calls_and_points(self, monkeypatch):
        sol, cfg = shipped_oscillate()
        calls = {"_factors": 0, "_log_E": 0, "_g_increments": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CanonicalProduct, "_factors",
                            counted("_factors", CanonicalProduct._factors))
        monkeypatch.setattr(products, "_log_E", counted("_log_E", products._log_E))
        monkeypatch.setattr(type(sol), "_g_increments",
                            counted("_g_increments", type(sol)._g_increments))
        n = cfg["residual_samples"]
        rep = sol.residual_report(n_samples=n, seed=cfg["seed"])
        digest = hashlib.sha256(np.asarray(rep.points, dtype=complex).tobytes()).hexdigest()
        assert digest == OSCILLATE_POINTS_SHA256
        # one factor pass for a(z0) at every sample, then one per chunk of
        # samples, each 7 stencil points and 6 panels of 8.  At N = 12 a
        # column block is 2^14 // 12 = 1,365 points wide, so a chunk holds
        # 1,365 // 55 = 24 samples, one full block: 9 chunks for 200 samples
        # (12 when a chunk held 1,024 // 55 = 18)
        assert len(sol.sequence) == 12 and n == 200
        assert calls == {"_factors": 10, "_log_E": 10, "_g_increments": 9}
        assert rep.max_residual < 1e-9

    @staticmethod
    def samples_one_draw_at_a_time(nodes, n_samples, seed):
        """The residual samples as first placed: one (u, v) pair, candidate and test at a time."""
        rng, zs, gaps, attempts = _Pcg64(seed), [], [], 0
        while len(zs) < n_samples and attempts < 200 * n_samples:
            attempts += 1
            u, v = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            z = 0.8 * math.sqrt(u) * np.exp(2j * math.pi * v)
            gap = np.abs(nodes - z).min(initial=np.inf)
            if gap < 0.1 * (1.0 - abs(z)):
                continue
            zs.append(complex(z))
            gaps.append(gap)
        if len(zs) < n_samples:
            raise OscillationError("could not place residual sample points")
        return np.asarray(zs, dtype=complex), np.asarray(gaps)

    @pytest.mark.parametrize("spacing, n_samples, seed", [(None, 200, 0), (None, 500, 5),
                                                          (0.1, 300, 1), (0.04, 40, 2)])
    def test_samples_drawn_in_blocks_equal_one_draw_at_a_time(self, spacing, n_samples, seed):
        # the shipped nodes, and square grids of nodes in |z| < 0.85 that turn
        # away many candidates, so that the samples take several blocks
        sol = shipped_oscillate()[0]
        if spacing is not None:
            x = np.arange(-0.85, 0.85, spacing)
            grid = (x[:, None] + 1j * x[None, :]).ravel()
            sol = SimpleNamespace(sequence=SimpleNamespace(values=grid[np.abs(grid) < 0.85]))
        want = self.samples_one_draw_at_a_time(sol.sequence.values, n_samples, seed)
        got = OscillationSolution._residual_samples(sol, n_samples, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_samples_stop_at_200_candidates_each(self):
        # nodes 0.01 apart leave every point of |z| < 0.8 within 0.0071 of a
        # node, below (1 - |z|)/10: both placements give up after 200 draws
        x = np.arange(-0.9, 0.9, 0.01)
        grid = (x[:, None] + 1j * x[None, :]).ravel()
        sol = SimpleNamespace(sequence=SimpleNamespace(values=grid[np.abs(grid) < 0.9]))
        with pytest.raises(OscillationError, match="could not place"):
            self.samples_one_draw_at_a_time(sol.sequence.values, 1, 0)
        drawn = []
        uniforms = _Pcg64.uniforms

        def counted(self, low, high, size):
            drawn.append(size)
            return uniforms(self, low, high, size)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Pcg64, "uniforms", counted)
            with pytest.raises(OscillationError, match="could not place"):
                OscillationSolution._residual_samples(sol, 1, 0)
        assert drawn == [2] * 200

    def test_g_increments_match_a_32_point_panel_per_offset(self):
        # oracle: g(z0 + j step) - g(z0) by a separate 32-point Gauss-Legendre
        # panel from z0 to each stencil point, as the report once computed it
        sol, cfg = shipped_oscillate()
        rep = sol.residual_report(n_samples=cfg["residual_samples"], seed=cfg["seed"])
        z0 = np.asarray(rep.points)
        _, step = sol._stencil_steps(z0, np.array([np.min(np.abs(sol.sequence.values - z))
                                                   for z in z0]))
        _, dg = sol._g_increments(z0, step)
        x, w = np.polynomial.legendre.leggauss(32)
        offsets = np.arange(-3, 4)[None, :] * step[:, None]
        pts = z0[:, None, None] + offsets[:, :, None] * (0.5 * (x + 1.0))
        ref = (sol.gprime.eval_many(pts.ravel()).reshape(pts.shape) * (0.5 * w)).sum(axis=2) * offsets
        assert np.all(dg[:, 3] == 0.0)
        np.testing.assert_allclose(dg, ref, rtol=1e-12, atol=0.0)


class TestGaussPanel:
    """The residual's 8-point Gauss-Legendre panel, written out as float literals."""

    def test_literals_equal_numpy_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(_x8, x) and np.array_equal(_w8, w)

    def test_panel_integrates_degree_15_on_the_unit_interval(self):
        # exact to degree 2 * 8 - 1; the rounded nodes and weights (sum 1) miss
        # 1/(k+1) by at most 0.35 eps, up to 22 ulp of 1/(k+1) at k = 8
        eps = np.finfo(float).eps
        for k in range(16):
            got = float((_PANEL_WEIGHTS * _PANEL_TS ** k).sum())
            assert abs(got - 1.0 / (k + 1)) <= 4 * eps, k


@pytest.fixture
def eval_widths(monkeypatch):
    """Sizes of the batches passed to Interpolant.eval_many, in call order."""
    widths = []
    original = Interpolant.eval_many

    def recorded(self, z):
        widths.append(np.size(z))
        return original(self, z)

    monkeypatch.setattr(Interpolant, "eval_many", recorded)
    return widths


class TestWindingRule:
    @pytest.mark.parametrize("rings", [None, 5])
    def test_batched_counts_match_the_1024_point_rule(self, rings):
        sol, _ = shipped_oscillate(rings)
        if rings == 5:
            assert len(sol.sequence) == 44
        counts = sol.zero_counts()
        radii = sol._winding_radii()
        for k, zk in enumerate(sol.sequence.values):
            one = zero_count_circle(sol, complex(zk), float(radii[k]), 1024)
            assert abs(counts[k] - one) <= 1e-10

    @staticmethod
    def assert_per_node_rule(sol):
        nodes, exps = sol.sequence.values, sol.gprime.exponents
        radii = sol._winding_radii()
        for k, zk in enumerate(nodes):
            gap = np.min(np.abs(np.delete(nodes, k) - zk))
            one_minus = 1.0 - sol.sequence.moduli[k]
            assert radii[k] == 0.4 * min(gap, one_minus, 5.0 * one_minus / (1.0 + exps[k]))

    def test_radii_match_the_per_node_rule(self):
        self.assert_per_node_rule(shipped_oscillate()[0])

    def test_radii_follow_moduli_where_abs_rounds_differently(self):
        self.assert_per_node_rule(build_coefficient(abs_split_sequence(12), GF1, C0=2.0))

    def test_doubling_stops_at_convergence_or_the_cap(self, eval_widths):
        # nodes at 0.8 and 0.85 sit 1/0.875 and 1/0.9875 radii from the two
        # circles, so the trapezoid error falls like 0.875^n and 0.9875^n
        sol = build_coefficient(DiscSequence([0.2, 0.25j, 0.85, 0.8j]), GF1, C0=2.0)
        counts, points = sol._winding_numbers(np.zeros(2, dtype=complex),
                                              np.array([0.7, 0.79]))
        assert WINDING_START < points[0] < WINDING_CAP
        assert points[1] == WINDING_CAP
        assert counts[0] == pytest.approx(2.0, abs=1e-12)
        assert counts[1] == pytest.approx(2.0, abs=1e-3)
        # each doubling evaluates only its new points
        assert sum(eval_widths) == points.sum()

    def test_factor_passes_run_in_column_blocks(self, monkeypatch):
        # every factor pass of the three checks is one column block: at least
        # 2 wide, as a width-1 pass would round the axis-0 sums of the factor
        # matrix differently (none of their batches is a single point), and
        # at most the block width plus a joined remainder of 1
        sol, cfg = shipped_oscillate(5)
        widths = []
        geometry = CanonicalProduct._geometry
        monkeypatch.setattr(CanonicalProduct, "_geometry",
                            lambda self, z: widths.append(len(z)) or geometry(self, z))
        sol.zero_counts()
        sol.residual_report(n_samples=cfg["residual_samples"], seed=cfg["seed"])
        sol.growth_a_report(cfg["r_grid"], cfg["theta_count"])
        cap = max(2, (1 << 14) // len(sol.sequence)) + 1
        assert widths and all(2 <= w <= cap for w in widths)


class TestSharpnessSequence:
    def test_first_pair_values(self):
        seq = sharpness_sequence(1.0, 1)
        assert seq.positions[0] == 0.5
        assert seq.positions[1] == pytest.approx(0.5 + 0.5 * math.exp(-2.0),
                                                 abs=1e-16)

    def test_gap_records_exact(self):
        for rho in (0.5, 1.0, 2.0):
            seq = sharpness_sequence(rho, 20)
            for n in range(1, 21):
                assert seq.log_eps[2 * n - 1] == -(2.0 ** (n * rho)) - math.log(2.0)

    def test_gap_record_matches_double_where_representable(self):
        # the realized double gap differs from eps_n by up to one ulp of the
        # position, which dominates the comparison for small eps
        seq = sharpness_sequence(1.0, 5)
        g = seq.log_gaps
        for n in range(1, 6):
            lo, hi = 2 * n - 2, 2 * n - 1
            direct = math.log(seq.positions[hi] - seq.positions[lo])
            tol = 4e-16 / seq.eps[hi] + 1e-12
            assert g[lo, hi] == pytest.approx(direct, abs=tol)

    def test_gap_matrix_is_built_once_and_read_only(self):
        seq = sharpness_sequence(1.0, 6)
        g = seq.log_gaps
        assert g is seq.log_gaps
        assert not g.flags.writeable
        assert np.all(np.isinf(np.diag(g)))

    def test_strictly_increasing_in_unit_interval(self):
        for rho in (0.5, 1.0, 2.0):
            seq = sharpness_sequence(rho, 20)
            kept = seq.positions[~seq.log_only]
            assert np.all(np.diff(kept) > 0)
            assert kept[0] > 0 and kept[-1] < 1

    def test_invalid_parameters(self):
        with pytest.raises(OscillationError):
            sharpness_sequence(-1.0, 5)
        with pytest.raises(OscillationError):
            sharpness_sequence(1.0, 0)

    def test_counting_matches_brute_force_on_representable(self):
        # independent oracle: double-precision counting on the same points
        sharp = sharpness_sequence(1.0, 4)
        disc = sharp.to_disc_sequence()
        assert len(disc) == 8
        for m in range(8):
            z = complex(disc.values[m])
            r = 0.5 * (1 - abs(z))
            assert sharp.counting_N_log(m) == pytest.approx(
                counting_N(disc, z, r), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_ratio_converges_to_one(self, rho):
        rows = sharpness_counting_check(sharpness_sequence(rho, 20))
        ratios = [r.ratio for r in rows]
        # |ratio - 1| is within the n 2^(-n rho) envelope of the O(n) term
        for r in rows:
            assert abs(r.ratio - 1.0) <= r.n * 2.0 ** (-r.n * rho) + 1e-9
        for a, b in zip(ratios[4:], ratios[5:]):
            assert b >= a - 1e-12

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_counting_ratio_closed_form(self, rho):
        # N(z_2n) / 2^(n rho) = 1 - n ln2 / 2^(n rho): the window of
        # criterion 7 excludes rho = 0.5, n = 10..15 by this formula
        seq = sharpness_sequence(rho, 20)
        for n in range(10, 21):
            ratio = seq.counting_N_log(2 * n - 1) / 2.0 ** (n * rho)
            assert ratio == pytest.approx(1.0 - n * math.log(2.0) / 2.0 ** (n * rho), abs=1e-12)

    def test_ratio_rho_one_n_ten_within_five_percent(self):
        rows = sharpness_counting_check(sharpness_sequence(1.0, 10))
        assert abs(rows[-1].ratio - 1.0) < 0.05

    def test_log_only_flags(self):
        seq = sharpness_sequence(1.0, 10)
        # gaps below about e^-700 cannot be represented at all; gaps below
        # one ulp of the position collapse in double precision
        assert not seq.log_only[1]   # eps_1 = e^-2 / 2
        assert seq.log_only[2 * 10 - 1]  # eps_10 = e^-1024 / 2


class TestGrowthWitness:
    def test_lower_column_is_exact_formula(self):
        seq = sharpness_sequence(1.0, 8)
        rep = sharpness_growth_witness(seq, 0.5)
        for n, lower, _ in rep.rows:
            assert lower == 2.0**n - math.log(5.0)

    def test_crossing_index_via_integer_scan(self):
        rho, eps0 = 1.0, 0.5
        seq = sharpness_sequence(rho, 12)
        rep = sharpness_growth_witness(seq, eps0)
        scan = None
        for n in range(1, 13):
            lower = 2.0 ** (n * rho) - math.log(5.0)
            upper = (1.0 / (1.0 - seq.positions[2 * n - 1])) ** (rho - eps0 / 2)
            if lower > upper:
                scan = n
                break
        assert rep.crossing_index == scan == 3

    def test_no_witness_at_equal_scales(self):
        rep = sharpness_growth_witness(sharpness_sequence(1.0, 10), 0.0)
        assert rep.crossing_index is None
