"""Tests for the coefficient ladder and the interpolation series."""

import json
import math
import tracemalloc
from operator import attrgetter
from pathlib import Path

import mpmath
import numpy as np
import pytest

from discinterp import interpolation, products
from discinterp.geometry import DiscSequence
from discinterp.harness import generate_sequence, generate_targets
from discinterp.growth import GrowthFunction
from discinterp.interpolation import (
    _MARGIN,
    Interpolant,
    InterpolationError,
    LadderError,
    TargetData,
    build_interpolant,
    build_ladder,
    growth_report,
    ladder_for_sequence,
    max_term_bound_report,
    select_exponents,
)
from discinterp.oscillation import build_coefficient, osc_targets, sharpness_sequence
from discinterp.products import CanonicalProduct, ProductsError

from helpers import (
    DenseLadder,
    dense_ladder,
    dense_terms,
    dense_value_logs,
    lattice_instance,
    one_pass_derivatives,
    raw_conjugate,
    scan_max_term,
    small_radial_instance,
    spiral_sequence,
)

GF1 = GrowthFunction("power", 1.0)
SPIRAL_FAMILIES = (GF1, GrowthFunction("log_power", 2.0), GrowthFunction("exp_log_power", 0.5))


def interpolant_on(ladder, seq, values):
    """What ``build_interpolant`` builds over ``seq`` with ``ladder.gf``, on a ladder built once."""
    product = CanonicalProduct(seq, ladder.gf.genus)
    return Interpolant(product, TargetData.from_values(seq, ladder.gf, values),
                       select_exponents(ladder, seq), ladder)


@pytest.fixture(scope="module")
def spiral_ladders():
    """The 200-node spiral down to 1-|z| = 1e-4 with its ladder per family."""
    seq = spiral_sequence()
    return seq, {gf.family: ladder_for_sequence(gf, 8.0, seq) for gf in SPIRAL_FAMILIES}


@pytest.fixture(scope="module")
def spiral_oracles(spiral_ladders):
    """The dense oracle and the raw conjugate v(0..n_max) of each spiral ladder."""
    return {f: (dense_ladder(lad.gf, lad.C0, lad.n_max), raw_conjugate(lad.gf, lad.C0, lad.n_max))
            for f, lad in spiral_ladders[1].items()}


def log_coeffs(ladder, n):
    """ln phi_n of an implicit ladder at the indices n."""
    return -ladder._conjugate(np.asarray(n, dtype=float))[0]


def margin(ladder, log_t):
    """The rounding margin E of the ladder's windows at log_t."""
    return _MARGIN * (ladder._scale + ladder.n_max * abs(log_t))


def oracle_select_error(ladder, seq):
    """The message select_exponents must raise, from full scans, or None."""
    for m in seq.moduli:
        log_t = -math.log1p(-m)
        b = int(np.searchsorted(ladder.log_kappas, log_t, side="right")) - 1
        top, best = scan_max_term(ladder.log_coeffs, log_t)
        at_b = ladder.log_coeffs[b] + b * log_t
        if best != b and top - at_b > 1e-9 * max(1.0, abs(at_b)):
            return f"maximal term attained at {best}, bucket gave {b}"
    return None


def oracle_exponents(seq, gf, C0=8.0):
    """Exponents from the kappa buckets of the dense ladder, clamped to at least 1."""
    dense = dense_ladder(gf, C0, ladder_for_sequence(gf, C0, seq).n_max)
    buckets = np.searchsorted(dense.log_kappas, -np.log1p(-seq.moduli), side="right") - 1
    return np.maximum(buckets, 1)


class TestBuildLadder:
    def test_zeroth_coefficient_is_value_at_zero(self):
        # the conjugate objective is decreasing in u at n = 0, so the sup
        # sits at u = 0 and ln phi_0 = C0 psi_tilde(C0)
        for gf in (GF1, GrowthFunction("log_power", 2.0)):
            for C0 in (2.0, 8.0):
                ladder = build_ladder(gf, C0, 10)
                assert log_coeffs(ladder, [0])[0] == pytest.approx(
                    C0 * float(gf.psi_tilde(C0)), rel=1e-12)

    def test_power_one_closed_form_conjugate(self):
        # for psi = x the conjugate of C0 (C0 e^u - 1) is explicit
        C0 = 2.0
        ladder = build_ladder(GF1, C0, 30)
        coeffs = log_coeffs(ladder, np.arange(31))
        for n in range(31):
            if n <= C0**2:
                expected = -(C0**2 - C0)
            else:
                expected = n * math.log(n / C0**2) - n + C0
            assert -coeffs[n] == pytest.approx(expected, abs=1e-8)

    def test_kappa_nondecreasing_exactly(self):
        # the dense oracle lifts its increments; the implicit buckets follow t
        for gf in (GrowthFunction("power", 0.5), GF1, GrowthFunction("power", 2.0),
                   GrowthFunction("log_power", 2.0), GrowthFunction("exp_log_power", 0.5)):
            dense = dense_ladder(gf, 8.0, 400)
            assert np.all(np.diff(dense.log_kappas[1:]) >= 0.0)
            grid = np.linspace(0.0, dense.log_kappas[-1], 500)
            buckets = build_ladder(gf, 8.0, 400).scan(grid)[0]
            assert np.all(np.diff(buckets) >= 0)
            assert np.array_equal(
                buckets, np.searchsorted(dense.log_kappas, grid, side="right") - 1)

    def test_too_slow_growth_raises(self):
        with pytest.raises(LadderError):
            build_ladder(GrowthFunction("log_power", 0.0), 2.0, 50)

    def test_c0_floor(self):
        with pytest.raises(LadderError):
            build_ladder(GF1, 1.0, 10)

    def test_length_limit_is_2_to_the_53(self):
        # the ladder holds no array, so only exact float64 indices bound it
        ladder = build_ladder(GF1, 8.0, 2**53 - 1)
        assert ladder.n_max == 2**53 - 1
        for n_max in (0, 2**53):
            with pytest.raises(LadderError):
                build_ladder(GF1, 8.0, n_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_t_raises(self, bad):
        with pytest.raises(LadderError, match="finite"):
            build_ladder(GF1, 8.0, 400).scan([0.5, bad])

    def test_holds_no_array(self):
        ladder = build_ladder(GF1, 8.0, 1_280_008)
        assert not any(isinstance(v, np.ndarray) for v in vars(ladder).values())


class TestSelectExponents:
    def test_bucket_matches_scan_oracle(self):
        seq = DiscSequence([0.3, 0.6, 0.85, 0.93])
        ladder = ladder_for_sequence(GF1, 8.0, seq)
        coeffs = dense_ladder(GF1, 8.0, ladder.n_max).log_coeffs
        s = select_exponents(ladder, seq)
        for k in range(len(seq)):
            _, best = scan_max_term(coeffs, -math.log1p(-seq.moduli[k]))
            assert s[k] == best

    def test_monotone_in_modulus(self):
        seq = DiscSequence([0.2, 0.5, 0.8, 0.95])
        ladder = ladder_for_sequence(GrowthFunction("power", 2.0), 8.0, seq)
        s = select_exponents(ladder, seq)
        assert np.all(np.diff(s) >= 0)

    def test_clamped_lowest_bucket(self):
        # a node essentially at the origin falls below kappa_1
        seq = DiscSequence([1e-8])
        ladder = build_ladder(GrowthFunction("log_power", 2.0), 2.0, 50)
        s = select_exponents(ladder, seq)
        assert s[0] == 1

    def test_ladder_too_short(self):
        seq = DiscSequence([0.99])
        ladder = build_ladder(GF1, 8.0, 5)
        with pytest.raises(LadderError):
            select_exponents(ladder, seq)

    def test_ladder_for_sequence_raises_when_the_scan_finds_no_cover(self, monkeypatch):
        seq = DiscSequence([0.3, 0.999])
        ladder = ladder_for_sequence(GF1, 8.0, seq)
        assert ladder.scan(math.log(2.0) - math.log1p(-0.999))[0][0] < ladder.n_max
        monkeypatch.setattr(interpolation.CoefficientLadder, "scan",
                            lambda self, log_t: (np.array([self.n_max]),) * 4)
        with pytest.raises(LadderError, match="grows too slowly to cover the node set"):
            ladder_for_sequence(GF1, 8.0, seq)

    @pytest.mark.parametrize("gf", SPIRAL_FAMILIES, ids=lambda g: g.family)
    def test_equal_to_the_dense_oracle_on_the_spiral(self, spiral_ladders, spiral_oracles, gf):
        seq, ladders = spiral_ladders
        ladder, (dense, _) = ladders[gf.family], spiral_oracles[gf.family]
        log_t = -np.log1p(-seq.moduli)
        assert np.array_equal(ladder.scan(log_t)[0],
                              np.searchsorted(dense.log_kappas, log_t, side="right") - 1)
        assert np.array_equal(select_exponents(ladder, seq), select_exponents(dense, seq))

    @pytest.mark.parametrize("gf, seq", [
        (GrowthFunction("power", 0.5), spiral_sequence(60, depth=1e-3)),
        (GrowthFunction("power", 2.0), spiral_sequence(60, depth=0.05)),
    ], ids=["power-0.5", "power-2"])
    def test_equal_to_the_dense_oracle_on_shorter_spirals(self, gf, seq):
        s = select_exponents(ladder_for_sequence(gf, 8.0, seq), seq)
        assert np.array_equal(s, oracle_exponents(seq, gf))

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_to_the_dense_oracle_on_random_sequences(self, seed):
        rng = np.random.default_rng(700 + seed)
        for gf, top in ((GrowthFunction("power", 0.5), 0.999), (GF1, 0.999),
                        (GrowthFunction("power", 2.0), 0.95), (GrowthFunction("log_power", 2.0), 0.9999),
                        (GrowthFunction("exp_log_power", 0.5), 0.9999)):
            seq = DiscSequence(rng.uniform(0.05, top, 30) * np.exp(2j * np.pi * rng.uniform(size=30)))
            for C0 in (2.0, 8.0):
                s = select_exponents(ladder_for_sequence(gf, C0, seq), seq)
                assert np.array_equal(s, oracle_exponents(seq, gf, C0))

    def test_reads_a_few_cells_per_node(self, spiral_ladders, monkeypatch):
        # power(1) needs n_max = 1,280,008 on the spiral; each node reads its window
        seq, ladders = spiral_ladders
        cells = []
        psi_tilde_log = GrowthFunction.psi_tilde_log
        monkeypatch.setattr(GrowthFunction, "psi_tilde_log",
                            lambda self, u: cells.append(np.size(u)) or psi_tilde_log(self, u))
        select_exponents(ladders["power"], seq)
        assert 0 < sum(cells) <= 10 * len(seq)

class TestDeepSpirals:
    """20-node spirals whose ladders run to 10^7 and 2·10^9 cells."""

    @pytest.mark.parametrize("gf, depth, n_max, top", [
        (GF1, 1e-5, 12_800_008, 6_400_000),
        (GrowthFunction("power", 2.0), 1e-3, 2_048_000_007, 511_999_270),
    ], ids=["power-1", "power-2"])
    def test_no_longer_stop_at_the_ladder(self, gf, depth, n_max, top):
        seq = spiral_sequence(20, depth=depth)
        targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, gf, 0)
        f = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 8.0)
        ladder = f.ladder
        assert (ladder.n_max, int(f.exponents.max())) == (n_max, top)
        assert np.all(np.diff(f.exponents) >= 0)
        # the identity gate of the interpolate task holds
        assert float(f.interpolation_errors().max()) < 1e-8

    @pytest.mark.parametrize("rho", [30.0, 300.0, 3e3, 3e4, 1e6])
    def test_a_crossing_past_2_53_is_refused_by_the_ladder(self, rho):
        # from rho = 300 on, C0 psi(C0 t) overflows to inf before the ladder sees it
        with pytest.raises(LadderError, match=r"ladder length \d+ outside \[1, 2\^53\)"):
            ladder_for_sequence(GrowthFunction("power", rho), 2.0, DiscSequence([0.5, 0.7]))

    def test_unresolved_increments_raise(self):
        # power(2) down to 1e-4 needs n_max ~ 2e11, where rounding blurs
        # the increments over more cells than a scan reads
        with pytest.raises(LadderError, match="not resolved in double precision"):
            ladder_for_sequence(GrowthFunction("power", 2.0), 8.0, spiral_sequence())


class TestPrunedMaxTermScan:
    """scan reads windows only, so its maximal terms are pinned to full scans of the raw conjugate."""

    @staticmethod
    def assert_matches_full_scan(ladder, raw, log_ts):
        values, indices = ladder.scan(log_ts)[2:]
        oracle = [scan_max_term(-raw, t) for t in log_ts]
        assert values.tobytes() == np.array([v for v, _ in oracle]).tobytes()
        assert indices.tolist() == [i for _, i in oracle]

    @staticmethod
    def node_sample(seq, family):
        # full scans of the 1,280,008 power cells cost 10 ms each, so that family
        # takes every 20th node and the deepest one
        log_t = -np.log1p(-seq.moduli)
        return log_t[np.r_[0:len(log_t):20, -1]] if family == "power" else log_t

    @pytest.mark.parametrize("gf", SPIRAL_FAMILIES, ids=lambda g: g.family)
    def test_equals_the_scan_on_the_spiral(self, spiral_ladders, spiral_oracles, gf):
        seq, ladders = spiral_ladders
        raw = spiral_oracles[gf.family][1]
        self.assert_matches_full_scan(ladders[gf.family], raw, self.node_sample(seq, gf.family))

    @pytest.mark.parametrize("gf", SPIRAL_FAMILIES, ids=lambda g: g.family)
    def test_within_the_margin_of_the_dense_oracle(self, spiral_ladders, spiral_oracles, gf):
        seq, ladders = spiral_ladders
        ladder, (dense, _) = ladders[gf.family], spiral_oracles[gf.family]
        log_t = -np.log1p(-seq.moduli)
        values, indices = ladder.scan(log_t)[2:]
        dense_values, dense_indices = dense.scan(log_t)[2:]
        assert np.array_equal(indices, dense_indices)
        assert np.all(np.abs(values - dense_values) <= margin(ladder, log_t))

    @pytest.mark.parametrize("gf", SPIRAL_FAMILIES, ids=lambda g: g.family)
    def test_ties_zero_and_last_index(self, spiral_ladders, spiral_oracles, gf):
        # at t = kappa_m the terms m - 1 and m tie, and the larger index wins
        ladder, raw = spiral_ladders[1][gf.family], spiral_oracles[gf.family][1]
        deltas = np.diff(raw)
        ms = np.unique(np.linspace(1, ladder.n_max, 6 if gf.family == "power" else 25).astype(int))
        beyond = deltas.max() + 1.0
        self.assert_matches_full_scan(ladder, raw, [*deltas[ms - 1], 0.0, beyond])
        assert scan_max_term(-raw, beyond)[1] == ladder.n_max

    @pytest.mark.parametrize("chunk", [2, 7])
    def test_block_size_does_not_change_a_scan(self, spiral_ladders, monkeypatch, chunk):
        # windows then straddle many blocks, with rises and ties on block edges
        seq, ladders = spiral_ladders
        log_t = np.r_[-np.log1p(-seq.moduli), 0.0]
        expected = {f: ladder.scan(log_t) for f, ladder in ladders.items()}
        monkeypatch.setattr(interpolation, "_CHUNK", chunk)
        for f, ladder in ladders.items():
            for got, want in zip(ladder.scan(log_t), expected[f]):
                assert got.tobytes() == want.tobytes()

    def test_margin_bounds_every_oracle_dip(self, spiral_ladders, spiral_oracles):
        # the dense oracle's running maximum lifts a raw increment by less than E
        ladders = dict(spiral_ladders[1])
        oracles = dict(spiral_oracles)
        for gf, seq in ((GrowthFunction("power", 0.5), spiral_sequence()),
                        (GrowthFunction("power", 2.0), spiral_sequence(60, depth=0.05))):
            ladder = ladder_for_sequence(gf, 8.0, seq)
            ladders[f"{gf}"] = ladder
            oracles[f"{gf}"] = (dense_ladder(gf, 8.0, ladder.n_max),
                                raw_conjugate(gf, 8.0, ladder.n_max))
        for key, ladder in ladders.items():
            dense, raw = oracles[key]
            gap = dense.log_kappas[1:] - np.diff(raw)
            assert 0.0 <= gap.min() and gap.max() < margin(ladder, 0.0)

    @pytest.mark.parametrize("gf", [
        GrowthFunction("power", 0.5), GF1, GrowthFunction("power", 2.0),
        GrowthFunction("log_power", 2.0), GrowthFunction("exp_log_power", 0.2),
        GrowthFunction("exp_log_power", 0.5), GrowthFunction("exp_log_power", 0.8),
    ], ids=lambda g: f"{g.family}-{g.param}")
    def test_conjugate_rounding_inside_the_margin(self, gf):
        # |v(n) - v_exact(n)| <= K eps S(n) with K < 15, as the margin assumes
        with mpmath.workprec(200):
            p, log_C0 = mpmath.mpf(gf.param), mpmath.log(8)
            psi_tilde, psi_inverse_log = {
                "power": (lambda x: mpmath.expm1(p * x) / p, lambda y: mpmath.log(y) / p),
                "log_power": (lambda x: x ** (p + 1) / (p + 1), lambda y: y ** (1 / p)),
                "exp_log_power": (lambda x: x * mpmath.hyp1f1(1 / p, 1 / p + 1, x ** p),
                                  lambda y: mpmath.log(y) ** (1 / p) if y > 1 else 0),
            }[gf.family]
            ladder = build_ladder(gf, 8.0, 10**9)
            ns = np.unique(np.geomspace(1, 10**9, 25).astype(np.int64)).astype(float)
            v, x, t2 = ladder._conjugate(ns)
            slope = 8.0 * float(gf.psi_log(math.log(8.0)))
            scale = x * (ns + np.maximum(ns, slope)) + t2
            for n, v_n, s_n in zip(ns, v, scale):
                u = max(psi_inverse_log(mpmath.mpf(n) / 8) - log_C0, 0)
                exact = n * u - 8 * psi_tilde(log_C0 + u)
                assert abs(float(mpmath.mpf(float(v_n)) - exact)) < 15 * 2.0**-53 * s_n

    @pytest.mark.parametrize("gf", SPIRAL_FAMILIES, ids=lambda g: g.family)
    def test_spiked_ladders_raise_as_the_full_scan(self, gf):
        # the runtime check of select_exponents, on spiked dense ladders; a
        # shallower spiral keeps the ladders short enough for full scans
        seq = spiral_sequence(60, depth=1e-2)
        ladder = dense_ladder(gf, 8.0, ladder_for_sequence(gf, 8.0, seq).n_max)
        b = int(np.searchsorted(ladder.log_kappas, -math.log1p(-seq.moduli.max()),
                                side="right")) - 1
        cells = {0, max(b - 1, 0), b + 1, b - b % 256, ladder.n_max, ladder.n_max // 2}
        outcomes = []
        for cell in sorted(cells):
            for spike in (1e-13, 1e-4, 50.0):
                c = ladder.log_coeffs.copy()
                c[cell] += spike
                spiked = DenseLadder(log_coeffs=c, log_kappas=ladder.log_kappas.copy())
                expected = oracle_select_error(spiked, seq)
                if expected is None:
                    assert select_exponents(spiked, seq).tolist() == \
                        select_exponents(ladder, seq).tolist()
                else:
                    with pytest.raises(InterpolationError) as err:
                        select_exponents(spiked, seq)
                    assert str(err.value) == expected
                outcomes.append(expected is None)
        assert any(outcomes) and not all(outcomes)

    def test_select_exponents_memory_below_one_ladder_array(self):
        # the ladder and the exponents together peak under 1 MB; a dense
        # ladder array alone would take 8 (n_max + 1) bytes, about 10 MB
        seq = spiral_sequence()
        tracemalloc.start()
        try:
            ladder = ladder_for_sequence(GF1, 8.0, seq)
            s = select_exponents(ladder, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ladder.n_max, int(s.max())) == (1_280_008, 640_000)
        assert peak < 1 << 20 < 8 * (ladder.n_max + 1)

    def test_bound_report_rows_equal_the_scan(self):
        ladder = build_ladder(GF1, 8.0, 4000)
        raw = raw_conjugate(GF1, 8.0, 4000)
        grid = np.geomspace(1.0, 40.0, 50)
        rep = max_term_bound_report(ladder, grid[::-1])
        assert [row.log_mu for row in rep.rows] == \
            [scan_max_term(-raw, math.log(t))[0] for t in sorted(grid)]


class TestMaxTermBounds:
    @pytest.mark.parametrize("gf", [GrowthFunction("power", 0.5), GF1,
                                    GrowthFunction("power", 2.0),
                                    GrowthFunction("log_power", 2.0),
                                    GrowthFunction("exp_log_power", 0.5)],
                             ids=lambda g: f"{g.family}-{g.param}")
    def test_literal_bounds_at_c0_two(self, gf):
        ladder = build_ladder(gf, 2.0, 2000)
        grid = np.geomspace(1.0, 50.0, 50)
        rep = max_term_bound_report(ladder, grid)
        assert rep.t0_literal is not None

    def test_scaled_bounds_at_c0_eight(self):
        ladder = build_ladder(GF1, 8.0, 4000)
        grid = np.geomspace(1.0, 40.0, 50)
        rep = max_term_bound_report(ladder, grid)
        assert rep.t0_scaled is not None

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
    def test_grid_outside_one_to_inf_raises(self, bad):
        with pytest.raises(LadderError, match=r"\[1, inf\)"):
            max_term_bound_report(build_ladder(GF1, 8.0, 400), [bad, 2.0])


class TestTargets:
    def test_admissibility_constant(self):
        seq = DiscSequence([0.5, 0.9])
        tilde = GF1.psi_tilde(1 / (1 - seq.moduli))
        values = [math.exp(2.0 * tilde[0]), math.exp(0.5 * tilde[1])]
        td = TargetData.from_values(seq, GF1, values)
        assert td.admissibility_constant == pytest.approx(2.0, rel=1e-12)

    def test_zero_targets_have_zero_constant(self):
        seq = DiscSequence([0.5, 0.9])
        td = TargetData.from_values(seq, GF1, [0.0, 0.0])
        assert td.admissibility_constant == 0.0

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            TargetData.from_values(DiscSequence([0.5]), GF1, [1.0, 2.0])


class TestInterpolationIdentity:
    def test_forced_singleton(self):
        seq = DiscSequence([0.5])
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), [1.0], GF1, 8.0)
        assert f.eval_many(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_targets_give_zero_function(self):
        seq = DiscSequence([0.5, -0.3j, 0.7])
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), [0.0, 0.0, 0.0], GF1, 8.0)
        for z in (0.0, 0.2 + 0.2j, 0.5, 0.9):
            assert f.eval_many(z) == 0.0

    def test_empty_sequence(self):
        f = build_interpolant(CanonicalProduct(DiscSequence([]), GF1.genus), [], GF1, 8.0)
        assert f.eval_many(0.3) == 0.0

    @pytest.mark.parametrize("genus", [1, 3, 5])
    def test_product_of_another_genus_is_refused(self, genus):
        # the README sketch's nodes under power(1), genus 2: a product of another
        # genus interpolates, but its growth ratio is not the one of psi
        seq = DiscSequence([0.5, 0.3 + 0.4j, -0.7j, 0.85])
        b = [1.0, -2.0 + 1j, 3j, 10.0]
        assert GF1.genus == 2
        build_interpolant(CanonicalProduct(seq, 2), b, GF1, 8.0)
        with pytest.raises(InterpolationError, match=f"product genus {genus}, but psi has genus 2"):
            build_interpolant(CanonicalProduct(seq, genus), b, GF1, 8.0)

    @pytest.mark.parametrize("name, expected", [
        ("eval_many", [0.0]),
        ("eval_log_many", [-math.inf]),
        ("derivative_many", [0.0]),
        ("eval_and_derivative_many", [0.0, 0.0, -math.inf, -math.inf, 0.0, 0.0]),
        ("eval_and_log_P_many", [0.0, 0.0]),
        ("interpolation_errors", [0.0]),
        ("log_deriv_prime_many", [0.0]),
        ("tsuji_bound_check", [0.0, 0.0]),
        ("osc_targets", [0.0]),
        ("select_exponents", [0]),
    ])
    def test_empty_sequence_takes_the_general_path(self, name, expected):
        # exact zeros, and logs -inf + 0j, with one entry per point (per node)
        f = build_interpolant(CanonicalProduct(DiscSequence([]), GF1.genus), [], GF1, 8.0)
        z = np.array([0.0, 0.3 - 0.2j, -0.9j])
        calls = {
            "interpolation_errors": lambda: f.interpolation_errors(),
            "log_deriv_prime_many": lambda: f.product.log_deriv_prime_many(z),
            "tsuji_bound_check": lambda: attrgetter("lhs", "rhs")(f.product.tsuji_bound_check(z)),
            "osc_targets": lambda: osc_targets(f.product),
            "select_exponents": lambda: select_exponents(f.ladder, f.sequence),
        }
        out = calls[name]() if name in calls else getattr(f, name)(z)
        outs = out if isinstance(out, tuple) else (out,)
        n = 0 if name in ("interpolation_errors", "osc_targets", "select_exponents") else len(z)
        assert len(outs) == len(expected)
        if name == "select_exponents":
            assert out.dtype.kind == "i"
        for got, want in zip(outs, expected):
            assert got.shape == (n,)
            assert np.array_equal(got, np.full(n, want, dtype=got.dtype))

    @pytest.mark.parametrize("gf", [GrowthFunction("power", 0.5), GF1,
                                    GrowthFunction("power", 2.0),
                                    GrowthFunction("log_power", 2.0)],
                             ids=lambda g: f"{g.family}-{g.param}")
    def test_identity_on_lattice_instances(self, gf):
        seq, targets = lattice_instance(seed=7, gf=gf, max_points=40)
        f = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 8.0)
        assert float(f.interpolation_errors().max()) < 1e-8

    @pytest.mark.parametrize("gf", SPIRAL_FAMILIES, ids=lambda g: g.family)
    def test_identity_on_the_spiral(self, spiral_ladders, gf):
        # exponents reach 6.4e5 at 1 - |z| = 1e-4 (power(1)), so any rounding
        # of A_k(z_k) away from 1 would show here
        seq, ladders = spiral_ladders
        targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, gf, 0)
        f = interpolant_on(ladders[gf.family], seq, targets)
        assert float(f.interpolation_errors().max()) < 1e-8

    def test_identity_on_radial_nodes_down_to_1e_minus_6(self):
        gf = GrowthFunction("log_power", 2.0)
        seq = DiscSequence([(1.0 - 10.0 ** -j) * np.exp(2j * np.pi * (r / 3 + 0.1))
                            for r in range(3) for j in np.arange(1.0, 6.01, 0.5)])
        targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, gf, 1)
        f = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 8.0)
        assert float(f.interpolation_errors().max()) < 1e-8

    def test_node_values_exact_bitwise(self):
        seq, targets = small_radial_instance(GF1)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 8.0)
        vals = f.eval_many(seq.values)
        # the k-th term cancels the cached node derivative exactly and the
        # other terms vanish identically, so only log-sum rounding remains
        assert np.all(np.abs(vals - targets) <= 1e-10 * (1 + np.abs(targets)))

    def test_node_terms_read_the_cached_reduced_products(self, monkeypatch):
        # P'(z_k) was cached from the unshifted B_k(z_k), so a node term that
        # reads the shifted cache gives 2 b_k; points off the nodes never read it
        seq, targets = small_radial_instance(GF1)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 8.0)
        off = np.array([0.1 + 0.2j, -0.5, 0.3 + 1e-6, 0.69j])
        before = f.eval_many(off)
        monkeypatch.setattr(f.product, "log_B_nodes", f.product.log_B_nodes + math.log(2.0))
        assert f.eval_many(seq.values) == pytest.approx(2.0 * targets, rel=1e-12)
        assert np.array_equal(f.eval_many(off), before)


class TestNearNodeEvaluation:
    def _mp_eval(self, seq, s, exps, targets, z, prec=60):
        """Independent high-precision evaluation of the raw series."""
        with mpmath.workprec(int(prec * 3.33)):
            nodes = [mpmath.mpc(v) for v in seq.values]

            def E(w):
                q = mpmath.fsum([w**j / j for j in range(1, s + 1)])
                return (1 - w) * mpmath.exp(q)

            def A(n, zz):
                return (1 - abs(nodes[n]) ** 2) / (1 - mpmath.conj(nodes[n]) * zz)

            def P(zz):
                return mpmath.fprod([E(A(n, zz)) for n in range(len(nodes))])

            total = mpmath.mpc(0)
            for n in range(len(nodes)):
                pn = mpmath.diff(P, nodes[n])
                term = (mpmath.mpc(targets[n]) / (z - nodes[n])) * P(z) / pn
                term *= A(n, z) ** (exps[n] - 1)
                total += term
            return complex(total)

    def test_matches_high_precision_near_node(self):
        seq = DiscSequence([0.4, -0.2 + 0.3j, 0.65, 0.1 - 0.5j])
        gf = GF1
        targets = np.array([1.5, -2.0 + 1j, 3j, 0.7])
        f = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 2.0)
        for k in (0, 2):
            zk = seq.values[k]
            z = zk + 1e-9 * (1 - seq.moduli[k])
            ours = f.eval_many(z)
            oracle = self._mp_eval(seq, gf.genus, f.exponents, targets, mpmath.mpc(z))
            assert ours == pytest.approx(oracle, rel=1e-8)
            assert abs(ours - targets[k]) < 1e-6 * (1 + abs(targets[k]))

    def test_continuity_walk_onto_node(self):
        seq = DiscSequence([0.3, 0.55, -0.4 + 0.35j, 0.7j, -0.8])
        targets = np.array([1.5, -2.0 + 1j, 3j, 0.7, -1.0])
        # moderate C0 keeps the exponents, hence the local slope, small
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 2.0)
        k = 1
        zk, bk = seq.values[k], targets[k]
        errs = []
        for expo in (4, 6, 9):
            z = zk + 10.0**(-expo) * (1 - seq.moduli[k])
            errs.append(abs(f.eval_many(z) - bk) / (1 + abs(bk)))
        assert errs[-1] < 1e-6
        assert errs[-1] <= errs[0] + 1e-12


class TestDerivativeNodeRule:
    """The derivatives refuse the nodes, as P'/P does, and stay right next to them."""

    NODES = (0.5, 0.3 + 0.4j, -0.6j, 0.7)

    @pytest.fixture(scope="class")
    def interp(self):
        return build_interpolant(CanonicalProduct(DiscSequence(self.NODES), GF1.genus),
                                 [1, -2 + 1j, 3j, 2], GF1, 2.0)

    @pytest.mark.parametrize("k", range(4))
    def test_derivatives_raise_at_each_node(self, interp, k):
        product = interp.product
        for method in (interp.derivative_many, product.log_deriv_P_many,
                       product.log_deriv_prime_many, product.P_second_many):
            with pytest.raises(ProductsError):
                method(self.NODES[k])
        with pytest.raises(ProductsError):
            interp.eval_and_derivative_many([0.1, self.NODES[k]])

    @pytest.mark.parametrize("k", range(4))
    def test_next_to_a_node_matches_a_central_difference(self, interp, k):
        zk = self.NODES[k]
        z = zk + 1e-9 * (1 - abs(zk))
        h = 1e-5 * (1 - abs(zk))
        fd = (interp.eval_many(z + h) - interp.eval_many(z - h)) / (2 * h)
        assert interp.derivative_many(z) == pytest.approx(fd, rel=1e-5)

    def test_coefficient_raises_at_a_node(self):
        sol = build_coefficient(DiscSequence(self.NODES), GF1, C0=2.0)
        with pytest.raises(ProductsError):
            sol.coefficient_log_many(self.NODES[3])


class TestTermDecayChain:
    def test_moebius_power_bounded_by_max_term_ratio(self):
        # s_n ln|A_n(z)| <= ln mu(2/(1-|z|)) - ln mu(1/(1-|z_n|))
        seq, targets = lattice_instance(seed=11, gf=GF1, max_points=25)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 8.0)
        ladder = f.ladder
        mu_nodes = ladder.scan([-math.log1p(-m) for m in seq.moduli])[2]
        rng = np.random.default_rng(51)
        for z in 0.95 * np.sqrt(rng.uniform(size=30)) * np.exp(
                2j * np.pi * rng.uniform(size=30)):
            (mu_z,) = ladder.scan([math.log(2.0) - math.log1p(-abs(z))])[2]
            for k, (zn, m, mu_n) in enumerate(zip(seq.values, seq.moduli, mu_nodes)):
                a_abs = abs((1 - m**2) / (1 - np.conj(zn) * z))
                assert f.exponents[k] * math.log(a_abs) <= mu_z - mu_n + 1e-9

    def test_full_term_bound(self):
        # ln|term_n(z)| <= ln|b_n| + 2^{s+2} sum_{m != n} |A_m|^{s+1}
        #                + sum_j 2^j/j + |ln|B_n(z_n)|| - H_s + mu ratio
        seq, targets = lattice_instance(seed=13, gf=GF1, max_points=20)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 8.0)
        cp, ladder, s = f.product, f.ladder, f.product.genus
        q_cap = sum(2.0**j / j for j in range(1, s + 1))
        rng = np.random.default_rng(52)
        zs = 0.9 * np.sqrt(rng.uniform(size=15)) * np.exp(
            2j * np.pi * rng.uniform(size=15))
        L = dense_terms(f, zs)[0]
        mu_nodes = ladder.scan([-math.log1p(-m) for m in seq.moduli])[2]
        for i, z in enumerate(zs):
            (mu_z,) = ladder.scan([math.log(2.0) - math.log1p(-abs(z))])[2]
            full_sum = float(cp.tsuji_bound_check([z]).rhs[0]) / 2.0 ** (s + 2)
            for k, (zn, m, mu_n) in enumerate(zip(seq.values, seq.moduli, mu_nodes)):
                a_abs = abs((1 - m**2) / (1 - np.conj(zn) * z))
                rest = full_sum - a_abs ** (s + 1)
                bound = (
                    math.log(abs(targets[k]))
                    + 2.0 ** (s + 2) * rest
                    + q_cap
                    + abs(cp.log_B_nodes[k].real)
                    - cp.harmonic
                    + (mu_z - mu_n)
                )
                assert L[k, i].real <= bound + 1e-8


class TestGrowthReport:
    def test_zero_function_rows(self):
        seq = DiscSequence([0.5])
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), [0.0], GF1, 8.0)
        table = growth_report(f, [0.5, 0.9], 32)
        assert table.rows[0].ln_max_modulus == -math.inf
        assert math.isnan(table.rows[0].ratio)

    def test_singleton_ratio_stable(self):
        f = build_interpolant(CanonicalProduct(DiscSequence([0.5]), GF1.genus), [2.0], GF1, 8.0)
        table = growth_report(f, [0.5, 0.9, 0.99], 64)
        ratios = [row.ratio for row in table.rows]
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) <= 10 * max(min(ratios), 0.1)

    def test_ratio_no_blow_up_between_consecutive_radii(self):
        seq, targets = lattice_instance(seed=17, gf=GF1, max_points=30)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 8.0)
        table = growth_report(f, [0.9, 0.99, 0.999], 128)
        ratios = [row.ratio for row in table.rows]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 2.0 * max(a, 0.1)

    def test_row_count_and_radii_validation(self):
        f = build_interpolant(CanonicalProduct(DiscSequence([0.5]), GF1.genus), [1.0], GF1, 8.0)
        table = growth_report(f, [0.3, 0.6, 0.9], 16)
        assert len(table.rows) == 3
        with pytest.raises(InterpolationError):
            growth_report(f, [0.5, 1.5], 16)

    def test_one_column_block_pass_for_all_radii(self, monkeypatch):
        # every ring is a row of one max_log_many batch: one _blockwise call
        seq, targets = lattice_instance(seed=17, gf=GF1, max_points=30)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 8.0)
        calls, blockwise = [], CanonicalProduct._blockwise
        monkeypatch.setattr(CanonicalProduct, "_blockwise",
                            lambda self, n, block: calls.append(n) or blockwise(self, n, block))
        growth_report(f, [0.5, 0.9, 0.99, 0.999], 256)
        assert calls == [4 * 256]


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(float), np.asarray(b).view(float))


def _assert_dense_bits(f, z):
    """The value entry points and the ring maximum equal the dense oracle bit for bit at z."""
    log_f, log_P = dense_value_logs(f, z)
    assert _same_bits(f.eval_log_many(z), log_f)
    assert _same_bits(f.max_log_many(z), np.max(log_f.real, keepdims=True))
    vals, got_log_P = f.eval_and_log_P_many(z)
    assert _same_bits(got_log_P, log_P)
    with np.errstate(over="ignore"):
        want = np.where(np.isneginf(log_f.real), 0.0, np.exp(log_f))
    assert _same_bits(vals, want)


def _ring(r, n=256):
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def _rings(radii, n=256):
    """The circles of ``radii`` as the rows of one batch, as ``growth_report`` forms them."""
    return np.asarray(radii, dtype=float)[:, None] * np.exp(2j * np.pi * np.arange(n) / n)


def _row_maxima(log_f, shape):
    """np.max of each row of log f's real part, the batch's points laid out in ``shape``."""
    return np.max(log_f.real.reshape(shape), axis=1, initial=-math.inf)


def _assert_column_bounds_hold(f, z):
    """The column bound of ``_block_max_log`` is finite and at least the computed Re log f
    of ``eval_log_many`` on every column of z."""
    zb = z.ravel()
    ub = f.product._blockwise(len(zb), lambda b: f._column_bounds(zb[b])[0])
    assert np.all(np.isfinite(ub))
    assert np.all(ub >= f.eval_log_many(zb).real)


SPIRAL_RADII = (0.5, 0.9, 0.99, 0.999)


class TestLiveTerms:
    """The value path forms only the terms that can reach the sum, bit-equal to forming all."""

    @pytest.fixture(scope="class")
    def spiral_interpolants(self, spiral_ladders):
        seq, ladders = spiral_ladders
        out = {}
        for gf in SPIRAL_FAMILIES:
            targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, gf, 0)
            out[gf.family] = interpolant_on(ladders[gf.family], seq, targets)
        return out

    @pytest.mark.parametrize("family", [g.family for g in SPIRAL_FAMILIES])
    @pytest.mark.parametrize("r", [0.5, 0.999])
    def test_heap_peak_under_twice_the_buffer(self, spiral_interpolants, family, r):
        # the pass allocates and frees one buffer of _WORK_ROWS rows of
        # N x (widest block) cells before its blocks; glibc's trim threshold,
        # twice that buffer after the free, then stays above the pass's peak
        f, z = spiral_interpolants[family], _ring(r)
        f.eval_log_many(z)
        widest = max(b.stop - b.start for b in products._column_blocks(len(z), len(f.sequence)))
        buffer = products._WORK_ROWS * len(f.sequence) * widest * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            f.eval_log_many(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffer <= peak < 2 * buffer

    def test_full_value_blocks_hold_at_most_eight_matrices(self, spiral_interpolants):
        # log B_n(z) is formed in the factor logs' buffer and the terms are
        # summed in place, after the bound, 1 - A and D are freed: a full-width
        # block of the growth rings holds at most 8 N x W complex matrices
        # (about 7, the factor pass's own peak), on the value path (a call
        # per ring) and on the ring-maximum path (one call, a row per ring),
        # which copies only the kept columns
        widest = products._BLOCK_CELLS // len(next(iter(spiral_interpolants.values())).sequence)
        for block, entry, batches in (
                ("_block_value_logs", "eval_log_many", [_ring(r) for r in SPIRAL_RADII]),
                ("_block_max_log", "max_log_many", [_rings(SPIRAL_RADII)])):
            block_fn, peaks = getattr(Interpolant, block), []

            def measured(self, zb, *rest):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = block_fn(self, zb, *rest)
                matrix = len(self.sequence) * len(zb) * np.dtype(complex).itemsize
                peaks.append((len(zb), (tracemalloc.get_traced_memory()[1] - start) / matrix))
                return out

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Interpolant, block, measured)
                tracemalloc.start()
                try:
                    for f in spiral_interpolants.values():
                        for z in batches:
                            getattr(f, entry)(z)
                finally:
                    tracemalloc.stop()
            full = [p for width, p in peaks if width == widest]
            # 3 full blocks of each 256-point ring, or 12 of each 1,024-point batch
            assert len(full) == 3 * 4 * 3
            assert max(full) <= 8.0, block

    @staticmethod
    def live_cells(monkeypatch, f, z):
        """Per live-path block, the (rows, cols) of the cells it formed, and the block's shape.

        The rows are the flat ``rows`` that ``_term_logs`` receives.  A cell's
        column is where its gathered A sits in that row of the block's A
        matrix, since no two points of a block share an A_n(z).
        """
        seen, blocks = [], []
        assemble, term_logs = Interpolant._assemble, Interpolant._term_logs

        def record_block(self, zb):
            parts = assemble(self, zb)
            blocks.append(parts["A"])
            return parts

        def record_terms(self, rows, logB, A):
            if isinstance(rows, np.ndarray):  # the live path's flat cells
                hit = blocks[-1][rows] == A[:, None]
                assert np.all(hit.sum(axis=1) == 1)
                seen.append((rows, hit.argmax(axis=1), blocks[-1].shape))
            return term_logs(self, rows, logB, A)

        monkeypatch.setattr(Interpolant, "_assemble", record_block)
        monkeypatch.setattr(Interpolant, "_term_logs", record_terms)
        f.eval_log_many(z)
        monkeypatch.undo()
        return seen

    @staticmethod
    def formed_columns(f, z) -> set:
        """The columns of z in which ``f.max_log_many(z)`` formed terms (``_term_logs``).

        A column is found by its A_n(z) values, as in ``live_cells``: each
        column of a dense call, the column of each cell of a flat one.
        """
        blocks, formed = [], set()
        assemble, term_logs = Interpolant._assemble, Interpolant._term_logs

        def same(a, b):
            return (a == b) | (np.isnan(a) & np.isnan(b))

        def record_block(self, zb):
            parts = assemble(self, zb)
            blocks.append((parts["A"], sum(A.shape[1] for A, _ in blocks)))
            return parts

        def record_terms(self, rows, logB, A):
            block_A, start = blocks[-1]
            if isinstance(rows, np.ndarray):
                hit = same(block_A[rows], A[:, None])
            else:
                hit = same(block_A[:, None, :], A[:, :, None]).all(axis=0)
            assert np.all(hit.sum(axis=1) == 1)
            formed.update((start + hit.argmax(axis=1)).tolist())
            return term_logs(self, rows, logB, A)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Interpolant, "_assemble", record_block)
            mp.setattr(Interpolant, "_term_logs", record_terms)
            f.max_log_many(z)
        return formed

    @pytest.mark.parametrize("family", [g.family for g in SPIRAL_FAMILIES])
    def test_ring_maxima_of_a_batch_are_each_rows_maximum(self, spiral_interpolants, family):
        # the four spiral rings as the rows of one batch: each row's maximum
        # is np.max of that row of the dense oracle's log f, bit for bit
        f, z = spiral_interpolants[family], _rings(SPIRAL_RADII)
        want = _row_maxima(dense_value_logs(f, z.ravel())[0], z.shape)
        assert _same_bits(f.max_log_many(z), want)
        assert _same_bits(want, _row_maxima(f.eval_log_many(z.ravel()), z.shape))
        _assert_column_bounds_hold(f, z)

    def test_ring_maxima_of_twelve_radii_in_one_block(self):
        # the 4 nodes of configs/growth_curve.json: 12 rings of 256 points
        # fit in one column block, so every row shares the block
        seq = DiscSequence([0.5, 0.6j, -0.4 + 0.2j, 0.7 + 0.35j])
        gf = GrowthFunction("log_power", 2.0)
        f = build_interpolant(CanonicalProduct(seq, gf.genus), [1.0, -2.0j, 3.0 + 1.0j, 5.0], gf, 2.0)
        z = _rings([0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999])
        assert len(products._column_blocks(z.size, len(seq))) == 1
        assert _same_bits(f.max_log_many(z), _row_maxima(f.eval_log_many(z.ravel()), z.shape))
        _assert_column_bounds_hold(f, z)

    def test_ring_maxima_of_rows_that_cross_blocks(self):
        # the 27 nodes of configs/interpolate.json: blocks of 606 points, so
        # the third ring starts in the first block and ends in the second
        with open(Path(__file__).parents[1] / "configs" / "interpolate.json", encoding="utf-8") as fh:
            cfg = json.load(fh)
        seq = generate_sequence(cfg["sequence"], cfg["seed"])
        assert len(seq) == 27
        targets = generate_targets(cfg["targets"], seq, GF1, cfg["seed"])
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, cfg["C0"])
        z = _rings(SPIRAL_RADII)
        assert [(b.start, b.stop) for b in products._column_blocks(z.size, 27)] == [(0, 606),
                                                                                    (606, 1024)]
        assert _same_bits(f.max_log_many(z), _row_maxima(f.eval_log_many(z.ravel()), z.shape))
        _assert_column_bounds_hold(f, z)

    @pytest.mark.parametrize("family", [g.family for g in SPIRAL_FAMILIES])
    def test_ring_maximum_forms_few_columns_near_the_boundary(self, spiral_interpolants, family):
        # at r = 0.999 every column but a few has its upper bound below its
        # ring's maximum: terms are formed in at most 10% of the columns of
        # that row of the batch (3 of 256 for each family with these targets)
        f, z = spiral_interpolants[family], _rings(SPIRAL_RADII)
        last = {c - 3 * z.shape[1] for c in self.formed_columns(f, z) if c >= 3 * z.shape[1]}
        assert 0 < len(last) <= 0.1 * z.shape[1]

    def test_ring_maxima_form_about_a_fourteenth_of_the_columns(self, spiral_interpolants):
        # the four rings of each family as one batch (targets of seed 0) form
        # terms in 219 of their 3,072 columns (27, 81 and 111 per family):
        # the column bound is the log-sum-exp of the cells' bounds plus their
        # genus polynomial in |A|
        formed = [len(self.formed_columns(f, _rings(SPIRAL_RADII)))
                  for f in spiral_interpolants.values()]
        assert sum(formed) == 219

    def test_ring_maximum_without_the_cut_forms_every_column(self, spiral_interpolants):
        # past the cut's rounding budget (X > 2^44) the column bound is not
        # proven, so no column of any row is skipped
        f, z = spiral_interpolants["power"], _rings(SPIRAL_RADII)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(f, "_cut", math.inf)
            assert self.formed_columns(f, z) == set(range(z.size))
            got = f.max_log_many(z)
        assert _same_bits(got, _row_maxima(f.eval_log_many(z.ravel()), z.shape))

    def test_ring_maximum_forms_the_points_off_the_disc(self, spiral_interpolants):
        # the column bound needs np.abs(z) < 1: a NaN point and points on and
        # outside the circle are always formed, each in its own row's batch;
        # a row of such points forms every column.  A NaN point's log f is
        # -inf + 0j (its column maximum is NaN), so it does not hold the maximum.
        f = spiral_interpolants["exp_log_power"]
        z = _rings([0.999, 0.99, 1.5])
        off = [10, 100, 200]
        z[0, off] = [complex(math.nan, 0.0), 1.0, 1.5j]
        with np.errstate(invalid="ignore"):
            formed = self.formed_columns(f, z)
            log_f, got = f.eval_log_many(z.ravel()), f.max_log_many(z)
        assert set(off) <= formed
        assert set(range(2 * z.shape[1], z.size)) <= formed
        assert np.isneginf(log_f[10].real)
        assert _same_bits(got, _row_maxima(log_f, z.shape))
        # empty rows, and an empty batch of rows
        assert _same_bits(f.max_log_many(np.empty((3, 0), dtype=complex)), np.full(3, -math.inf))
        assert f.max_log_many(np.empty((0, 256), dtype=complex)).shape == (0,)

    def test_ring_maximum_forms_the_columns_of_nan_or_inf_bounds(self, spiral_interpolants):
        # in the disc, a NaN or +inf Re log B_n(z) makes that cell's bound,
        # and so its column's bound, NaN or +inf: the column is formed.  Its
        # log f is -inf (``logsumexp_complex`` gives that to a column whose
        # largest real part is not finite), so its row's maximum comes from
        # the other columns.  A row whose every Re log B_n(z) is -inf has
        # bounds of -inf and gives -inf
        f, z = spiral_interpolants["log_power"], _rings([0.9, 0.99, 0.999])
        cells = {z[0, 5]: (7, math.nan), z[1, 6]: (150, math.inf)}
        assemble = Interpolant._assemble

        def inject(self, zb):
            parts = assemble(self, zb)
            for point, (node, value) in cells.items():
                parts["logB"][node, zb == point] += value
            parts["logB"][:, np.isin(zb, z[2])] = complex(-math.inf, 0.0)
            return parts

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Interpolant, "_assemble", inject)
            with np.errstate(invalid="ignore"):
                formed = self.formed_columns(f, z)
                log_f, got = f.eval_log_many(z.ravel()), f.max_log_many(z)
        assert {5, 256 + 6} <= formed
        assert np.all(np.abs(z[:2]) < 1.0)
        assert np.isneginf(log_f[[5, 256 + 6]].real).all() and np.isfinite(got[:2]).all()
        assert np.isneginf(log_f[512:].real).all() and got[2] == -math.inf
        assert _same_bits(got, _row_maxima(log_f, z.shape))

    def test_column_logsumexp_of_nan_inf_and_empty_columns(self):
        cells = np.array([[0.0, 1.0, math.nan, 2.0, -math.inf, -math.inf],
                          [-800.0, math.log(3.0), 0.0, math.inf, -math.inf, 4.0],
                          [-math.inf, -30.0, 1.0, 3.0, -math.inf, -math.inf]])
        want = [0.0, math.log(math.e + 3.0 + math.exp(-30.0)), math.nan, math.inf,
                -math.inf, 4.0]
        got = interpolation._logsumexp_columns(cells.copy())
        assert np.allclose(got, want, rtol=1e-15, atol=0.0, equal_nan=True)
        assert got[3] == math.inf and got[4] == -math.inf
        assert np.array_equal(interpolation._logsumexp_columns(np.empty((0, 2))),
                              [-math.inf, -math.inf])

    @pytest.mark.parametrize("col", [0, 255])
    def test_ring_maximum_keeps_a_nan(self, spiral_interpolants, col):
        # np.max keeps a NaN, and so must the running maximum of its row, in
        # the first block and in the last, while the other rows keep theirs.
        # A column off the disc is always formed; there a NaN imaginary part
        # of log B_n(z) makes log f NaN
        f, z = spiral_interpolants["power"], _rings([0.9, 0.99])
        z[1, col] = 1.5
        assemble = Interpolant._assemble

        def nan_off_the_disc(self, zb):
            parts = assemble(self, zb)
            parts["logB"][:, ~(np.abs(zb) < 1.0)] += complex(0.0, math.nan)
            return parts

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Interpolant, "_assemble", nan_off_the_disc)
            with np.errstate(invalid="ignore"):
                log_f, got = f.eval_log_many(z.ravel()), f.max_log_many(z)
        assert np.flatnonzero(np.isnan(log_f)).tolist() == [z.shape[1] + col]
        want = _row_maxima(log_f, z.shape)
        assert math.isnan(got[1]) and math.isnan(want[1])
        assert math.isfinite(got[0]) and _same_bits(got[0], want[0])

    @pytest.mark.parametrize("family", [g.family for g in SPIRAL_FAMILIES])
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99, 0.999])
    def test_spiral_rings(self, spiral_interpolants, family, r):
        f = spiral_interpolants[family]
        if r == 0.5:  # the ring passes through spiral node 0, a node hit in column 0
            assert _ring(r)[0] == f.sequence.values[0]
            assert np.isneginf(f.eval_and_log_P_many(_ring(r))[1][0].real)
        _assert_dense_bits(f, _ring(r))

    @pytest.mark.parametrize("family", [g.family for g in SPIRAL_FAMILIES])
    def test_node_batches_and_mixed_batches(self, spiral_interpolants, family):
        f = spiral_interpolants[family]
        nodes = f.sequence.values
        _assert_dense_bits(f, nodes)
        mixed = np.stack([nodes, _ring(0.95, len(nodes))], axis=1).ravel()
        _assert_dense_bits(f, mixed)
        for width in (1, 2, 3):
            _assert_dense_bits(f, mixed[5:5 + width])
            _assert_dense_bits(f, _ring(0.999)[:width])

    def test_node_batch_forms_one_term_per_node(self, monkeypatch, spiral_interpolants):
        f = spiral_interpolants["power"]
        seen = self.live_cells(monkeypatch, f, f.sequence.values)
        rows = np.concatenate([r for r, _, _ in seen])
        cols = np.concatenate([c + sum(s[1] for _, _, s in seen[:i]) for i, (_, c, _) in enumerate(seen)])
        assert np.array_equal(np.sort(rows), np.arange(len(f.sequence)))
        assert np.array_equal(rows, cols)

    @pytest.mark.parametrize("gf", [GrowthFunction("power", 0.5), GF1,
                                    GrowthFunction("power", 2.0), GrowthFunction("log_power", 2.0)],
                             ids=lambda g: f"{g.family}-{g.param}")
    def test_lattice(self, gf):
        seq, targets = lattice_instance(seed=3, gf=gf, rings=6, max_points=400)
        f = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 8.0)
        for r in (0.5, 0.9, 0.99):
            _assert_dense_bits(f, _ring(r))
        _assert_dense_bits(f, seq.values)

    @pytest.mark.parametrize("rho, n_max", [(1.0, 8), (0.5, 12)])
    def test_sharpness_pairs(self, rho, n_max):
        seq = sharpness_sequence(rho, n_max).to_disc_sequence()
        targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, GF1, 4)
        f = build_interpolant(CanonicalProduct(seq, GF1.genus), targets, GF1, 2.0)
        for r in (0.5, 0.9, 0.999):
            _assert_dense_bits(f, _ring(r))
        _assert_dense_bits(f, seq.values)
        _assert_dense_bits(f, seq.values + 1e-9 * (1.0 - seq.moduli))

    @pytest.mark.parametrize("gf", [GrowthFunction("power", 2.5), GrowthFunction("power", 4.0)],
                             ids=lambda g: f"genus-{g.genus}")
    def test_genus_three_and_up(self, monkeypatch, gf):
        seq = spiral_sequence(120, depth=0.05)
        targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, gf, 2)
        f = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 2.0)
        assert gf.genus >= 3
        for r in (0.5, 0.9, 0.99):
            _assert_dense_bits(f, _ring(r))
        _assert_dense_bits(f, seq.values)
        assert self.live_cells(monkeypatch, f, seq.values)  # the node batch takes the live path

    def test_one_batch_through_both_sides_of_the_switch(self, monkeypatch, spiral_interpolants):
        # exp_log_power's rings are about 64% live, its nodes 1/N: the first
        # block of this batch forms every term, the next one the live terms
        f = spiral_interpolants["exp_log_power"]
        width = products._column_blocks(10**6, len(f.sequence))[0].stop
        z = np.concatenate([_ring(0.9, width), f.sequence.values[:width]])
        dense_calls = []
        term_logs = Interpolant._term_logs

        def record_dense(self, rows, logB, A):
            if not isinstance(rows, np.ndarray):  # every cell of the block
                dense_calls.append(logB.shape)
            return term_logs(self, rows, logB, A)

        monkeypatch.setattr(Interpolant, "_term_logs", record_dense)
        seen = self.live_cells(monkeypatch, f, z)
        assert dense_calls == [(len(f.sequence), width)]
        assert [shape for _, _, shape in seen] == [(len(f.sequence), width)]
        _assert_dense_bits(f, z)

    def test_margin_and_live_share(self, monkeypatch, spiral_interpolants):
        # one target scaled down so that its row's largest Re L - M on a ring
        # is -769.5, inside (-770, -745): every dropped cell, that row's among
        # them, still has an exact zero dense exp
        f = spiral_interpolants["power"]
        z = _ring(0.9)
        L, _ = dense_terms(f, z)
        row_max = (L.real - L.real.max(axis=0)).max(axis=1)
        n = int(np.flatnonzero((row_max > -600.0) & (row_max < -50.0))[0])
        targets = f.targets.values.copy()
        targets[n] *= math.exp(-769.5 - row_max[n])
        g = interpolant_on(f.ladder, f.sequence, targets)
        L, _ = dense_terms(g, z)
        gap = L.real - L.real.max(axis=0)
        window = (gap > -770.0) & (gap < -745.0)
        assert window[n].any()
        live = np.zeros(L.shape, dtype=bool)
        start = 0
        for rows, cols, shape in self.live_cells(monkeypatch, g, z):
            live[rows, cols + start] = True
            start += shape[1]
        assert start == len(z)
        assert (window & ~live)[n].any()
        with np.errstate(under="ignore"):
            assert np.all(np.exp(L - L.real.max(axis=0))[~live] == 0.0)
        _assert_dense_bits(g, z)
        # the live share of the power(1) spiral rings (measured 0.075 to 0.168)
        for r in (0.5, 0.9, 0.99, 0.999):
            seen = self.live_cells(monkeypatch, f, _ring(r))
            assert sum(len(rows) for rows, _, _ in seen) < 0.2 * len(f.sequence) * 256

    @pytest.mark.parametrize("family", [g.family for g in SPIRAL_FAMILIES])
    def test_derivatives_are_built_in_column_blocks(self, monkeypatch, spiral_interpolants, family):
        # a ring and points next to the nodes span 6 blocks: no factor pass is
        # wider than a block, and all six outputs have the bits of one pass
        f = spiral_interpolants[family]
        seq = f.sequence
        z = np.concatenate([_ring(0.9), seq.values + 1e-9 * (1.0 - seq.moduli)])
        blocks = products._column_blocks(len(z), len(seq))
        assert len(blocks) >= 3
        want = one_pass_derivatives(f, z)
        widths = []
        geometry = products.CanonicalProduct._geometry
        monkeypatch.setattr(products.CanonicalProduct, "_geometry",
                            lambda self, z: widths.append(len(z)) or geometry(self, z))
        got = f.eval_and_derivative_many(z)
        assert widths == [b.stop - b.start for b in blocks]
        for k in range(6):
            assert got[k].tobytes() == want[k].tobytes(), k

    def test_blocks_concatenate(self, spiral_interpolants):
        # a batch equals its column blocks evaluated one by one, and equal-width
        # chunks of 2 or 3 points, bit for bit
        f = spiral_interpolants["log_power"]
        z = np.concatenate([_ring(0.99, 301), f.sequence.values])
        blocks = products._column_blocks(len(z), len(f.sequence))
        assert len(blocks) > 2
        whole = f.eval_and_log_P_many(z)
        for parts in (blocks, [slice(k, k + 3) for k in range(0, len(z), 3)]):
            pieces = [f.eval_and_log_P_many(z[b]) for b in parts]
            for k in range(2):
                assert _same_bits(np.concatenate([p[k] for p in pieces]), whole[k])


class TestTermAccuracy:
    """Single terms L against a 50-digit evaluation of the series on the power(1) spiral.

    The exponents reach 6.4e5 at 1 - |z| = 1e-4, so s_n log A_n carries the
    largest operands of a term.  The tolerance is the rounding budget of
    ``_block_value_logs``: 64 eps X, X = 2 (N + 2) (746 + Q_s) + 80 max s_n.
    """

    @pytest.fixture(scope="class")
    def interp(self, spiral_ladders):
        seq, ladders = spiral_ladders
        targets = generate_targets({"kind": "random_admissible", "constant": 2.0}, seq, GF1, 0)
        return interpolant_on(ladders["power"], seq, targets)

    @staticmethod
    def live_terms(monkeypatch, f, z):
        """(rows, cols, L) of the live cells at z (one block), L from ``_term_logs``."""
        seen = TestLiveTerms.live_cells(monkeypatch, f, z)
        assert len(seen) == 1  # one block, on the live path
        rows, cols, _ = seen[0]
        parts = f._assemble(z)
        return rows, cols, f._term_logs(np.s_[:, None], parts["logB"], parts["A"])[rows, cols]

    @pytest.fixture(scope="class")
    def mp_term_logs(self, interp):
        """log(b_n P(z) / ((z - z_n) P'(z_n)) A_n(z)^(s_n - 1)) at (row, col) cells of z, 50 digits.

        P(z) / (z - z_n) = B_n(z) E(A_n(z), s) / (z - z_n), and by the product
        rule P'(z_n) = B_n(z_n) E'(1, s) A_n'(z_n) = -B_n(z_n) e^{H_s}
        conj(z_n) / (1 - |z_n|^2).  log B_n(z_n) is kept per node across calls.
        """
        f, s = interp, interp.product.genus
        with mpmath.workdps(50):
            nodes = [mpmath.mpc(v) for v in f.sequence.values]
            oms = [1 - (zn.real ** 2 + zn.imag ** 2) for zn in nodes]
            harmonic = mpmath.fsum(mpmath.mpf(1) / j for j in range(1, s + 1))
        log_B_nodes = {}

        def log_E(m, w):
            A = oms[m] / (1 - mpmath.conj(nodes[m]) * w)
            return mpmath.log(1 - A) + mpmath.fsum(A ** j / j for j in range(1, s + 1))

        def terms(z, rows, cols):
            with mpmath.workdps(50):
                log_P = {c: mpmath.fsum(log_E(m, mpmath.mpc(z[c])) for m in range(len(nodes)))
                         for c in set(cols.tolist())}
                for n in set(rows.tolist()) - set(log_B_nodes):
                    log_B_nodes[n] = mpmath.fsum(log_E(m, nodes[n])
                                                 for m in range(len(nodes)) if m != n)
                out = []
                for n, c in zip(rows.tolist(), cols.tolist()):
                    zn, w = nodes[n], mpmath.mpc(z[c])
                    log_P_prime = log_B_nodes[n] + harmonic + mpmath.log(-mpmath.conj(zn) / oms[n])
                    out.append(mpmath.log(mpmath.mpc(f.targets.values[n])) + log_P[c]
                               - mpmath.log(w - zn) - log_P_prime
                               + (f.exponents[n] - 1) * mpmath.log(oms[n] / (1 - mpmath.conj(zn) * w)))
                return [complex(v) for v in out]
        return terms

    def assert_within_budget(self, f, want, L):
        N, s = len(f.sequence), f.product.genus
        q_cap = sum(2.0 ** j / j for j in range(1, s + 1))
        tol = 64 * 2.0 ** -53 * (2 * (N + 2) * (746 + q_cap) + 80 * float(f.exponents.max()))
        d = L - np.array(want)
        assert np.all(np.abs(d.real) <= tol)
        assert np.all(np.abs(np.remainder(d.imag + math.pi, 2 * math.pi) - math.pi) <= tol)

    @pytest.mark.parametrize("r", [0.99, 0.999])
    def test_live_ring_cells(self, monkeypatch, interp, mp_term_logs, r):
        z = _ring(r, 16)
        rows, cols, L = self.live_terms(monkeypatch, interp, z)
        assert interp.exponents[rows].max() > 1000
        self.assert_within_budget(interp, mp_term_logs(z, rows, cols), L)

    def test_next_to_the_deepest_nodes(self, monkeypatch, interp, mp_term_logs):
        seq = interp.sequence
        deep = np.argsort(seq.moduli)[-6:]
        z = seq.values[deep] + 1e-9 * (1.0 - seq.moduli[deep])
        rows, cols, L = self.live_terms(monkeypatch, interp, z)
        assert np.all(np.isin(deep, rows[rows == deep[cols]]))  # each own term is formed
        assert interp.exponents[rows].max() == interp.exponents.max() == 640000
        self.assert_within_budget(interp, mp_term_logs(z, rows, cols), L)

    def test_zero_target_gives_an_exact_zero_term(self, interp):
        seq = interp.sequence
        targets = interp.targets.values.copy()
        zero = np.array([3, 120, len(seq) - 1])
        targets[zero] = 0.0
        f = interpolant_on(interp.ladder, seq, targets)
        z = np.concatenate([_ring(0.99, 64), seq.values[zero]])
        parts = f._assemble(z)
        L = f._term_logs(np.s_[:, None], parts["logB"], parts["A"])
        assert np.all(np.isneginf(L[zero].real))
        assert not np.isneginf(np.delete(L, zero, axis=0).real).all()
        ring = L[:, :64]
        with np.errstate(under="ignore"):
            assert np.all(np.exp(ring[zero] - ring.real.max(axis=0)) == 0.0)
        # at its own node every term is an exact zero
        assert np.all(np.isneginf(L[:, 64:].real))
        assert np.array_equal(f.eval_many(seq.values[zero]), np.zeros(len(zero)))
        assert np.array_equal(f.interpolation_errors()[zero], np.zeros(len(zero)))
