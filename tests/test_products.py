"""Tests for log-space canonical products and their bounds."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from discinterp import counting
from discinterp.counting import check_concentration, counting_n, counting_sandwich_check
from discinterp.geometry import DiscSequence
from discinterp.growth import GrowthFunction
from discinterp.products import (
    CanonicalProduct,
    ProductsError,
    logsumexp_complex,
    prime_counting_criteria_check,
    _column_blocks,
    _log_E,
    _log_one_minus,
    _poly_q,
)
from discinterp.oscillation import osc_targets, sharpness_sequence

from helpers import (
    factors_all_cells,
    index_cancellation_check,
    log_E_batch_degree,
    one_pass_products,
    spiral_sequence,
    weierstrass_E,
)


def random_sequence(rng, n, r_lo=0.2, r_hi=0.9, min_gap=0.02):
    pts = []
    while len(pts) < n:
        z = rng.uniform(r_lo, r_hi) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) > min_gap for w in pts):
            pts.append(complex(z))
    return DiscSequence(pts)


def naive_product(seq, z, s):
    out = 1.0 + 0j
    for zn, m in zip(seq.values, seq.moduli):
        w = (1 - m**2) / (1 - np.conj(zn) * z)
        q = sum(w**j / j for j in range(1, s + 1))
        out *= (1 - w) * cmath.exp(q)
    return out


def cauchy_derivative(cp, k, order, n_points=512):
    """Contour-quadrature oracle for P'(z_k) or P''(z_k)."""
    zk = cp.sequence.values[k]
    r = (1 - cp.sequence.moduli[k]) / 4
    thetas = 2 * np.pi * np.arange(n_points) / n_points
    ring = zk + r * np.exp(1j * thetas)
    vals = cp.P(ring)
    if order == 1:
        return complex(np.mean(vals * np.exp(-1j * thetas)) / r)
    return complex(2.0 * np.mean(vals * np.exp(-2j * thetas)) / r**2)


class TestLogsumexp:
    def test_logsumexp_extreme_scales(self):
        lams = np.array([[complex(-1000.0, 0.1)], [complex(-1000.0, 0.1)],
                         [complex(-1200.0, 0.0)]])
        out = logsumexp_complex(lams)
        assert out.shape == (1,)
        assert out[0].real == pytest.approx(-1000.0 + math.log(2.0), abs=1e-9)

    def test_against_mpmath_within_the_unsorted_rounding_bound(self):
        # columns of 200 terms: spread moduli, near-cancelling pairs, exact
        # zeros; the pairwise sum may be off by (20 + ceil(log2(n / 64))) eps sum |terms|
        rng = np.random.default_rng(57)
        n, eps = 200, sys.float_info.epsilon
        spread = rng.uniform(-30.0, 0.0, (n, 6)) + 1j * rng.uniform(-np.pi, np.pi, (n, 6))
        pairs = np.repeat(rng.uniform(-5.0, 0.0, (n // 2, 3)), 2, axis=0) + 1j * np.pi * (
            np.arange(n) % 2)[:, None] + 1j * rng.uniform(-1e-6, 1e-6, (n, 3))
        zeros = spread[:, :2].copy()
        zeros[::3] = complex(-np.inf, 0.0)
        lams = np.concatenate([spread, pairs, zeros], axis=1)
        out = logsumexp_complex(lams)
        with mpmath.workdps(50):
            for j in range(lams.shape[1]):
                col = [mpmath.mpc(v.real, v.imag) for v in lams[:, j] if np.isfinite(v.real)]
                M = max(v.real for v in col)
                terms = [mpmath.exp(v - M) for v in col]
                total = mpmath.fsum(terms)
                got = mpmath.exp(mpmath.mpc(out[j].real, out[j].imag) - M)
                # the sum's bound, plus the rounding of log(total) and of the shift back
                bound = (20 + math.ceil(math.log2(n / 64))) * eps * mpmath.fsum(
                    abs(t) for t in terms) + 4 * eps * abs(total) * (
                    1 + abs(mpmath.mpc(out[j].real, out[j].imag) - M) + abs(M))
                assert abs(got - total) <= bound, (j, float(abs(got - total)), float(bound))

    def test_columns_are_summed_pairwise(self):
        # lams[:, finite] is a Fortran-ordered copy, so each column is summed
        # pairwise; a C-ordered sum adds the rows one by one and differs
        rng = np.random.default_rng(58)
        lams = rng.normal(0.0, 10.0, (200, 256)) + 1j * rng.uniform(-np.pi, np.pi, (200, 256))
        M = lams.real.max(axis=0)
        terms = np.exp(lams - M)
        pairwise = M + np.log(np.asfortranarray(terms).sum(axis=0))
        rows = M + np.log(np.ascontiguousarray(terms).sum(axis=0))
        out = logsumexp_complex(lams)
        assert np.array_equal(out.view(float), pairwise.view(float))
        assert not np.array_equal(out, rows)

    def test_exact_zeros(self):
        lams = np.array([[complex(-np.inf, 0.0), 0.5j], [complex(-np.inf, 2.0), -1.0]])
        out = logsumexp_complex(lams)
        assert np.isneginf(out[0].real) and out[0].imag == 0.0
        assert out[1] == pytest.approx(np.log(np.exp(0.5j) + np.exp(-1.0)), abs=1e-15)


class TestWeierstrassE:
    def test_genus_zero(self):
        for w in (0.3, 1j, -2.0, 0.5 + 0.5j):
            assert weierstrass_E(w, 0) == 1 - w

    def test_at_zero(self):
        for s in range(4):
            assert weierstrass_E(0.0, s) == 1.0

    def test_hand_value(self):
        assert weierstrass_E(0.5, 1) == pytest.approx(0.5 * math.exp(0.5), rel=1e-15)

    def test_vanishes_only_at_one(self):
        assert weierstrass_E(1.0, 3) == 0.0
        rng = np.random.default_rng(31)
        for _ in range(50):
            w = complex(rng.normal(), rng.normal())
            if w != 1.0:
                assert weierstrass_E(w, 2) != 0.0

    def test_log_matches_direct(self):
        for w in (0.001, 0.4j, -1.5 + 0.2j, 0.95, 1 + 1e-8j):
            for s in (0, 1, 3):
                direct = weierstrass_E(w, s)
                A = np.array([w], dtype=complex)
                lam = _log_E(A, lambda big: _log_one_minus(1.0 - A[big]), s)[0]
                assert np.exp(lam) == pytest.approx(complex(direct), rel=1e-12, abs=1e-300)


def mp_log_E(A, s, one_minus_A=None):
    """log E(A, s) to 50 digits; A, or 1 - A when given, is taken as exact."""
    with mpmath.workdps(50):
        if one_minus_A is None:
            w = mpmath.mpc(A.real, A.imag)
            om = 1 - w
        else:
            om = mpmath.mpc(one_minus_A.real, one_minus_A.imag)
            w = 1 - om
        return complex(mpmath.log(om) + mpmath.fsum(w**j / j for j in range(1, s + 1)))


def direct_form_rtol(a, om, s, ref):
    """Rounding bound of log(1 - A) + q(A), the form used for |A| > 1/2.

    From genus 3 on the two parts cancel to well above 1e-14 relative just
    past |A| = 1/2 (about 9e-14 at genus 5); the kernel takes this form there
    as it always has, so those cells are held to 4 eps times the condition
    number of the sum instead.
    """
    parts = abs(np.log(om)) + sum(abs(a) ** j / j for j in range(1, s + 1))
    return 4 * sys.float_info.epsilon * parts / abs(ref)


def check_kernel(A, s, one_minus_A=None):
    """_log_E on one block against mpmath: 1e-14 relative on normal values,
    or the direct form's rounding bound where that is larger."""
    A = np.asarray(A, dtype=complex)
    om = 1.0 - A if one_minus_A is None else np.asarray(one_minus_A, dtype=complex)
    lam = _log_E(A, lambda big: _log_one_minus(om[big]), s)
    direct = np.abs(A) > 0.5        # the kernel's own test, rounding included
    for k, a in enumerate(A):
        ref = mp_log_E(a, s, None if one_minus_A is None else om[k])
        if abs(ref) >= sys.float_info.min:
            rtol = 1e-14
            if direct[k]:
                rtol = max(rtol, direct_form_rtol(a, om[k], s, ref))
            assert abs(lam[k] - ref) <= rtol * abs(ref), (a, s, lam[k], ref)
        else:
            assert abs(lam[k] - ref) <= sys.float_info.min, (a, s, lam[k], ref)


ANGLES = 2.0 * np.pi * np.arange(24) / 24 + 0.1


class TestLogEKernel:
    """The log-factor kernel against 50-digit mpmath."""

    @pytest.mark.parametrize("s", range(1, 6))
    def test_around_one_half(self, s):
        # both sides of the |A| = 1/2 switch, in one block and in one block each
        radii = [0.5 * (1 - 1e-12), 0.5, 0.5 * (1 + 1e-12), 0.5 * (1 + 1e-6),
                 0.55, 0.7, 0.9, 0.95, 1.5]
        blocks = [np.concatenate([r * np.exp(1j * ANGLES), [r, -r, 1j * r]]) for r in radii]
        check_kernel(np.concatenate(blocks), s)
        for block in blocks:
            check_kernel(block, s)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_small_A(self, s):
        # the mixed block and each radius alone; the tail stop is relative
        # to the first term: at genus 5 and |A| = 1e-3 an absolute 1e-24
        # stop would leave a 1e-9 relative error
        radii = [1e-3, 3e-3, 1e-2, 0.1, 0.3]
        blocks = [r * np.exp(1j * ANGLES) for r in radii]
        check_kernel(np.concatenate(blocks + [[0.0]]), s)
        for block in blocks:
            check_kernel(block, s)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_near_one_through_exact_one_minus_A(self, s):
        d = np.concatenate([m * np.exp(1j * ANGLES[::4])
                            for m in (1e-2, 1e-4, 1e-8, 1e-12, 1e-15, 2.0**-60)])
        check_kernel(1.0 - d, s, one_minus_A=d)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_minus_inf_exactly_at_one(self, s):
        A = np.array([1.0, 0.3, 1.0 + 1e-17j, 0.7 - 0.2j, 2.0])
        om = np.array([0.0, 0.7, 0.0, 0.3 + 0.2j, np.nan])
        lam = _log_E(A, lambda big: _log_one_minus(om[big]), s)
        # 1 - A = 0 is a zero of E, and a NaN 1 - A is an exact log zero
        assert list(np.isneginf(lam.real)) == [True, False, True, False, True]
        assert np.all(np.isfinite(lam[[1, 3]]))
        one = np.array([1.0 + 0j])
        assert np.isneginf(_log_E(one, lambda big: _log_one_minus(1.0 - one[big]), s)[0].real)


class TestLazyLogOneMinus:
    """_log_E asks for log(1 - A) on the cells with |A| > 1/2 only."""

    def test_called_once_with_the_big_mask(self):
        A = np.concatenate([r * np.exp(1j * ANGLES) for r in (0.1, 0.5, 0.51, 0.9, 1.0)])
        seen = []

        def log_one_minus(big):
            seen.append(big.copy())
            return _log_one_minus(1.0 - A[big])

        _log_E(A, log_one_minus, 2)
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.abs(A) > 0.5)

    def test_not_called_without_big_cells(self):
        def log_one_minus(big):
            raise AssertionError("log(1 - A) asked for with no cell above 1/2")

        lam = _log_E(np.array([0.0, 0.2j, 0.5, -0.5]), log_one_minus, 3)
        assert np.all(np.isfinite(lam))

    @pytest.mark.parametrize("s", range(1, 4))
    def test_nan_in_small_cells_is_not_read(self, s):
        A = np.array([0.3, 0.7 + 0.1j, -0.2j, 0.9])
        om = np.array([np.nan, 0.3 - 0.1j, complex(np.nan, np.nan), 0.1])
        lam = _log_E(A, lambda big: _log_one_minus(om[big]), s)
        assert np.all(np.isfinite(lam))
        small = np.abs(A) <= 0.5
        assert np.array_equal(lam[small], _log_E(A[small], None, s))

    @pytest.mark.parametrize("gf", [GrowthFunction("log_power", 2.0),
                                    GrowthFunction("exp_log_power", 0.5),
                                    GrowthFunction("power", 1.0),
                                    GrowthFunction("power", 2.0)],
                             ids=lambda gf: f"{gf.family}({gf.param:g})")
    def test_factors_bit_equal_to_all_cells_logs(self, gf):
        # genus 1 (log_power, exp_log_power), 2 and 3 (power) on the spiral
        # nodes, where every diagonal cell is an exact zero, and on rings
        cp = CanonicalProduct(spiral_sequence(), gf.genus)
        thetas = 2.0 * np.pi * np.arange(256) / 256
        rings = np.concatenate([(1.0 - 10.0**-k) * np.exp(1j * thetas) for k in range(1, 5)])
        for z, at_nodes in ((cp.sequence.values, True), (rings, False)):
            got, want = cp._factors(z), factors_all_cells(cp, z)
            assert np.isneginf(got[0].real).any() == at_nodes
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def spiral_blocks(s):
    """(A, 1 - A) of the 200-node spiral at its nodes and on four 256-point rings."""
    cp = CanonicalProduct(spiral_sequence(), s)
    thetas = 2.0 * np.pi * np.arange(256) / 256
    rings = np.concatenate([(1.0 - 10.0**-k) * np.exp(1j * thetas) for k in range(1, 5)])
    return [cp._geometry(z)[:2] for z in (cp.sequence.values, rings)]


def random_disc(rng, n):
    """A spread over the unit disc, |A| log-uniform from 1e-8 to 1 and a uniform band."""
    r = np.concatenate([10.0 ** rng.uniform(-8.0, 0.0, n), rng.uniform(0.0, 1.0, n)])
    return r * np.exp(2j * np.pi * rng.uniform(size=2 * n))


class TestPerCellDegree:
    """Each small cell runs its Horner tail to its own degree."""

    @staticmethod
    def assert_bit_equal_to_batch_degree(A, om, s):
        log_one_minus = lambda big: _log_one_minus(om[big])
        assert np.array_equal(_log_E(A, log_one_minus, s),
                              log_E_batch_degree(A, log_one_minus, s), equal_nan=True)

    @pytest.mark.parametrize("s", range(1, 5))
    def test_spiral_bit_equal_to_batch_degree(self, s):
        for A, om in spiral_blocks(s):
            self.assert_bit_equal_to_batch_degree(A, om, s)

    @pytest.mark.parametrize("s", range(1, 5))
    def test_random_disc_bit_equal_to_batch_degree(self, s):
        rng = np.random.default_rng(40 + s)
        for _ in range(4):
            A = random_disc(rng, 20_000)
            self.assert_bit_equal_to_batch_degree(A, 1.0 - A, s)

    @pytest.mark.parametrize("A", [
        np.array([0.0, 0.5, -0.5, 0.5j, -0.5j, 0.0, 0.3 - 0.1j, 0.5 * np.exp(1j), 0.0]),
        np.array([0.0, 0.0, 0.0]),
        np.concatenate([r * np.exp(1j * ANGLES) for r in (1e-12, 1e-3, 0.1, 0.25, 0.5)]),
        np.concatenate([r * np.exp(1j * ANGLES) for r in (0.5 * (1 + 1e-12), 0.7, 0.99, 2.0)]),
        np.zeros(0, dtype=complex),
    ], ids=["zeros-and-one-half", "all-zero", "all-small", "all-big", "empty"])
    @pytest.mark.parametrize("s", range(1, 5))
    def test_edge_batches_bit_equal_to_batch_degree(self, A, s):
        self.assert_bit_equal_to_batch_degree(A, 1.0 - A, s)

    @pytest.mark.parametrize("width", [1, 7, 256])
    @pytest.mark.parametrize("s", [1, 3])
    def test_column_chunks_give_the_same_bits(self, s, width):
        # what blocking the product by columns needs: no cell depends on the batch
        for A, om in spiral_blocks(s):
            whole = _log_E(A, lambda big: _log_one_minus(om[big]), s)
            chunks = [_log_E(A[:, c:c + width],
                             lambda big, c=c: _log_one_minus(om[:, c:c + width][big]), s)
                      for c in range(0, A.shape[1], width)]
            assert np.array_equal(whole, np.concatenate(chunks, axis=1), equal_nan=True)


class TestLogP:
    def test_empty_product(self):
        cp = CanonicalProduct(DiscSequence([]), 1)
        lam = cp.log_P_many(0.3 + 0.1j)
        assert lam.real == 0.0
        assert lam.imag == 0.0

    def test_zero_at_node(self):
        cp = CanonicalProduct(DiscSequence([0.5, 0.2j]), 2)
        assert np.isneginf(cp.log_P_many(0.5).real)
        assert cp.P(0.5) == 0.0

    def test_against_naive_product(self):
        rng = np.random.default_rng(32)
        seq = random_sequence(rng, 10)
        cp = CanonicalProduct(seq, 2)
        for z in (0.0, 0.3 - 0.4j, 0.91j):
            assert cp.P(z) == pytest.approx(naive_product(seq, z, 2), rel=1e-10)

    def test_phase_consistency_fifteen_nodes(self):
        rng = np.random.default_rng(33)
        seq = random_sequence(rng, 15)
        cp = CanonicalProduct(seq, 1)
        for z in (0.1, -0.5j, 0.6 + 0.3j):
            assert cp.P(z) == pytest.approx(naive_product(seq, z, 1), rel=1e-9)

    def test_zero_set_exactness(self):
        rng = np.random.default_rng(34)
        seq = random_sequence(rng, 8)
        cp = CanonicalProduct(seq, 1)
        for zk, m in zip(seq.values, seq.moduli):
            assert abs(cp.P(zk + 1e-14)) < 1e-12
            off = zk + 1e-6 * (1 - m)
            assert np.isfinite(cp.log_P_many(off).real)

    def test_genus_validation(self):
        with pytest.raises(ProductsError):
            CanonicalProduct(DiscSequence([0.5]), 0)

    def test_moebius_factor_is_exactly_one_at_its_node(self):
        seq = spiral_sequence()
        cp = CanonicalProduct(seq, 1)
        A, onemA, _ = cp._geometry(seq.values)
        assert np.all(np.diag(A) == 1.0)
        assert np.all(np.diag(onemA) == 0.0)

    def test_products_by_reciprocals_have_the_bits_of_quotients(self):
        # A = 1 / (1 + gap (1 / oms)) and q's terms w^j (1 / j) against the
        # quotients gap / oms and w^j / j: on random cells, on points and
        # nodes of both axes, and at cells with signed zero parts, where a
        # product and a quotient can differ in the sign of a zero
        rng = np.random.default_rng(7)
        axes = np.array([0.5, -0.3, 0.4j, -0.6j, 0.9, -0.95j])
        seq = DiscSequence(np.concatenate([random_sequence(rng, 30).values, axes]))
        cp = CanonicalProduct(seq, 1)
        signed_zeros = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])
        z = np.concatenate([rng.uniform(0.0, 0.999, 500) * np.exp(2j * np.pi * rng.uniform(size=500)),
                            rng.uniform(-0.99, 0.99, 40), 1j * rng.uniform(-0.99, 0.99, 40),
                            axes, -axes, signed_zeros, seq.values])
        gap = cp._zn_conj[:, None] * (cp._zn[:, None] - z[None, :])
        oms = cp._oms[:, None]
        assert not np.array_equal((gap / oms).view(np.uint64), (gap * (1.0 / oms)).view(np.uint64))
        A = cp._geometry(z)[0]
        assert np.array_equal(A.view(np.uint64), (1.0 / (1.0 + gap / oms)).view(np.uint64))
        w = np.concatenate([A.ravel(), signed_zeros, rng.normal(size=500) + 1j * rng.normal(size=500),
                            rng.normal(size=50), 1j * rng.normal(size=50)])
        for s in range(1, 6):
            want, wj = np.zeros_like(w), np.ones_like(w)
            for j in range(1, s + 1):
                wj *= w
                want += wj / j
            assert np.array_equal(_poly_q(w, s).view(np.uint64), want.view(np.uint64)), s

    def test_node_caches_are_read_only(self):
        cp = CanonicalProduct(DiscSequence([0.5, 0.2j]), 2)
        for arr in (cp.log_B_nodes, cp.log_P_prime_nodes):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_node_caches_are_built_in_column_blocks(self, monkeypatch):
        # 200 nodes take blocks of 81, 81 and 38 columns, with the same bits
        # as one pass over the whole node matrix
        seq = spiral_sequence()
        widths = []
        geometry = CanonicalProduct._geometry
        monkeypatch.setattr(CanonicalProduct, "_geometry",
                            lambda self, z: widths.append(len(z)) or geometry(self, z))
        cp = CanonicalProduct(seq, 2)
        assert widths == [81, 81, 38]
        monkeypatch.undo()
        lam = cp._factors(seq.values)[0]
        np.fill_diagonal(lam, 0.0)
        assert np.array_equal(lam.sum(axis=0).view(float), cp.log_B_nodes.view(float))

    def test_entry_points_are_built_in_column_blocks(self, monkeypatch):
        # a ring and points next to the 200 spiral nodes span 6 blocks; each
        # entry point forms no pass wider than a block and gives the bits of
        # one pass over the whole batch
        seq = spiral_sequence()
        cp = CanonicalProduct(seq, 2)
        ring = 0.9 * np.exp(2j * np.pi * np.arange(256) / 256)
        z = np.concatenate([ring, seq.values + 1e-9 * (1.0 - seq.moduli)])
        blocks = _column_blocks(len(z), len(seq))
        assert len(blocks) >= 3
        want = one_pass_products(cp, z)
        widths = []
        geometry = CanonicalProduct._geometry
        monkeypatch.setattr(CanonicalProduct, "_geometry",
                            lambda self, z: widths.append(len(z)) or geometry(self, z))
        got = {name: getattr(cp, name)(z) for name in
               ("log_deriv_P_many", "log_deriv_prime_many", "P_second_many")}
        tsuji = cp.tsuji_bound_check(z)
        got.update(tsuji_lhs=tsuji.lhs, tsuji_rhs=tsuji.rhs)
        assert max(widths) == max(b.stop - b.start for b in blocks)
        assert len(widths) == 4 * len(blocks)
        for name, value in want.items():
            assert value.tobytes() == got[name].tobytes(), name

    @pytest.mark.parametrize("n_nodes", [0, 1, 2, 200, 20000])
    def test_column_blocks(self, n_nodes):
        width = max(2, (1 << 14) // max(n_nodes, 1))
        for n_points in [0, 1, 2, 3, width - 1, width, width + 1, 2 * width + 1, 1000]:
            blocks = _column_blocks(n_points, n_nodes)
            assert blocks[0].start == 0 and blocks[-1].stop == n_points
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            # never 1 wide unless the batch is, and never above width + 1
            assert all(2 <= w <= width + 1 for w in sizes) or sizes == [n_points]

    def test_osc_targets_equal_one_whole_matrix_pass(self, monkeypatch):
        # B_k'(z_k)/B_k(z_k) takes its node pass only inside osc_targets, in
        # column blocks (81, 81 and 38 for 200 nodes), with the bits of one
        # _factors / _deriv_terms pass over the whole node matrix
        calls = []
        deriv_terms = CanonicalProduct._deriv_terms
        monkeypatch.setattr(CanonicalProduct, "_deriv_terms",
                            lambda self, A, onemA: calls.append(A.shape) or deriv_terms(self, A, onemA))
        for seq, shapes in ((spiral_sequence(30, depth=1e-2), [(30, 30)]),
                            (spiral_sequence(), [(200, 81), (200, 81), (200, 38)])):
            calls.clear()
            cp = CanonicalProduct(seq, 2)
            assert calls == []
            got = osc_targets(cp)
            assert calls == shapes
            _, A, onemA, _ = cp._factors(seq.values)
            with np.errstate(divide="ignore", invalid="ignore"):
                T = deriv_terms(cp, A, onemA)
            np.fill_diagonal(T, 0.0)
            want = -3 * np.conj(seq.values) / cp._oms - T.sum(axis=0)
            assert np.array_equal(got.view(float), want.view(float))


class TestTsuji:
    def test_empty(self):
        rep = CanonicalProduct(DiscSequence([]), 1).tsuji_bound_check(0.2)
        assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_at_node(self):
        cp = CanonicalProduct(DiscSequence([0.5]), 1)
        rep = cp.tsuji_bound_check(0.5)
        assert rep.holds and rep.lhs == -math.inf

    def test_one_factor_pass_per_check(self, monkeypatch):
        cp = CanonicalProduct(DiscSequence([0.5, 0.3 + 0.4j, -0.6j]), 2)
        zs = np.array([0.1, -0.2 + 0.3j, 0.7j])
        want = one_pass_products(cp, zs)
        lhs, rhs = want["tsuji_lhs"], want["tsuji_rhs"]
        calls = []
        geometry = CanonicalProduct._geometry
        monkeypatch.setattr(CanonicalProduct, "_geometry",
                            lambda self, z: calls.append(len(z)) or geometry(self, z))
        rep = cp.tsuji_bound_check(zs)
        assert calls == [3]
        assert np.array_equal(rep.lhs, lhs) and np.array_equal(rep.rhs, rhs)

    def test_many_points_many_sequences(self):
        rng = np.random.default_rng(35)
        for trial in range(10):
            seq = random_sequence(rng, 50, r_hi=0.97, min_gap=0.005)
            cp = CanonicalProduct(seq, rng.integers(1, 4))
            zs = 0.999 * np.sqrt(rng.uniform(size=1000)) * np.exp(
                2j * np.pi * rng.uniform(size=1000))
            rep, want = cp.tsuji_bound_check(zs), one_pass_products(cp, zs)
            assert rep.holds and np.all(rep.lhs <= rep.rhs + 1e-9)
            assert np.array_equal(rep.lhs, want["tsuji_lhs"]) and np.array_equal(rep.rhs, want["tsuji_rhs"])

    def test_subproduct_monotonicity(self):
        rng = np.random.default_rng(36)
        seq = random_sequence(rng, 20)
        sub = DiscSequence(list(seq.values[:7]))
        cp, cp_sub = CanonicalProduct(seq, 2), CanonicalProduct(sub, 2)
        zs = 0.95 * np.sqrt(rng.uniform(size=100)) * np.exp(
            2j * np.pi * rng.uniform(size=100))
        # sum |A_n|^3 is the right side over 2^4, exactly
        assert np.all(cp_sub.tsuji_bound_check(zs).rhs / 2.0 ** 4
                      <= cp.tsuji_bound_check(zs).rhs / 2.0 ** 4 + 1e-15)


class TestPrimeAtNode:
    def test_singleton_closed_form(self):
        z1 = 0.4 + 0.3j
        for s in (1, 2, 3):
            cp = CanonicalProduct(DiscSequence([z1]), s)
            hs = sum(1 / j for j in range(1, s + 1))
            expected = -np.conj(z1) * math.exp(hs) / (1 - abs(z1) ** 2)
            assert np.exp(cp.log_P_prime_nodes[0]) == pytest.approx(expected, rel=1e-13)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(37)
        seq = random_sequence(rng, 12)
        cp = CanonicalProduct(seq, 2)
        for k, (zk, m) in enumerate(zip(seq.values, seq.moduli)):
            h = 1e-6 * (1 - m)
            fd = (cp.P([zk + h])[0] - cp.P([zk - h])[0]) / (2 * h)
            assert np.exp(cp.log_P_prime_nodes[k]) == pytest.approx(fd, rel=1e-5)

    def test_matches_richardson_slope(self):
        # forward slopes P(z_k + h)/h extrapolated over h, h/2, h/4, h/8
        rng = np.random.default_rng(38)
        seq = random_sequence(rng, 8)
        cp = CanonicalProduct(seq, 1)
        for k, (zk, m) in enumerate(zip(seq.values, seq.moduli)):
            h0 = 1e-3 * (1 - m)
            slopes = [cp.P([zk + h0 / 2**i])[0] / (h0 / 2**i) for i in range(4)]
            table = list(slopes)
            for j in range(1, 4):
                table = [(2**j * table[i + 1] - table[i]) / (2**j - 1)
                         for i in range(len(table) - 1)]
            assert np.exp(cp.log_P_prime_nodes[k]) == pytest.approx(table[0], rel=1e-8)

    def test_matches_cauchy_integral(self):
        rng = np.random.default_rng(39)
        seq = random_sequence(rng, 10)
        cp = CanonicalProduct(seq, 2)
        for k in range(len(seq)):
            assert np.exp(cp.log_P_prime_nodes[k]) == pytest.approx(
                cauchy_derivative(cp, k, order=1), rel=1e-8)


class TestLogDeriv:
    def test_empty(self):
        assert CanonicalProduct(DiscSequence([]), 1).log_deriv_P_many(0.3) == 0.0

    def test_singleton_finite_difference_of_log(self):
        cp = CanonicalProduct(DiscSequence([0.5 + 0.2j]), 2)
        z = -0.3 + 0.1j
        h = 1e-6
        fd = (cp.log_P_many([z + h])[0] - cp.log_P_many([z - h])[0]) / (2 * h)
        assert cp.log_deriv_P_many([z])[0] == pytest.approx(complex(fd), rel=1e-6)

    def test_residue_at_simple_zero(self):
        rng = np.random.default_rng(40)
        seq = random_sequence(rng, 6)
        cp = CanonicalProduct(seq, 1)
        zk = seq.values[2]
        for ang in (0, np.pi / 2, np.pi, 3 * np.pi / 2):
            d = 1e-7 * (1 - seq.moduli[2]) * np.exp(1j * ang)
            val = d * cp.log_deriv_P_many(zk + d)
            assert val == pytest.approx(1.0, abs=1e-5)

    def test_pole_error(self):
        cp = CanonicalProduct(DiscSequence([0.5]), 1)
        with pytest.raises(ProductsError):
            cp.log_deriv_P_many(0.5 + 1e-16)


class TestPSecond:
    def test_empty_product(self):
        assert CanonicalProduct(DiscSequence([]), 1).P_second_many([0.2])[0] == 0.0

    @staticmethod
    def second_difference(cp, z):
        h = 1e-4 * (1 - abs(z))
        return (cp.P([z + h])[0] - 2 * cp.P([z])[0] + cp.P([z - h])[0]) / h**2

    def test_singleton_second_difference(self):
        cp = CanonicalProduct(DiscSequence([0.5]), 1)
        for z in (0.1, 0.3 + 0.4j, -0.7j):
            assert cp.P_second_many([z])[0] == pytest.approx(
                self.second_difference(cp, z), rel=1e-4)

    def test_many_nodes_second_difference(self):
        rng = np.random.default_rng(41)
        seq = random_sequence(rng, 9)
        cp = CanonicalProduct(seq, 2)
        z = 0.05 + 0.15j
        assert cp.P_second_many([z])[0] == pytest.approx(
            self.second_difference(cp, z), rel=1e-4)

    def test_nodes_in_a_batch_with_other_points(self):
        # P'' refuses the nodes, as the other derivatives do, however the
        # batch is mixed; the off-node points alone give the one-pass values
        cp = CanonicalProduct(DiscSequence([0.5, 0.3 + 0.4j, -0.6j, 0.7]), 2)
        z = np.array([0.1, 0.3 + 0.4j, -0.2 + 0.1j, 0.7, 0.5])
        for batch in (z, z[[1]], z[[0, 3]], z[[4, 2]]):
            with pytest.raises(ProductsError):
                cp.P_second_many(batch)
        off = z[[0, 2]]
        want = one_pass_products(cp, off)["P_second_many"]
        assert cp.P_second_many(off).tobytes() == want.tobytes()

    def test_one_factor_pass_per_call(self, monkeypatch):
        cp = CanonicalProduct(DiscSequence([0.5, 0.3 + 0.4j, -0.6j, 0.7]), 2)
        calls = []
        geometry = CanonicalProduct._geometry
        monkeypatch.setattr(CanonicalProduct, "_geometry",
                            lambda self, z: calls.append(len(z)) or geometry(self, z))
        cp.P_second_many(np.array([0.1, -0.2 + 0.1j, 0.2 - 0.3j]))
        cp.P_second_many(-0.2 + 0.1j)
        assert calls == [3, 1]

    def test_node_value_matches_cauchy(self):
        # P''(z_k) = -2 b_k P'(z_k), from the closed-form targets b_k of osc_targets
        rng = np.random.default_rng(42)
        seq = random_sequence(rng, 10)
        cp = CanonicalProduct(seq, 2)
        at_nodes = -2.0 * osc_targets(cp) * np.exp(cp.log_P_prime_nodes)
        for k in range(len(seq)):
            assert at_nodes[k] == pytest.approx(cauchy_derivative(cp, k, order=2), rel=1e-8)


class TestIndexCancellation:
    def test_singleton(self):
        rep = index_cancellation_check(CanonicalProduct(DiscSequence([0.7]), 1))
        assert rep.lhs[0] == pytest.approx(0.0, abs=1e-15)

    def test_two_point_hand_formula(self):
        z1, z2, s, delta = 0.5, 0.6, 1, 0.5
        cp = CanonicalProduct(DiscSequence([z1, z2]), s)
        rep = index_cancellation_check(cp, delta)
        # by hand: B_1(z_1) = E(A_2(z_1), 1), N = ln(0.25/0.1)
        a21 = (1 - z2**2) / (1 - z2 * z1)
        lnB1 = math.log(abs(1 - a21)) + a21
        n1 = math.log(delta * (1 - z1) / abs(z2 - z1))
        assert rep.lhs[0] == pytest.approx(abs(lnB1 + n1), rel=1e-12)
        a11 = 1.0
        assert rep.rhs[0] == pytest.approx(a11**2 + abs(a21) ** 2, rel=1e-12)
        assert rep.finite

    def test_sharpness_sequence_cancellation(self):
        # individual terms of size 2**(n rho) cancel; the ratio stays tame
        seq = sharpness_sequence(1.0, 5).to_disc_sequence()
        cp = CanonicalProduct(seq, 2)
        rep = index_cancellation_check(cp)
        assert rep.finite
        assert rep.constant < 5.0

    def test_matches_log_space_path_on_representable_nodes(self):
        # the double-precision and exact-log computations agree where both apply
        sharp = sharpness_sequence(1.0, 4)
        seq = sharp.to_disc_sequence()
        assert len(seq) == 8
        cp = CanonicalProduct(seq, 2)
        rep_double = index_cancellation_check(cp)
        rep_log = sharp.index_cancellation_log_report(genus=2)
        for k in range(8):
            assert rep_double.lhs[k] == pytest.approx(rep_log.lhs[k], rel=1e-6, abs=1e-9)
            assert rep_double.rhs[k] == pytest.approx(rep_log.rhs[k], rel=1e-9)


class TestPrimeCountingCriteria:
    def test_singleton_formula(self):
        z1, s = 0.5, 2
        cp = CanonicalProduct(DiscSequence([z1]), s)
        gf = GrowthFunction("power", 1.0)
        rep = prime_counting_criteria_check(cp, gf)
        hs = 1 + 0.5
        expected = abs(hs + math.log(z1 / (1 + z1))) / float(gf.psi(1 / (1 - z1)))
        assert rep.ln_prime_constant == pytest.approx(expected, rel=1e-12)
        assert rep.class_R_member

    def test_lattice_constants_finite(self):
        rng = np.random.default_rng(43)
        seq = random_sequence(rng, 40, min_gap=0.01)
        gf = GrowthFunction("power", 1.0)
        cp = CanonicalProduct(seq, gf.genus)
        rep = prime_counting_criteria_check(cp, gf)
        assert math.isfinite(rep.ln_prime_constant)

    def test_counts_and_ln_prime_match_the_per_node_loop(self):
        rng = np.random.default_rng(45)
        seq = random_sequence(rng, 40, r_lo=0.5, r_hi=0.97, min_gap=0.005)
        gf = GrowthFunction("power", 1.0)
        cp = CanonicalProduct(seq, gf.genus)
        rep = prime_counting_criteria_check(cp, gf)
        psi = gf.psi(1.0 / (1.0 - seq.moduli))
        counts = np.array([counting_n(seq, seq.values[k], 0.5 * (1.0 - seq.moduli[k]))
                           for k in range(len(seq))], dtype=float)
        ln_prime = np.array([abs(math.log(1.0 - seq.moduli[k]) + cp.log_P_prime_nodes[k].real)
                             for k in range(len(seq))])
        assert counts.max() > 1
        # the node-only count bound is the sandwich's n_bound
        sandwich = counting_sandwich_check(seq, gf, check_concentration(seq, gf), z_points=[])
        assert sandwich.n_bound.best_constant == float((counts / psi).max())
        assert sandwich.n_bound.numerators[:len(seq)].tobytes() == counts.tobytes()
        assert rep.ln_prime_constant == float((ln_prime / psi).max())

    def test_makes_no_counting_call(self, monkeypatch):
        calls = []
        counting_N = counting.counting_N
        monkeypatch.setattr(counting, "counting_N", lambda *a: calls.append(a) or counting_N(*a))
        seq = random_sequence(np.random.default_rng(44), 15)
        gf = GrowthFunction("power", 1.0)
        prime_counting_criteria_check(CanonicalProduct(seq, gf.genus), gf)
        assert calls == []

    @pytest.mark.parametrize("gf, member", [
        (GrowthFunction("power", 1.0), True),
        (GrowthFunction("log_power", 0.0), False),
        (GrowthFunction("log_power", 2.0), False),
        (GrowthFunction("exp_log_power", 0.5), False),
    ], ids=["power", "log_power0", "log_power2", "exp_log_power"])
    def test_class_R_member(self, gf, member):
        # powers are in class R (psi_tilde / psi tends to 1/rho); the slow families are not
        cp = CanonicalProduct(DiscSequence([0.5]), gf.genus)
        assert prime_counting_criteria_check(cp, gf).class_R_member is member
