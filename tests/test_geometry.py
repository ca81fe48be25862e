"""Tests for the pseudohyperbolic geometry primitives."""

import cmath
import math

import numpy as np
import pytest

from discinterp.geometry import DUPLICATE_TOL, DiscSequence, GeometryError
from discinterp.products import CanonicalProduct

from helpers import abs_split_sequence, pseudo_dist


def random_disc_points(rng, n, r_max=0.999):
    r = r_max * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    return r * np.exp(1j * theta)


class TestPseudoDist:
    def test_identical_points(self):
        assert pseudo_dist(0.3 + 0.4j, 0.3 + 0.4j) == 0.0

    def test_from_origin_reduces_to_modulus(self):
        w = 0.3 - 0.5j
        assert pseudo_dist(0.0, w) == pytest.approx(abs(w), abs=1e-15)

    def test_hand_value(self):
        # |0.75 - 0.5| / |1 - 0.5*0.75| = 0.25 / 0.625
        assert pseudo_dist(0.5, 0.75) == pytest.approx(0.4, abs=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        zs = random_disc_points(rng, 200)
        ws = random_disc_points(rng, 200)
        for z, w in zip(zs, ws):
            d = pseudo_dist(z, w)
            assert d == pytest.approx(pseudo_dist(w, z), abs=0.0)
            assert 0.0 <= d < 1.0
            assert (d == 0.0) == (z == w)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(12)
        for z, w, a in zip(random_disc_points(rng, 100, 0.95),
                           random_disc_points(rng, 100, 0.95),
                           random_disc_points(rng, 100, 0.9)):
            phi = lambda u: (a - u) / (1 - np.conj(a) * u)
            assert pseudo_dist(phi(z), phi(w)) == pytest.approx(
                pseudo_dist(z, w), abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(GeometryError):
            pseudo_dist(1.0, 0.5)

    def test_rejects_a_point_whose_np_abs_is_one(self):
        # scalar abs gives 0.9999999999999999 here, np.abs (as DiscSequence reads it) 1.0
        z = complex(-0.8416209805657928, 0.5400686299642603)
        with pytest.raises(GeometryError):
            pseudo_dist(z, 0.3)
        with pytest.raises(GeometryError):
            pseudo_dist(0.3, z)


class TestMobiusFactor:
    """A_n(z) as every canonical product forms it, in ``CanonicalProduct._geometry``."""

    @staticmethod
    def factors(nodes, zs):
        cp = CanonicalProduct(DiscSequence(nodes), 1)
        return cp._geometry(np.asarray(zs, dtype=complex))[0]

    def test_exactly_one_at_near_boundary_nodes(self):
        rng = np.random.default_rng(14)
        nodes = [(1.0 - 10.0 ** rng.uniform(-8, -1)) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(200)]
        assert np.all(np.diag(self.factors(nodes, nodes)) == 1.0)

    def test_at_origin(self):
        assert self.factors([0.8j], [0.0])[0, 0] == pytest.approx(1 - 0.64, abs=1e-15)

    def test_sup_over_grid_at_most_two(self):
        rng = np.random.default_rng(13)
        nodes = random_disc_points(rng, 40, 0.999)
        zs = random_disc_points(rng, 500, 0.9999)
        assert np.abs(self.factors(nodes, zs)).max() <= 2.0 + 1e-12


class TestDenominatorBounds:
    def test_two_sided_bound_for_close_pairs(self):
        # 1-|z_k| <= |1 - conj(z_n) z_k| <= (2+delta)(1-|z_k|) whenever
        # |z_n - z_k| <= delta (1 - |z_k|)
        rng = np.random.default_rng(15)
        delta = 0.77
        for _ in range(2000):
            zk = complex(random_disc_points(rng, 1, 0.99)[0])
            shift = delta * (1 - abs(zk)) * rng.uniform() * cmath.exp(
                2j * math.pi * rng.uniform())
            zn = zk + shift
            if abs(zn) >= 1:
                continue
            val = abs(1 - np.conj(zn) * zk)
            assert val >= (1 - abs(zk)) - 1e-14
            assert val <= (2 + delta) * (1 - abs(zk)) + 1e-14


class TestDiscSequence:
    def test_origin_node_rejected(self):
        with pytest.raises(GeometryError):
            DiscSequence([0.5, 1e-12])

    def test_duplicates_rejected(self):
        with pytest.raises(GeometryError):
            DiscSequence([0.5, 0.5 + DUPLICATE_TOL / 10])

    def test_outside_disc_rejected(self):
        with pytest.raises(GeometryError):
            DiscSequence([0.5, 1.2])

    def test_modulus_one_in_np_abs_rejected(self):
        # scalar abs (libm hypot) rounds this node to 0.9999999999999999, but
        # np.abs, the modulus every consumer reads, gives exactly 1.0
        z = -0.8416209805657928 + 0.5400686299642603j
        assert np.abs(np.array([z]))[0] == 1.0
        with pytest.raises(GeometryError, match="not inside the open unit disc"):
            DiscSequence([z, 0.3])

    def test_nan_rejected(self):
        with pytest.raises(GeometryError, match="not inside the open unit disc"):
            DiscSequence([0.5, complex(math.nan, 0.0)])

    def test_checks_run_in_order(self):
        # outside the disc before too close to the origin before duplicates
        with pytest.raises(GeometryError, match="not inside"):
            DiscSequence([0.5, 0.5, 1e-12, 1.5])
        with pytest.raises(GeometryError, match=r"node 2 at \(1e-12\+0j\) is too close"):
            DiscSequence([0.5, 0.5, 1e-12])
        with pytest.raises(GeometryError, match="nodes 0 and 1 coincide"):
            DiscSequence([0.5, 0.5])

    def test_moduli_are_np_abs_and_read_only(self):
        vals = np.array([0.5, -0.25j, 0.1 + 0.1j, -0.8416209805657928 + 0.5j])
        seq = DiscSequence(vals)
        assert np.array_equal(seq.moduli, np.abs(vals))
        with pytest.raises(ValueError):
            seq.moduli[0] = 0.1
        assert vals.flags.writeable

    def test_indices_are_stable(self):
        vals = [0.5, -0.25j, 0.1 + 0.1j]
        seq = DiscSequence(vals)
        assert len(seq) == 3
        for k, v in enumerate(vals):
            assert seq.values[k] == complex(v)
        assert seq.moduli.min() == pytest.approx(abs(0.1 + 0.1j))

    def test_empty_sequence_allowed(self):
        seq = DiscSequence([])
        assert len(seq) == 0
        assert seq.moduli.shape == (0,)

    def test_values_read_only(self):
        seq = DiscSequence([0.5])
        with pytest.raises(ValueError):
            seq.values[0] = 0.1

    @pytest.mark.parametrize("make", [abs_split_sequence,
                                      lambda: DiscSequence(random_disc_points(
                                          np.random.default_rng(15), 300))])
    def test_nearest_equals_the_per_node_loop(self, make):
        seq = make()
        v = seq.values
        loop = np.array([np.min(np.abs(np.delete(v, k) - v[k])) for k in range(len(v))])
        assert seq.nearest.tobytes() == loop.tobytes()
        with pytest.raises(ValueError):
            seq.nearest[0] = 0.1

    def test_nearest_without_neighbours(self):
        assert DiscSequence([]).nearest.shape == (0,)
        assert DiscSequence([0.5]).nearest.tolist() == [math.inf]
