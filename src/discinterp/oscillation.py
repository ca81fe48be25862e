"""Coefficient construction for f'' + a f = 0 with prescribed zeros.

Writing a solution as f = P e^g with P the canonical product over the zero
set turns the equation into
a = -P''/P - 2 g' P'/P - (g')^2 - g'',
which is analytic across the nodes exactly when h = g' interpolates
h(z_k) = -P''(z_k) / (2 P'(z_k)).  The interpolation module supplies h.  g
is a primitive of h whose free additive constant only rescales f, so the
residual check anchors it at each sample point.  h' comes from term-wise
analytic differentiation of the series, never from finite differences, so
residual checks keep an independent error source.

The sharpness pair sequence packs two points per dyadic level with gaps
eps_n = exp(-2**(n rho)) / 2.  The gaps underflow doubles almost
immediately, so the sequence keeps exact logarithmic records (ln eps_n,
ln(1 - |z_m|)) and all counting and reduced-product quantities on it are
computed in log space; nodes whose gap is not representable are flagged
log-only and excluded from complex-plane evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import products
from .geometry import DELTA, DiscSequence, _Pcg64
from .growth import GrowthFunction
from .interpolation import (
    GrowthTable,
    Interpolant,
    _ring_growth_table,
    build_interpolant,
)
from .products import CanonicalProduct, IndexCancellationReport, logsumexp_complex

__all__ = [
    "OscillationError",
    "osc_targets",
    "OscillationSolution",
    "build_coefficient",
    "ResidualReport",
    "SharpnessSequence",
    "SharpnessRow",
    "sharpness_sequence",
    "sharpness_counting_check",
    "WitnessReport",
    "sharpness_growth_witness",
]

LN2 = math.log(2.0)

# 7-point, 6th order central second-derivative stencil
_FD7 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_STENCIL = np.arange(-3.0, 4.0)
# 8-point Gauss-Legendre rule on [0, 1] for each unit sub-segment of the stencil;
# the nodes and weights on [-1, 1] are the doubles of numpy's leggauss(8), written
# out so no run imports numpy.polynomial or calls LAPACK for 16 constants
_x8 = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                0.7966664774136267, 0.9602898564975362])
_w8 = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                0.22238103445337443, 0.10122853629037706])
_PANEL_TS, _PANEL_WEIGHTS = 0.5 * (_x8 + 1.0), 0.5 * _w8
# points per residual sample: the stencil, then a panel on each of its 6 sub-segments
_SAMPLE_POINTS = len(_STENCIL) + (len(_STENCIL) - 1) * len(_PANEL_TS)
# fewest points per sample chunk of residual_report: a chunk holds
# max(EVAL_BLOCK, one column block's width) points, which bounds its per-point arrays
EVAL_BLOCK = 1024
# zero_counts' nested trapezoid rule: first and largest point counts per
# circle, and the constant C of its roundoff floor C eps sum|w dz| / (2 pi)
WINDING_START = 64
WINDING_CAP = 1024
WINDING_FLOOR = 256


class OscillationError(ValueError):
    """Invalid oscillation construction or parameter."""


def osc_targets(cp: CanonicalProduct) -> np.ndarray:
    """Targets b_k = -P''(z_k) / (2 P'(z_k)) in closed form.

    The reduced product cancels in the ratio, leaving
    b_k = -(s + 1) conj(z_k) / (1 - |z_k|^2) - B_k'(z_k)/B_k(z_k),
    so the values stay finite even when B_k underflows.  B_k'(z_k)/B_k(z_k) is
    the sum of the other factors' log derivatives at z_k, from one blocked
    pass over the node matrix; only this coefficient needs it, so
    ``interpolate`` and ``check`` never pay for that pass.
    """
    def terms(z):
        A, onemA, _ = cp._geometry(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return cp._deriv_terms(A, onemA)
    zc = np.conj(cp.sequence.values)
    return -(cp.genus + 1) * zc / cp._oms - cp._node_sums(terms)


@dataclass(frozen=True)
class ResidualReport:
    points: tuple
    residuals: tuple

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


class OscillationSolution:
    """Coefficient function with its product/interpolant decomposition."""

    def __init__(self, gprime: Interpolant):
        self.product = gprime.product
        self.gprime = gprime

    @property
    def sequence(self) -> DiscSequence:
        return self.product.sequence

    # -- the coefficient --------------------------------------------------

    def _coefficient(self, z) -> tuple[np.ndarray, ...]:
        """(a, h, P'/P, (P'/P)') from one factor pass; a = -P''/P - 2 h P'/P - h^2 - h'."""
        h, hp, _, _, lp, lp2 = self.gprime.eval_and_derivative_many(z)
        # an overflowed h gives a non-finite a, which the caller counts
        with np.errstate(over="ignore", invalid="ignore"):
            return -(lp**2 + lp2) - 2.0 * h * lp - h**2 - hp, h, lp, lp2

    def coefficient_log_many(self, z) -> np.ndarray:
        """Complex log of a(z), term by term; survives radii where h overflows doubles."""
        _, _, lam_h, lam_hp, lp, lp2 = self.gprime.eval_and_derivative_many(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            comp = np.stack([
                2.0 * lam_h + 1j * math.pi,
                lam_hp + 1j * math.pi,
                np.log(lp**2 + lp2) + 1j * math.pi,
                lam_h + np.log(2.0 * lp) + 1j * math.pi,
            ])
        return logsumexp_complex(comp)

    # -- diagnostics --------------------------------------------------------

    def residual_report(self, n_samples: int, seed: int) -> ResidualReport:
        """Normalized |f'' + a f| at random points of |z| < 0.8 away from the nodes.

        Each point keeps a distance of (1 - |z|)/10 from every node, and that
        nearest-node distance also caps its stencil step.  f is
        differentiated by a 7-point finite-difference stencil applied to
        the locally anchored P(z) exp(g(z) - g(z0)): the common factor
        exp(g(z0)) scales out of the normalized residual, so no global
        quadrature enters.  The stencil step shrinks with every local rate
        (|h|, sqrt|a|, |P'/P|, 1/(1-|z|)) to balance truncation against
        roundoff.  The increments g(z0 + j step) - g(z0) come from
        ``_g_increments``: an 8-point Gauss-Legendre panel on each of the 6
        sub-segments between adjacent stencil points, 55 points per sample.
        """
        z0, gaps = self._residual_samples(n_samples, seed)
        a0, step = self._stencil_steps(z0, gaps)
        chunk = max(EVAL_BLOCK, products._block_width(len(self.sequence))) // _SAMPLE_POINTS
        residuals = np.empty(n_samples)
        for lo in range(0, n_samples, chunk):
            zc, hc = z0[lo:lo + chunk], step[lo:lo + chunk]
            log_P, dg = self._g_increments(zc, hc)
            with np.errstate(over="ignore"):
                f_loc = np.exp(log_P) * np.exp(dg)
            ac, f0 = a0[lo:lo + chunk], f_loc[:, 3]
            # a non-finite sample or a zero step gives a NaN residual, which the caller counts
            with np.errstate(divide="ignore", invalid="ignore"):
                fd_second = (_FD7 * f_loc).sum(axis=1) / hc**2
                residuals[lo:lo + chunk] = np.abs(fd_second + ac * f0) / (
                    np.abs(fd_second) + np.abs(ac) * np.abs(f0) + 1e-300)
        return ResidualReport(points=tuple(z0.tolist()), residuals=tuple(residuals.tolist()))

    def _residual_samples(self, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """(points, nearest-node gaps) of ``residual_report``'s samples.

        Each candidate 0.8 sqrt(u) e^{2 pi i v} takes a (u, v) pair of the
        seed's stream and is kept when its gap to the nearest node is at
        least (1 - |z|)/10, at most 200 n_samples candidates in all.  The
        pairs are drawn in blocks of one candidate per sample still needed,
        so no draw is wasted, and each block's points and gaps take one
        array pass; |z| is the scalar abs of each candidate, in order, since
        numpy's array abs can round differently.
        """
        rng, nodes = _Pcg64(seed), self.sequence.values
        zs: list[complex] = []
        gaps: list[float] = []
        attempts, cap = 0, 200 * n_samples
        while len(zs) < n_samples and attempts < cap:
            size = min(n_samples - len(zs), cap - attempts)
            attempts += size
            u, v = rng.uniforms(0.0, 1.0, 2 * size).reshape(size, 2).T
            z = 0.8 * np.sqrt(u) * np.exp(2j * math.pi * v)
            gap = np.abs(nodes[:, None] - z).min(axis=0, initial=np.inf)
            for zk, gk in zip(z, gap):
                if not gk < 0.1 * (1.0 - abs(zk)):
                    zs.append(complex(zk))
                    gaps.append(gk)
        if len(zs) < n_samples:
            raise OscillationError("could not place residual sample points")
        return np.array(zs, dtype=complex), np.array(gaps)

    def _stencil_steps(self, z0: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a(z0), stencil step): 0.02 over the sum of local rates, at most 0.05 gaps."""
        a0, h0, lp, lp2 = self._coefficient(z0)
        scale = (np.abs(h0) + np.sqrt(np.abs(a0)) + np.abs(lp)
                 + np.sqrt(np.abs(lp2)) + 2.0 / (1.0 - np.abs(z0)))
        return a0, np.minimum(0.02 / scale, 0.05 * gaps)

    def _g_increments(self, z0: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log P, g - g(z0)) at the stencil points z0 + j step, j = -3..3; one row per sample.

        h is integrated once over each unit sub-segment [j, j + 1] step by
        the 8-point Gauss-Legendre rule, and the increments are cumulative
        sums of those pieces outward from z0, so g(z0) - g(z0) = 0 exactly.
        """
        pts = z0[:, None] + _STENCIL * step[:, None]
        seg = z0[:, None, None] + step[:, None, None] * (_STENCIL[:-1, None] + _PANEL_TS)
        vals, log_P = self.gprime.eval_and_log_P_many(np.concatenate([pts.ravel(), seg.ravel()]))
        pieces = (vals[pts.size:].reshape(seg.shape) * _PANEL_WEIGHTS).sum(axis=2) * step[:, None]
        dg = np.zeros(pts.shape, dtype=complex)
        dg[:, 4:] = np.cumsum(pieces[:, 3:], axis=1)
        dg[:, 2::-1] = -np.cumsum(pieces[:, 2::-1], axis=1)
        return log_P[:pts.size].reshape(pts.shape), dg

    def zero_counts(self) -> np.ndarray:
        """Winding number of f around each node on a safe private circle.

        The circle must stay inside the region where h keeps its node scale:
        the trapezoid cancels the analytic h contribution only down to the
        roundoff floor eps * max|h| * radius, and h grows like
        exp(s_k |dz| / (1 - |z_k|)) away from the node.  So the radius is 0.4
        times the least of the nearest gap (``DiscSequence.nearest``), 1 - |z_k| and
        5 (1 - |z_k|) / (1 + s_k).  All circles are integrated together by
        the nested trapezoid rule of ``_winding_numbers``.
        """
        return self._winding_numbers(self.sequence.values, self._winding_radii())[0]

    def _winding_radii(self) -> np.ndarray:
        """Radius of each node's private circle, from the node gaps ``DiscSequence.nearest``."""
        one_minus = 1.0 - self.sequence.moduli
        return 0.4 * np.minimum(np.minimum(self.sequence.nearest, one_minus),
                                5.0 * one_minus / (1.0 + self.gprime.exponents))

    def _winding_numbers(self, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(raw zero count of f in each circle, trapezoid points it used).

        The rule is nested.  It starts at WINDING_START points, and a
        doubling evaluates only the new odd-index points of the 2n-point
        rule, on just the circles whose last two counts (at the start, the
        n-point count and the n/2-point count from its even points) differ
        by more than the roundoff floor WINDING_FLOOR eps sum|w dz| / (2 pi),
        summed over the circle's current points.  The constant 256 is above
        the largest difference measured between converged rules, 184 such
        units at N = 139.  The trapezoid converges geometrically on these
        circles, so an accepted count is far more accurate than that
        difference.  A circle stops at WINDING_CAP points and keeps its
        count there, for the caller's gate to judge.
        """
        n = WINDING_START
        terms = self._circle_terms(centers, radii, 2.0 * math.pi * np.arange(n) / n)
        # a non-finite count is kept, for the caller to count
        with np.errstate(invalid="ignore"):
            total, size = terms.sum(axis=1), np.abs(terms).sum(axis=1)
            counts, previous = total / n, terms[:, ::2].sum(axis=1) / (n // 2)
        points = np.full(len(centers), n)
        idx = np.arange(len(centers))
        while True:
            floor = WINDING_FLOOR * np.finfo(float).eps * size[idx] / n
            idx = idx[np.abs(counts[idx] - previous) > floor]
            if n == WINDING_CAP or not idx.size:
                return counts.real, points
            terms = self._circle_terms(centers[idx], radii[idx],
                                       2.0 * math.pi * np.arange(1, 2 * n, 2) / (2 * n))
            n *= 2
            total[idx] += terms.sum(axis=1)
            size[idx] += np.abs(terms).sum(axis=1)
            previous, counts[idx] = counts[idx], total[idx] / n
            points[idx] = n

    def _circle_terms(self, centers: np.ndarray, radii: np.ndarray,
                      thetas: np.ndarray) -> np.ndarray:
        """w (z - c), w = P'/P + h, at z = c + r e^(i theta); a row per circle."""
        ring = centers[:, None] + radii[:, None] * np.exp(1j * thetas)
        z = ring.ravel()
        w = self.product.log_deriv_P_many(z) + self.gprime.eval_many(z)
        with np.errstate(invalid="ignore"):  # an overflowed h gives a non-finite term
            return w.reshape(ring.shape) * (ring - centers[:, None])

    def growth_a_report(self, r_grid: Sequence[float], theta_count: int) -> GrowthTable:
        """ln max |a| on circles against psi_tilde, fully in log space, all circles in one batch."""
        if not all(0 < r < 1 for r in r_grid):
            raise OscillationError("growth radii must lie in (0, 1)")
        return _ring_growth_table(
            lambda z: self.coefficient_log_many(z.ravel()).real.reshape(z.shape).max(axis=1),
            self.gprime.ladder.gf, r_grid, theta_count)


def build_coefficient(seq: DiscSequence, gf: GrowthFunction, C0: float) -> OscillationSolution:
    """Build a(z) so that f'' + a f = 0 admits a solution vanishing exactly on seq."""
    product = CanonicalProduct(seq, gf.genus)
    return OscillationSolution(build_interpolant(product, osc_targets(product), gf, C0))


# ---------------------------------------------------------------------------
# sharpness pair sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessRow:
    n: int
    N_value: float
    target: float
    ratio: float


@dataclass(frozen=True)
class WitnessReport:
    """Forced lower bound on ln|g'| against the hypothetical growth cap."""

    rows: tuple
    crossing_index: Optional[int]


class SharpnessSequence:
    """Paired dyadic sequence z = 1 - 2^-n and its eps_n-shifted twin.

    Exact log-space records (ln eps_n, ln(1 - |z_m|), the pairwise gap logs
    ``log_gaps``) make counting checks possible far beyond double-precision
    range; nodes whose twin gap cannot be represented are flagged log-only.
    """

    def __init__(self, rho: float, n_max: int):
        if not rho > 0:
            raise OscillationError("rho must be positive")
        if n_max < 1:
            raise OscillationError("n_max must be at least 1")
        self.rho = float(rho)
        self.n_max = int(n_max)
        pair = np.repeat(np.arange(1, n_max + 1), 2)
        upper = np.tile([False, True], n_max)
        t_pow = 2.0 ** (pair * rho)
        log_eps = -t_pow - LN2
        with np.errstate(under="ignore"):
            # halving is exact, so this beats exp(-t - ln 2) by half an ulp
            eps = 0.5 * np.exp(-t_pow)
        base = 2.0 ** (-pair.astype(float))
        off = np.where(upper, eps, 0.0)
        positions = 1.0 - base + off
        # ln(1 - |z|): exact for the lower twin, log1p-corrected for the upper
        scaled = np.exp(np.minimum(log_eps + pair * LN2, 0.0)) * upper
        log_one_minus = -pair * LN2 + np.log1p(-scaled)
        if np.any(eps >= base / 2.0):
            raise OscillationError(
                "pair gap exceeds half the dyadic step; sequence not increasing"
            )
        if np.any(positions >= 1.0) or np.any(positions <= 0.0):
            raise OscillationError("sequence left the open unit interval")
        self.pair = pair
        self.is_upper = upper
        self.t_pow = t_pow
        self.log_eps = log_eps
        self.eps = eps
        self.positions = positions
        self.log_one_minus = log_one_minus
        self.log_only = upper & ~(positions > (1.0 - base))
        # ln |z_i - z_j| with exact twin-gap records; +inf on the diagonal (read-only)
        up_eps = eps * upper
        with np.errstate(divide="ignore"):
            gaps = np.log(np.abs((base[:, None] - base[None, :]) + up_eps[None, :]
                                 - up_eps[:, None]))
        twins = (pair[:, None] == pair[None, :]) & (upper[:, None] != upper[None, :])
        gaps[twins] = np.broadcast_to(log_eps[:, None], gaps.shape)[twins]
        gaps[np.diag_indices_from(gaps)] = np.inf
        self.log_gaps = gaps
        for arr in (self.pair, self.is_upper, self.t_pow, self.log_eps, self.eps,
                    self.positions, self.log_one_minus, self.log_only, self.log_gaps):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return 2 * self.n_max

    # -- exact pairwise geometry ------------------------------------------

    def counting_N_log(self, m: int) -> float:
        """N at node m with radius DELTA (1 - |z_m|), entirely in log space."""
        gaps = self.log_gaps[m]
        r_log = math.log(DELTA) + float(self.log_one_minus[m])
        inside = gaps <= r_log + 1e-12
        inside[m] = False
        return float(np.sum(r_log - gaps[inside]))

    # -- conversions --------------------------------------------------------

    def to_disc_sequence(self) -> DiscSequence:
        """The nodes usable for complex-plane evaluation; an upper twin needs a gap >= 2e-15."""
        dropped = self.is_upper & (self.log_only | (self.eps < 2e-15))
        return DiscSequence(self.positions[~dropped])

    # -- log-space product diagnostics ---------------------------------------

    def index_cancellation_log_report(self, genus: int) -> IndexCancellationReport:
        """|ln|B_k| + N_k| against sum |A_n|^(s+1), with exact gap logs.

        The log-factor kernel takes ln(1 - A) from the exact gap logs, so the
        huge twin terms ln(eps) survive and cancel between ln|B_k| and the
        counting integral.
        """
        if genus < 1:
            raise OscillationError("genus must be a positive integer")
        x = self.positions
        om = np.exp(self.log_one_minus)          # 1 - x, exact to double
        # rows n, columns k: factor n evaluated at node k
        D = om[:, None] + x[:, None] * om[None, :]   # 1 - x_n x_k, no cancellation
        A = (om * (1.0 + x))[:, None] / D            # (1 - x_n^2) / D

        def log_one_minus_A(big):
            # ln(1 - A) = ln x_n + ln|x_n - x_k| - ln D on the cells that read it
            return np.log(x)[big.nonzero()[0]] + self.log_gaps[big] - np.log(D[big])

        ln_E = products._log_E(A, log_one_minus_A, genus).real
        np.fill_diagonal(ln_E, 0.0)
        N = np.array([self.counting_N_log(k) for k in range(len(self))])
        lhs = np.abs(ln_E.sum(axis=0) + N)
        rhs = (np.abs(A) ** (genus + 1)).sum(axis=0)
        ratios = lhs / rhs
        return IndexCancellationReport(tuple(lhs.tolist()), tuple(rhs.tolist()),
                                       tuple(ratios.tolist()), float(ratios.max(initial=0.0)))


def sharpness_sequence(rho: float, n_max: int) -> SharpnessSequence:
    return SharpnessSequence(rho, n_max)


def sharpness_counting_check(seq: SharpnessSequence) -> tuple:
    """Rows (n, N at the upper twin, (1/(1-|z|))^rho, ratio)."""
    rows = []
    for n in range(1, seq.n_max + 1):
        m = 2 * n - 1
        N = seq.counting_N_log(m)
        target = math.exp(-seq.rho * float(seq.log_one_minus[m]))
        rows.append(SharpnessRow(n=n, N_value=N, target=target, ratio=N / target))
    return tuple(rows)


def sharpness_growth_witness(seq: SharpnessSequence, eps0: float) -> WitnessReport:
    """Crossing of the forced ln|g'(z_2n)| >= 2^(n rho) - ln 5 lower bound.

    The hypothetical cap is (1/(1-|z_2n|))^(rho - eps0/2); the report
    lists both columns and the first index from which the lower bound
    exceeds the cap for the rest of the range (None when the scales
    coincide, e.g. eps0 = 0).
    """
    if eps0 < 0:
        raise OscillationError("eps0 must be nonnegative")
    rows = []
    above = []
    for n in range(1, seq.n_max + 1):
        m = 2 * n - 1
        lower = float(seq.t_pow[m]) - math.log(5.0)
        upper = math.exp(-(seq.rho - eps0 / 2.0) * float(seq.log_one_minus[m]))
        rows.append((n, lower, upper))
        above.append(lower > upper)
    crossing = None
    for i in range(len(above)):
        if all(above[i:]):
            crossing = i + 1
            break
    return WitnessReport(rows=tuple(rows), crossing_index=crossing)
