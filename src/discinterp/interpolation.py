"""Constructive interpolation series over a canonical product.

The interpolant is

    f(z) = sum_n b_n / (z - z_n) * P(z) / P'(z_n)
                 * ((1 - |z_n|^2) / (1 - conj(z_n) z))**(s_n - 1),

with per-node exponents s_n selected from a log-concave coefficient ladder:
ln phi_n is minus the Young conjugate of u -> C0 * psi_tilde(C0 e^u), so the
ladder equals its own Newton majorant and its coefficient ratios kappa_n are
nondecreasing.  A node with 1/(1 - |z_n|) in the kappa bucket [kappa_m,
kappa_{m+1}) receives s_n = m, clamped to at least 1 so the extra Moebius
factor never carries a negative power.

Evaluation is log-space throughout.  The n-th term is assembled from the
factor split P(z) = E(A_n(z), s) B_n(z) using the exact identity
E(A_n(z), s)/(z - z_n) = -conj(z_n) e^{Q(A_n(z))} / (1 - conj(z_n) z), which
is pole-free, so f(z_k) = b_k holds exactly at the nodes and the terms stay
finite arbitrarily close to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import DiscSequence
from .growth import GrowthError, GrowthFunction
from .products import (
    LOG_ZERO,
    CanonicalProduct,
    _poly_q,
    logsumexp_complex,
)

__all__ = [
    "InterpolationError",
    "LadderError",
    "TargetData",
    "CoefficientLadder",
    "build_ladder",
    "ladder_for_sequence",
    "select_exponents",
    "Interpolant",
    "build_interpolant",
    "GrowthRow",
    "GrowthTable",
    "growth_report",
    "MaxTermBoundReport",
    "max_term_bound_report",
]


class InterpolationError(ValueError):
    """Inconsistent interpolation data."""


class LadderError(ValueError):
    """The coefficient ladder cannot be built or is too short."""


# hard cap on ladder length: beyond this the conjugate arrays stop fitting
# in memory; reachable only for fast growth with nodes hugging the boundary
MAX_LADDER_LENGTH = 5_000_000

# cells per block of the pruned maximal-term scan; any value gives the same
# results, it only moves time between the block bounds and the scan
_BLOCK = 256


@dataclass(frozen=True)
class TargetData:
    """Interpolation targets with their admissibility constant."""

    values: np.ndarray
    admissibility_constant: float

    @classmethod
    def from_values(cls, seq: DiscSequence, gf: GrowthFunction,
                    values: Sequence[complex]) -> "TargetData":
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (len(seq),):
            raise InterpolationError(
                f"expected {len(seq)} target values, got shape {vals.shape}"
            )
        denom = np.asarray(gf.psi_tilde(1.0 / (1.0 - seq.moduli)), dtype=float)
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(vals))
        constant = float(np.max(np.maximum(log_abs, 0.0) / denom, initial=0.0))
        vals = vals.copy()
        vals.flags.writeable = False
        return cls(values=vals, admissibility_constant=constant)


@dataclass(frozen=True)
class CoefficientLadder:
    """Log-concave coefficient ladder with its ratio sequence.

    ``log_coeffs[n]`` is ln phi_n; ``log_kappas[n]`` is ln(phi_{n-1}/phi_n)
    with a -inf sentinel at n = 0.  Log-concavity of the coefficients is
    enforced exactly, so the kappa sequence is nondecreasing.  The maximal
    term is found by an exact scan that reads only the blocks of ``_BLOCK``
    cells able to reach the term at the kappa bucket (``log_max_terms``).
    """

    gf: GrowthFunction
    C0: float
    log_coeffs: np.ndarray = field(repr=False)
    log_kappas: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.log_coeffs, self.log_kappas):
            arr.flags.writeable = False

    @property
    def n_max(self) -> int:
        return len(self.log_coeffs) - 1

    def log_max_terms(self, log_t) -> tuple[np.ndarray, np.ndarray]:
        """(ln mu(t), attaining index) at each t = exp(log_t), ties to the larger index.

        ln mu(t) is the max of c_n + n log_t, taken over one slice per t.

        Rounding is monotone, so with M the block maximum of c and e its last
        (log_t >= 0) or first (log_t < 0) index, every c_n + n log_t of a block
        is <= M + e log_t.  A block whose bound is below the term at the kappa
        bucket holds neither the maximum nor a tie; the rest are scanned.
        """
        c = self.log_coeffs
        log_t = np.asarray(log_t, dtype=float)
        starts = np.arange(0, len(c), _BLOCK)
        block_max = np.maximum.reduceat(c, starts)
        ends = np.minimum(starts + _BLOCK, len(c)) - 1
        buckets = np.searchsorted(self.log_kappas, log_t, side="right") - 1
        refs = c[buckets] + buckets * log_t
        values = np.empty(len(log_t))
        indices = np.empty(len(log_t), dtype=int)
        for i, (t, ref) in enumerate(zip(log_t.tolist(), refs.tolist())):
            # a NaN bound (from NaN or inf in c or t) keeps its block, as in a full scan
            kept = np.flatnonzero(~(block_max + (ends if t >= 0 else starts) * t < ref))
            lo, hi = int(starts[kept[0]]), int(ends[kept[-1]]) + 1
            arr = c[lo:hi] + np.arange(lo, hi) * t
            idx = len(arr) - 1 - int(np.argmax(arr[::-1]))
            values[i], indices[i] = arr[idx], lo + idx
        return values, indices


def build_ladder(gf: GrowthFunction, C0: float, n_max: int) -> CoefficientLadder:
    """Ladder coefficients ln phi_n = -sup_{u >= 0} (n u - C0 psi_tilde(C0 e^u)).

    The objective is concave in u with derivative n - C0 psi(C0 e^u), so the
    supremum sits where the nondecreasing function C0 psi(C0 e^u) crosses n;
    the crossing is inverted in closed form per family (log domain, so no
    intermediate overflow).  Convexity of the conjugate is then enforced
    exactly by a running-maximum pass over its increments.
    """
    if not C0 >= 2:
        raise LadderError(f"C0 must be at least 2, got {C0}")
    if n_max < 1:
        raise LadderError("n_max must be at least 1")
    if n_max > MAX_LADDER_LENGTH:
        raise LadderError(
            f"ladder length {n_max} exceeds {MAX_LADDER_LENGTH}; "
            "reduce C0 or keep nodes further from the boundary"
        )
    n = np.arange(n_max + 1, dtype=float)
    log_C0 = math.log(C0)
    slope_at_zero = C0 * float(gf.psi_log(log_C0))
    u = np.zeros(n_max + 1)
    above = n > slope_at_zero
    if above.any():
        try:
            u[above] = np.maximum(
                np.asarray(gf.psi_inverse_log(n[above] / C0)) - log_C0, 0.0
            )
        except GrowthError as exc:
            raise LadderError(
                f"growth function too slow for n_max = {n_max}: {exc}"
            ) from exc
    if not np.all(np.isfinite(u)):
        raise LadderError("unbounded conjugate: growth function too slow")
    v_at_u = C0 * np.asarray(gf.psi_tilde_log(log_C0 + u), dtype=float)
    v_star = n * u - v_at_u
    # exact log-concavity: lift the increments to their running maximum
    incr = np.maximum.accumulate(np.diff(v_star))
    v_star = np.concatenate(([v_star[0]], v_star[0] + np.cumsum(incr)))
    log_kappas = np.concatenate(([LOG_ZERO], incr))
    return CoefficientLadder(gf=gf, C0=float(C0),
                             log_coeffs=-v_star, log_kappas=log_kappas)


def ladder_for_sequence(gf: GrowthFunction, C0: float, seq: DiscSequence) -> CoefficientLadder:
    """Smallest ladder whose last kappa exceeds twice the largest 1/(1-|z_k|)."""
    if len(seq) == 0:
        return build_ladder(gf, C0, 1)
    target_log = math.log(2.0) - math.log1p(-float(seq.moduli.max()))
    n_max = max(8, int(C0 * float(gf.psi_log(math.log(C0) + target_log))) + 8)
    for _ in range(40):  # doublings of n_max
        ladder = build_ladder(gf, C0, n_max)
        if ladder.log_kappas[-1] > target_log:
            return ladder
        n_max *= 2
    raise LadderError("kappa sequence grows too slowly to cover the node set")


def select_exponents(ladder: CoefficientLadder, seq: DiscSequence) -> np.ndarray:
    """Exponent s_n per node from its kappa bucket, clamped to at least 1.

    Verifies that the maximal term at t = 1/(1 - |z_n|) is attained at the
    bucket index (ties resolved to the larger index).  The maximal terms come
    from one ``log_max_terms`` call, whose block-pruned scan is exact, so a
    ladder that is not log-concave is caught as by a scan of the whole ladder
    while a node costs about the blocks around its bucket, not n_max cells.
    """
    log_t = -np.log1p(-seq.moduli)
    buckets = np.searchsorted(ladder.log_kappas, log_t, side="right") - 1
    if np.any(buckets >= ladder.n_max):
        raise LadderError(
            "ladder too short for the node set: extend n_max beyond "
            f"{ladder.n_max}"
        )
    best_terms, best = ladder.log_max_terms(log_t)
    bucket_terms = ladder.log_coeffs[buckets] + buckets * log_t
    off = (best != buckets) & (
        best_terms - bucket_terms > 1e-9 * np.maximum(1.0, np.abs(bucket_terms)))
    if off.any():
        k = int(np.argmax(off))
        raise InterpolationError(
            f"maximal term attained at {best[k]}, bucket gave {buckets[k]}"
        )
    return np.maximum(buckets, 1).astype(int)


class Interpolant:
    """The assembled interpolation series; immutable, evaluation is pure."""

    def __init__(self, product: CanonicalProduct, targets: TargetData,
                 exponents: np.ndarray, ladder: CoefficientLadder):
        self.product = product
        self.targets = targets
        self.exponents = np.asarray(exponents, dtype=int)
        self.ladder = ladder
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(targets.values))
        phases = np.angle(targets.values)
        self._log_b = np.where(
            np.isneginf(log_abs), complex(LOG_ZERO, 0.0), log_abs + 1j * phases
        )

    @property
    def sequence(self) -> DiscSequence:
        return self.product.sequence

    # -- term assembly -------------------------------------------------------

    def _assemble(self, zb: np.ndarray) -> dict:
        cp = self.product
        lam, A, onemA, D = cp._factors(zb)
        logP = lam.sum(axis=0)
        with np.errstate(invalid="ignore"):
            logB = logP[None, :] - lam
        # at a hit of node n the n-th term reads the cached B_n(z_n), as P'(z_n) does
        hits = np.isneginf(lam.real)
        logB[hits] = cp.log_B_nodes[hits.nonzero()[0]]
        zc = np.conj(cp.sequence.values)
        with np.errstate(divide="ignore", invalid="ignore"):
            L = (
                self._log_b[:, None]
                + logB
                + np.log(zc)[:, None]
                - np.log(D)
                + 1j * math.pi
                + _poly_q(A, cp.genus)
                + (self.exponents - 1)[:, None] * np.log(A)
                - cp.log_P_prime_nodes[:, None]
            )
        return {"A": A, "onemA": onemA, "D": D, "logP": logP, "L": L}

    def _derivative_logs(self, parts: dict) -> tuple[np.ndarray, np.ndarray]:
        """(per-term logs of d/dz term_n, P'/P) via the smooth logarithmic factor.

        term_n'/term_n = S_n + (s_n - 1) conj(z_n)/D + conj(z_n)/D *
        (1 + A + ... + A^s), where S_n is P'/P, the column sum of the factor
        log derivatives, less the n-th one.  The points are off the nodes
        (``_off_nodes``), so no factor vanishes.
        """
        cp = self.product
        A, onemA, D, L = parts["A"], parts["onemA"], parts["D"], parts["L"]
        with np.errstate(divide="ignore", invalid="ignore"):
            T = cp._deriv_terms(A, onemA)
            lp = T.sum(axis=0)
            S = lp[None, :] - T
        zcD = np.conj(cp.sequence.values)[:, None] / D
        # 1 + A + ... + A^s evaluated as a plain polynomial (exact at A = 1)
        geom = np.ones_like(A)
        Aj = np.ones_like(A)
        for _ in range(cp.genus):
            Aj = Aj * A
            geom = geom + Aj
        dfac = S + (self.exponents - 1)[:, None] * zcD + zcD * geom
        with np.errstate(divide="ignore", invalid="ignore"):
            dL = L + np.log(dfac.astype(complex))
        bad = np.isnan(dL)
        if bad.any():
            dL[bad] = complex(LOG_ZERO, 0.0)
        return dL, lp

    # -- evaluation ------------------------------------------------------------

    def eval_many(self, z) -> np.ndarray:
        out = self.eval_and_log_P_many(z)[0]
        return out if np.ndim(z) else complex(out[0])

    def eval_and_log_P_many(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(values, log P) at a batch of points from one factor evaluation."""
        parts = self._assemble(np.atleast_1d(np.asarray(z, dtype=complex)))
        return _exp_or_zero(logsumexp_complex(parts["L"])), parts["logP"]

    def eval_log_many(self, z) -> np.ndarray:
        parts = self._assemble(np.atleast_1d(np.asarray(z, dtype=complex)))
        return logsumexp_complex(parts["L"])

    def derivative_many(self, z) -> np.ndarray:
        """f' at a batch of points away from the nodes."""
        parts = self._assemble(self.product._off_nodes(z))
        out = _exp_or_zero(logsumexp_complex(self._derivative_logs(parts)[0]))
        return out if np.ndim(z) else complex(out[0])

    def eval_and_derivative_many(self, z) -> tuple[np.ndarray, ...]:
        """(f, f', log f, log f', P'/P, (P'/P)') from one factor pass, off the nodes.

        The last two are the bits ``log_deriv_P_many`` and ``log_deriv_prime_many`` give.
        """
        parts = self._assemble(self.product._off_nodes(z))
        dL, lp = self._derivative_logs(parts)
        lam_v, lam_d = logsumexp_complex(parts["L"]), logsumexp_complex(dL)
        lp2 = self.product._deriv_prime_terms(parts["A"], parts["onemA"]).sum(axis=0)
        return _exp_or_zero(lam_v), _exp_or_zero(lam_d), lam_v, lam_d, lp, lp2

    def interpolation_errors(self) -> np.ndarray:
        """Relative identity error |f(z_k) - b_k| / (1 + |b_k|) at every node.

        At a node every other term is an exact zero (log P = -inf), so f(z_k)
        is the k-th term alone, formed from the cached B_k(z_k) and P'(z_k),
        and a gate on this error measures that term's rounding.  The whole
        series is tested next to the nodes (against mpmath, on a walk onto a
        node) and off them (the growth rings, the ODE residual).
        """
        f_vals = self.eval_many(self.sequence.values)
        b = self.targets.values
        with np.errstate(invalid="ignore"):
            return np.abs(f_vals - b) / (1.0 + np.abs(b))


def _exp_or_zero(lam: np.ndarray) -> np.ndarray:
    """exp(lam), exactly 0 where the real part is -inf; overflow gives inf quietly."""
    with np.errstate(over="ignore"):
        return np.where(np.isneginf(lam.real), 0.0, np.exp(lam))


def build_interpolant(seq: DiscSequence, values: Sequence[complex],
                      gf: GrowthFunction, C0: float = 8.0,
                      product: Optional[CanonicalProduct] = None,
                      ladder: Optional[CoefficientLadder] = None) -> Interpolant:
    """Assemble the full interpolant for the given nodes and targets."""
    if product is None:
        product = CanonicalProduct(seq, gf.genus)
    elif product.sequence is not seq:
        raise InterpolationError("product was built over a different sequence")
    targets = TargetData.from_values(seq, gf, values)
    if ladder is None:
        ladder = ladder_for_sequence(gf, C0, seq)
    return Interpolant(product, targets, select_exponents(ladder, seq), ladder)


@dataclass(frozen=True)
class GrowthRow:
    r: float
    ln_max_modulus: float
    psi_tilde: float
    ratio: float


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple

    def ratio_at(self, r: float) -> float:
        for row in self.rows:
            if abs(row.r - r) < 1e-12:
                return row.ratio
        raise KeyError(f"radius {r} not in table")


def growth_report(interp: Interpolant, gf: GrowthFunction,
                  r_grid: Sequence[float], theta_count: int = 256) -> GrowthTable:
    """Maximum modulus of the interpolant on circles, against psi_tilde.

    The ratio column is ln M(r, f) / psi_tilde(1/(1-r)); rows where f
    vanishes identically carry -inf and a NaN ratio.
    """
    if not all(0 < r < 1 for r in r_grid):
        raise InterpolationError("growth radii must lie in (0, 1)")
    return _ring_growth_table(interp.eval_log_many, gf, r_grid, theta_count)


def _ring_growth_table(log_many, gf: GrowthFunction, r_grid: Sequence[float],
                       theta_count: int) -> GrowthTable:
    """Rows of max Re log_many on theta_count points of each circle |z| = r."""
    rows = []
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    ring = np.exp(1j * thetas)
    for r in r_grid:
        ln_max = float(np.max(log_many(r * ring).real))
        denom = float(gf.psi_tilde(1.0 / (1.0 - r)))
        ratio = ln_max / denom if (math.isfinite(ln_max) and denom > 0) else float("nan")
        rows.append(GrowthRow(float(r), ln_max, denom, ratio))
    return GrowthTable(tuple(rows))


@dataclass(frozen=True)
class MaxTermBoundRow:
    t: float
    log_mu: float
    upper_literal: float
    lower_literal: float
    upper_scaled: float
    lower_scaled: float


@dataclass(frozen=True)
class MaxTermBoundReport:
    """Two-sided maximal-term bounds along a t grid.

    The literal bounds are ln mu(t) <= 2 psi_tilde(C0 t) and
    ln mu(t) >= (1/4) psi_tilde(C0 t / 2); they are consistent with the
    ladder target only at C0 = 2.  The scaled bounds carry the extra C0
    factors (2 C0 above, C0/4 below) implied by the target
    C0 psi_tilde(C0 t) and hold for any admissible C0 beyond a threshold.
    ``t0_*`` is the smallest grid value from which the corresponding pair of
    bounds holds to 1e-6 for the rest of the grid, or None.
    """

    rows: tuple
    t0_literal: Optional[float]
    t0_scaled: Optional[float]


def max_term_bound_report(ladder: CoefficientLadder, t_grid: Sequence[float]) -> MaxTermBoundReport:
    gf, C0 = ladder.gf, ladder.C0
    ts = sorted(float(t) for t in t_grid)
    if not all(1.0 <= t < math.inf for t in ts):
        raise LadderError("t grid must lie in [1, inf)")
    log_mus, _ = ladder.log_max_terms([math.log(t) for t in ts])
    rows = []
    for t, log_mu in zip(ts, log_mus.tolist()):
        base = float(gf.psi_tilde_log(math.log(C0 * t)))
        half = float(gf.psi_tilde_log(math.log(C0 * t / 2.0)))
        rows.append(MaxTermBoundRow(
            t=t, log_mu=log_mu,
            upper_literal=2.0 * base, lower_literal=0.25 * half,
            upper_scaled=2.0 * C0 * base, lower_scaled=(C0 / 4.0) * half,
        ))

    def first_threshold(upper_key: str, lower_key: str) -> Optional[float]:
        ok = [
            row.log_mu <= getattr(row, upper_key) + 1e-6
            and row.log_mu >= getattr(row, lower_key) - 1e-6
            for row in rows
        ]
        for i in range(len(rows)):
            if all(ok[i:]):
                return rows[i].t
        return None

    return MaxTermBoundReport(
        rows=tuple(rows),
        t0_literal=first_threshold("upper_literal", "lower_literal"),
        t0_scaled=first_threshold("upper_scaled", "lower_scaled"),
    )
