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
finite arbitrarily close to them.  As 1/(1 - conj(z_n) z) =
A_n(z)/(1 - |z_n|^2), a term's log is c_n + log B_n(z) + Q(A_n(z))
+ s_n log A_n(z) with a per-node constant c_n: one complex log per term.
Every entry point takes its points in the column blocks of
``CanonicalProduct._blockwise``, about 2^14 cells each.  The value entry
points form only the live terms, those whose real upper bound is within a
proven cut of the column's largest, since every other term adds an exact
zero to the shifted sum; the results equal forming every term, bit for bit.
The ring maxima take all rings as the rows of one batch and form terms only
in the columns whose proven upper bound reaches their own row's running
maximum.  The derivative entry points form every term.
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
    _batch,
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


# rounding margin of the ladder windows relative to their scale, 2^-47 = 64 eps
_MARGIN = 2.0 ** -47

# cells per block of a window scan; any value gives the same results
_CHUNK = 1 << 16

# most cells one scan reads (about a second of scanning): past it the margin
# spans too many increments to resolve a bucket
_WINDOW_CELLS = 1 << 24


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
        denom = gf.psi_tilde(1.0 / (1.0 - seq.moduli))
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(vals))
        constant = float(np.max(np.maximum(log_abs, 0.0) / denom, initial=0.0))
        vals = vals.copy()
        vals.flags.writeable = False
        return cls(values=vals, admissibility_constant=constant)


@dataclass(frozen=True)
class CoefficientLadder:
    """Log-concave coefficient ladder ln phi_n = -v(n), 0 <= n <= n_max, held implicitly.

    v(n) = n u_n - C0 psi_tilde(C0 e^{u_n}) is the Young conjugate at its
    maximizer u_n, formed elementwise where a query needs it, so no value
    depends on its batch.  v is convex with increments delta_n = ln kappa_n
    in [u_{n-1}, u_n]; t = e^L falls in bucket b = (first n with
    delta_n > L) - 1, as the running maximum of the increments gives, and the
    maximal term ln mu(t) = max_n (ln phi_n + n L) sits there.

    *Margin.*  With x = log C0 + u_n and the nondecreasing scale
    S(n) = x (n + C0 psi(C0 e^{u_n})) + C0 psi_tilde(C0 e^{u_n}), the computed
    v(n) is within K eps S(n) of v(n), eps = 2^-53: the rounded x moves n u by
    2 eps n x against its psi_tilde, psi_tilde adds eps x C0 psi for its
    argument and k eps C0 psi_tilde for its k ulps, three roundings add
    2 eps (n u + C0 psi_tilde), and the error of u_n counts in second order.
    K = max(4, k + 2) is 4 for every family: k <= 2 for power and log_power
    (one expm1 or pow), and for exp_log_power the series bound of
    ``growth._kummer_integral``, 2^-53 + (5 y + 72) 2^-64 relative at
    y = x^beta with the 64-bit long double of x86-64, is under 2 eps for
    y <= 395.  That holds wherever C0 psi_tilde(C0 e^{u_n}) is finite: for
    u_n > 0, C0 e^y = n < 2^53 gives y < 37, and at u_n = 0, y <= log C0
    while psi_tilde >= e^{y - 1} keeps log C0 + y below 711.
    So a computed delta_j exceeds a later computed delta_m by at most
    D = (4 K + 2) eps S(n_max), a term ln phi_n + n L is rounded by at most
    R = eps (S(n_max) + 3 n_max |L|), and E = 2^-47 (S(n_max) + n_max |L|)
    exceeds D + 2 R while K < 15.

    *Windows.*  ``scan`` finds per t an edge p = 0 or with delta_p <= L - E,
    and q = n_max + 1 or with delta_q >= L + E.  No delta_j with j <= p
    exceeds L, delta_q does, and every term left of p (right of q - 1) is
    more than 2 R below the one at p (at q - 1).  So the bucket and the
    maximal term with its ties lie in [p, q - 1], and a scan of that window
    equals a scan of the whole ladder bit for bit.
    """

    gf: GrowthFunction
    C0: float
    n_max: int
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.C0 >= 2:
            raise LadderError(f"C0 must be at least 2, got {self.C0}")
        if not 1 <= self.n_max < 2**53:
            raise LadderError(f"ladder length {self.n_max} outside [1, 2^53), where float64 "
                              "indices are exact; reduce C0 or keep nodes off the boundary")
        n = float(self.n_max)
        _, x, t2 = self._conjugate(np.array([n]))  # raises what any index would
        slope = self.C0 * float(self.gf.psi_log(math.log(self.C0)))
        object.__setattr__(self, "_scale", float(x[0] * (n + max(n, slope)) + t2[0]))

    def _conjugate(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v(n), x, C0 psi_tilde(C0 e^{u_n})) at float indices n; u_n solves C0 psi(C0 e^u) = n."""
        log_C0 = math.log(self.C0)
        u = np.zeros(n.shape)
        above = n > self.C0 * float(self.gf.psi_log(log_C0))
        if above.any():
            try:
                u[above] = np.maximum(self.gf.psi_inverse_log(n[above] / self.C0) - log_C0, 0.0)
            except GrowthError as exc:
                raise LadderError(
                    f"growth function too slow for n_max = {self.n_max}: {exc}"
                ) from exc
        if not np.all(np.isfinite(u)):
            raise LadderError("unbounded conjugate: growth function too slow")
        x = log_C0 + u
        t2 = self.C0 * self.gf.psi_tilde_log(x)
        return n * u - t2, x, t2

    def _edges(self, bound: np.ndarray, start: np.ndarray, side: int) -> np.ndarray:
        """Per t, the first k = start + side 2^j (j >= 1) that is a left (side -1) or right edge."""
        edge = np.empty_like(start)
        todo, step = np.arange(len(start)), 2
        while todo.size:
            k = np.clip(start[todo] + side * step, 0, self.n_max + 1)
            done = (k == 0) | (k > self.n_max)
            inner = np.flatnonzero(~done)
            v = self._conjugate(np.concatenate((k[inner] - 1, k[inner])).astype(float))[0]
            d, b = v[len(inner):] - v[:len(inner)], bound[todo[inner]]
            done[inner] = d <= b if side < 0 else d >= b
            edge[todo[done]] = k[done]
            todo, step = todo[~done], 2 * step
        return edge

    def scan(self, log_t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(bucket b, ln phi_b + b L, ln mu(t), its index) at each t = e^L, L = log_t.

        Ties of the maximal term go to the larger index.  Windows are read in
        blocks of ``_CHUNK`` cells, each with the cell before it.
        """
        L = np.atleast_1d(np.asarray(log_t, dtype=float))
        if not np.all(np.isfinite(L)):
            raise LadderError("log t must be finite")
        N = self.n_max
        E = _MARGIN * (self._scale + N * np.abs(L))
        # u_n exceeds L from m0 on, so the first delta_n above L is at m0 or m0 + 1
        with np.errstate(over="ignore"):
            cross = self.C0 * self.gf.psi_log(math.log(self.C0) + np.maximum(L, 0.0))
        m0 = np.minimum(np.floor(cross), N).astype(np.int64) + 1
        p, q = self._edges(L - E, m0, -1), self._edges(L + E, m0, 1)
        lens = np.minimum(q, N) - p + 1
        ends = np.cumsum(lens)
        starts, total = ends - lens, int(lens.sum())
        if total > _WINDOW_CELLS:
            raise LadderError(
                f"ladder increments near n = {m0[np.argmax(lens)]} are not resolved in double "
                f"precision: their rounding margin spans more than {_WINDOW_CELLS} cells")
        first = np.full(len(L), total)  # flat position of each window's first rise
        best, best_at = np.full(len(L), -np.inf), np.zeros(len(L), dtype=np.int64)
        for lo in range(0, total, _CHUNK):
            pos = np.arange(max(lo - 1, 0), min(lo + _CHUNK, total))
            w = np.searchsorted(ends, pos, side="right")
            n = p[w] + (pos - starts[w])
            v = self._conjugate(n.astype(float))[0]
            rise = np.flatnonzero((w[1:] == w[:-1]) & (v[1:] - v[:-1] > L[w[1:]])) + 1
            np.minimum.at(first, w[rise], pos[rise])
            own = (pos >= lo) & (n < q[w])
            w, pos, terms = w[own], pos[own], -v[own] + n[own] * L[w[own]]
            np.maximum.at(best, w, terms)
            tie = terms == best[w]
            np.maximum.at(best_at, w[tie], pos[tie])
        buckets = np.where(first < total, p + (first - starts) - 1, N)
        bucket_terms = -self._conjugate(buckets.astype(float))[0] + buckets * L
        return buckets, bucket_terms, best, p + (best_at - starts)


def build_ladder(gf: GrowthFunction, C0: float, n_max: int) -> CoefficientLadder:
    """The ladder ln phi_n = -sup_{u >= 0} (n u - C0 psi_tilde(C0 e^u)), 0 <= n <= n_max."""
    return CoefficientLadder(gf=gf, C0=float(C0), n_max=int(n_max))


def ladder_for_sequence(gf: GrowthFunction, C0: float, seq: DiscSequence) -> CoefficientLadder:
    """Ladder whose last kappa exceeds twice the largest 1/(1-|z_k|).

    n_max is 7 past m = floor(C0 psi(C0 t)) + 1, where u_n passes log t; one scan confirms it.
    """
    target_log = math.log(2.0) - math.log1p(-float(seq.moduli.max(initial=0.0)))
    crossing = C0 * float(gf.psi_log(math.log(C0) + target_log))
    # an overflowed crossing stands for a length past 2^53, which the ladder refuses
    n_max = max(8, int(crossing if math.isfinite(crossing) else 2.0**53) + 8)
    ladder = build_ladder(gf, C0, n_max)
    if ladder.scan(target_log)[0][0] >= n_max:
        raise LadderError("kappa sequence grows too slowly to cover the node set")
    return ladder


def select_exponents(ladder: CoefficientLadder, seq: DiscSequence) -> np.ndarray:
    """Exponent s_n per node from its kappa bucket, clamped to at least 1.

    Verifies that the maximal term at t = 1/(1 - |z_n|) is attained at the
    bucket index (ties resolved to the larger index).  ``scan`` reads each
    node's window, which holds the maximum of the whole ladder and its ties,
    so a ladder that is not log-concave there is caught as by a full scan.
    """
    log_t = -np.log1p(-seq.moduli)
    buckets, bucket_terms, best_terms, best = ladder.scan(log_t)
    if np.any(buckets >= ladder.n_max):
        raise LadderError(
            "ladder too short for the node set: extend n_max beyond "
            f"{ladder.n_max}"
        )
    off = (best != buckets) & (
        best_terms - bucket_terms > 1e-9 * np.maximum(1.0, np.abs(bucket_terms)))
    if off.any():
        k = int(np.argmax(off))
        raise InterpolationError(
            f"maximal term attained at {best[k]}, bucket gave {buckets[k]}"
        )
    return np.maximum(buckets, 1).astype(int)


class Interpolant:
    """The assembled interpolation series; immutable, evaluation is pure.

    Every entry point evaluates in column blocks of about 2^14 cells.  The
    value entry points (``eval_many``, ``eval_and_log_P_many``,
    ``eval_log_many``) form a term only where it can reach the sum
    (``_block_value_logs``), and ``max_log_many`` only in the columns that
    can reach their row's maximum (``_block_max_log``); the derivative
    entry points form every term (``_block_derivatives``).
    """

    def __init__(self, product: CanonicalProduct, targets: TargetData,
                 exponents: np.ndarray, ladder: CoefficientLadder):
        self.product = product
        self.targets = targets
        self.exponents = np.asarray(exponents, dtype=int)
        self.ladder = ladder
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(targets.values))
        log_b = np.where(np.isneginf(log_abs), complex(LOG_ZERO, 0.0),
                         log_abs + 1j * np.angle(targets.values))
        # the per-node constant of the terms (``_term_logs``), and the cut of
        # their bound (``_block_value_logs``)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._c = (log_b + np.log(np.conj(product.sequence.values)) + 1j * math.pi
                       - np.log(product._oms) - product.log_P_prime_nodes)
        q_cap = sum(2.0 ** j / j for j in range(1, product.genus + 1))
        scale = (2.0 * (len(self.exponents) + 2) * (746.0 + q_cap)
                 + 80.0 * float(self.exponents.max(initial=0)))
        self._cut = 760.0 + 2.0 * q_cap if scale <= 2.0 ** 44 else math.inf

    @property
    def sequence(self) -> DiscSequence:
        return self.product.sequence

    # -- term assembly -------------------------------------------------------

    def _assemble(self, zb: np.ndarray) -> dict:
        """One factor pass at a batch of points: A, 1 - A, D, log P and log B_n(z)."""
        cp = self.product
        lam, A, onemA, D = cp._factors(zb)
        logP = lam.sum(axis=0)
        # at a hit of node n the n-th term reads the cached B_n(z_n), as P'(z_n) does
        hits = np.isneginf(lam.real)
        with np.errstate(invalid="ignore"):
            logB = np.subtract(logP[None, :], lam, out=lam)
        logB[hits] = cp.log_B_nodes[hits.nonzero()[0]]
        return {"A": A, "onemA": onemA, "D": D, "logP": logP, "logB": logB}

    def _term_logs(self, rows, logB: np.ndarray, A: np.ndarray) -> np.ndarray:
        """L = c_n + log B_n(z) + q(A) + s_n log A, the n-th term's log.

        c_n = log(b_n (-conj(z_n)) / ((1 - |z_n|^2) P'(z_n))) is formed once
        per node.  At a node A = 1 exactly, so s_n log A is an exact 0.
        ``rows`` indexes the per-node data: ``np.s_[:, None]`` for whole
        (node, point) matrices, or the node of each cell of flat arrays.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            L = self._c[rows] + logB
            L += _poly_q(A, self.product.genus)
            s_log_A = np.log(A)
            L += np.multiply(self.exponents[rows], s_log_A, out=s_log_A)
        return L

    def _block_value_logs(self, zb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log f, log P) at a batch of points, forming only the live terms.

        *Bound.*  The real part of the term log L (``_term_logs``) is
        Re L = B + Re q(A), where per cell
        B = Re log B_n(z) + Re c_n + s_n log|A_n(z)|, read from the computed
        |A|.  At a point with np.abs(z) < 1, so |z| <= 1,
        |1 - conj(z_n) z| >= 1 - |z_n| and |A| <= 1 + |z_n| < 2, hence
        |Re q(A)| <= P = sum_{j <= s} |A|^j / j <= Q_s = sum_{j <= s} 2^j / j.

        *Rounding.*  L takes log|A| as the real part of the complex log of
        the computed A, and B as the log of its computed modulus; the two
        miss log|A| by a few eps (1 + |log|A||), and Re L and B take that
        miss s_n times.  Every operand and partial sum of the computed Re L
        and B is at most X = 2 (N + 2) (746 + Q_s) + 80 max s_n in modulus
        (a factor log has |Re| <= 746 + Q_s, as a nonzero |1 - A| is at
        least 2^-1074; 2^-54 <= |A| < 2, as 1 - |z_n| >= 2^-53 and
        |1 - conj(z_n) z| <= 2, so |log|A|| is below 38 and s_n log|A| below
        38 s_n), and each log, product and sum rounds by at most a few eps
        of that; B and L read the same computed c_n, log B_n(z) and A.  So
        |Re L - B - Re q| <= 64 eps X <= 1/8 while X <= 2^44, and the
        computed Re q differs from Re q by less than 1/8: the computed Re L
        is within P + 1/4, so within Q_s + 1/4, of B.  Beyond 2^44 the cut
        is +inf.

        *Cut.*  A cell is dropped when its bound is below the column's
        largest bound B_j minus cut = 760 + 2 Q_s.  Then its computed
        Re L_n <= B_n + Q_s + 1/4 < B_j - 760 - Q_s + 1/4 <= Re L_j - 759.5,
        and the column maximum M of the dense logsumexp is at least Re L_j,
        so Re L_n - M, and its rounded value, is below -759.5: its exp in
        ``logsumexp_complex`` is an exact +-0, which adds nothing to a
        nonzero sum.  Every dropped cell is below M, so M is attained on the
        live cells.  The live terms are written into a matrix of -inf + 0j,
        whose other cells shift to -inf and add exact zeros at the same
        places of the same pairwise column sums, so its logsumexp equals the
        dense one bit for bit.  (A zero sum of the live cells is -inf
        either way, and its sign of zero matters only through atan2 where
        the imaginary part of the sum is zero; that sum is then +0 both
        ways, as no L has imaginary part -0 after its + i pi.)  A NaN bound
        compares false, so its cell stays live, and a NaN column maximum
        keeps every cell; a bound of -inf is a term of -inf.  Points with
        np.abs(z) >= 1 or NaN keep every cell.

        *Column bound* (``_block_max_log``).  A column's computed log f is
        the logsumexp of its live terms, each with computed
        Re L_n <= B_n + P_n + 1/4.  Each shifted exp has modulus at most
        (1 + 2 eps) exp(Re L_n - M), and the pairwise sum of the live ones
        is within (20 + log2 n_live) eps of the sum of their moduli
        (``logsumexp_complex``), so the computed Re log f is at most
        LSE + 1/4, LSE = log sum_live exp(B_n + P_n), give or take the
        roundings of that sum, its log and the final addition, a few eps X
        each.  ``_logsumexp_columns`` takes the sum over all the column's
        cells, which is at least LSE, as the largest B + P plus the log of
        the row-by-row sum of the shifted exps, each at most 1 and one of
        them 1; that and the roundings of P miss it by a few eps X plus
        N eps.  So the computed UB = LSE + 1/4 + 1 exceeds the column's
        computed Re log f, and a column whose UB is below the computed
        Re log f of another does not hold the largest.  Nor does it hold a
        NaN, which np.max would keep: that needs a term with a finite real
        and a non-finite imaginary part.  In the disc A, q(A) and
        Im log B_n(z) are finite, and so is Im c_n unless Re c_n is NaN or
        +inf, which makes every bound of its row NaN or +inf, and so UB
        too.  The bound needs the cut's budget and np.abs(z) < 1: past
        X > 2^44, or at np.abs(z) >= 1 or NaN, no column is skipped.

        *Per row.*  ``max_log_many`` keeps one running maximum per row of
        its batch.  A column's UB reads only its own cells (their B and P),
        not the block or the other rows in it, and the argument
        above compares it with the computed Re log f of any other column, so
        also with those of its own row: a column whose UB is below its
        row's running maximum holds neither that row's largest value nor a
        NaN.  So the largest over the formed columns of a row is np.max of
        the row, bit for bit, whatever the other rows of the batch hold.
        """
        live, logB, A, logP = self._live_block(zb)[2:]
        return self._live_sums(live, logB, A), logP

    def _live_block(self, zb: np.ndarray) -> tuple[np.ndarray, ...]:
        """One factor pass at a block: (bound B, |A|, live mask, log B_n(z), A, log P).

        The bound and its cut are those of ``_block_value_logs``; 1 - A and D
        are freed on return.  The callers free B and |A| before any term is
        formed: the value path drops them at once, the ring maxima after
        their column bound (``_column_bounds``).
        """
        parts = self._assemble(zb)
        logB, A = parts["logB"], parts["A"]
        with np.errstate(divide="ignore", invalid="ignore"):
            abs_A = np.abs(A)
            bound = np.log(abs_A)
            bound *= self.exponents[:, None]
            bound += self._c.real[:, None]
            bound += logB.real
            top = bound.max(axis=0, initial=LOG_ZERO)
            floor = np.where(np.abs(zb) < 1.0, top - self._cut, LOG_ZERO)
        return bound, abs_A, ~(bound < floor), logB, A, parts["logP"]

    def _column_bounds(self, zb: np.ndarray) -> tuple[np.ndarray, ...]:
        """One factor pass at a block: (column bound UB, live mask, log B_n(z), A).

        UB is the column bound of ``_block_value_logs``, +inf where it is not
        proven; the per-cell bound is freed on return.
        """
        bound, abs_A, live, logB, A, _ = self._live_block(zb)
        bound += _poly_q(abs_A, self.product.genus)
        # 1/4 for the rounding of Re L against B + P, 1 for the roundings of the sums
        ub = _logsumexp_columns(bound) + 1.25
        ub[(self._cut == math.inf) | ~(np.abs(zb) < 1.0)] = math.inf
        return ub, live, logB, A

    def _live_sums(self, live: np.ndarray, logB: np.ndarray, A: np.ndarray) -> np.ndarray:
        """log f per column from its live terms, each column on its own.

        When more than half the cells are live, every term is formed, as
        the gathers would cost more than they save.
        """
        if 2 * np.count_nonzero(live) > live.size:
            return logsumexp_complex(self._term_logs(np.s_[:, None], logB, A))
        terms = np.full(live.shape, complex(LOG_ZERO, 0.0))
        terms[live] = self._term_logs(live.nonzero()[0], logB[live], A[live])
        return logsumexp_complex(terms)

    def _block_max_log(self, zb: np.ndarray, rows: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Raise best, the rows' running maxima, by a block's points; best at each point's row.

        ``rows`` is the row of each point, nondecreasing.  Terms are formed
        only in the columns whose upper bound UB (the column bound of
        ``_block_value_logs``) is not below their own row's maximum.  Each
        present row's column of largest UB (its first NaN one, as np.argmax
        takes) is formed first, to raise that row's maximum, unless its UB
        is below it already.  A column at X > 2^44, at np.abs(z) >= 1 or
        NaN, or with a NaN UB is always formed.  The kept columns are
        copied, unless every column is kept: then the whole block is
        formed, those first columns again.  np.maximum keeps a NaN, as
        np.max does.
        """
        ub, live, logB, A = self._column_bounds(zb)
        # the block's rows are consecutive: seg numbers them from 0
        seg = rows - rows[:1]
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        row_ub = np.maximum.reduceat(ub, starts)
        tops = np.flatnonzero((ub == row_ub[seg]) | np.isnan(ub))
        first = tops[np.searchsorted(tops, starts)][~(row_ub < best[rows[starts]])]
        if first.size:
            r = rows[first]
            best[r] = np.maximum(best[r], self._live_sums(live[:, first], logB[:, first],
                                                          A[:, first]).real)
            keep = ~(ub < best[rows])
            if not keep.all():
                keep[first] = False
                live, logB, A = live[:, keep], logB[:, keep], A[:, keep]
            if keep.any():
                np.maximum.at(best, rows[keep], self._live_sums(live, logB, A).real)
        return best[rows]

    def _value_logs(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(log f, log P) at a batch of points, in column blocks."""
        zb = _batch(z)
        return self.product._blockwise(len(zb), lambda b: self._block_value_logs(zb[b]))

    def _block_derivatives(self, zb: np.ndarray) -> tuple[np.ndarray, ...]:
        """(f, f', log f, log f', P'/P, (P'/P)') at a block of points off the nodes.

        f' comes from the smooth logarithmic factor of each term:
        term_n'/term_n = S_n + (s_n - 1) conj(z_n)/D + conj(z_n)/D *
        (1 + A + ... + A^s), where S_n is P'/P, the column sum of the factor
        log derivatives, less the n-th one.  The points are off the nodes
        (``_off_nodes``), so no factor vanishes.
        """
        cp = self.product
        parts = self._assemble(cp._off_nodes(zb))
        A, onemA, D = parts["A"], parts["onemA"], parts["D"]
        L = self._term_logs(np.s_[:, None], parts["logB"], A)
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
            dL = L + np.log(dfac)
        bad = np.isnan(dL)
        if bad.any():
            dL[bad] = complex(LOG_ZERO, 0.0)
        lam_v, lam_d = logsumexp_complex(L), logsumexp_complex(dL)
        lp2 = cp._deriv_prime_terms(A, onemA).sum(axis=0)
        return _exp_or_zero(lam_v), _exp_or_zero(lam_d), lam_v, lam_d, lp, lp2

    # -- evaluation ------------------------------------------------------------

    def eval_many(self, z) -> np.ndarray:
        return self.eval_and_log_P_many(z)[0]

    def eval_and_log_P_many(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(values, log P) at a batch of points from one factor evaluation."""
        lam, log_P = self._value_logs(z)
        return _exp_or_zero(lam), log_P

    def eval_log_many(self, z) -> np.ndarray:
        return self._value_logs(z)[0]

    def max_log_many(self, z) -> np.ndarray:
        """Each row's largest Re log f in a 2-D batch, bit for bit np.max of its ``eval_log_many``.

        The rows (a 1-D batch is one row) run as one batch through
        ``_blockwise``, and each row keeps its running maximum across the
        blocks, so a block forms terms only in the columns that can reach
        their own row's maximum (``_block_max_log``).  An empty row gives -inf.
        """
        zb = np.atleast_2d(np.asarray(z, dtype=complex))
        best = np.full(len(zb), LOG_ZERO)
        flat, rows = zb.ravel(), np.arange(len(zb)).repeat(zb.shape[1])

        def block(b):
            return self._block_max_log(flat[b], rows[b], best)
        # each point's row maximum after its block: a row's last block holds the final one
        seen = self.product._blockwise(len(flat), block)
        return seen.reshape(zb.shape).max(axis=1, initial=LOG_ZERO)

    def derivative_many(self, z) -> np.ndarray:
        """f' at a batch of points away from the nodes."""
        return self.eval_and_derivative_many(z)[1]

    def eval_and_derivative_many(self, z) -> tuple[np.ndarray, ...]:
        """(f, f', log f, log f', P'/P, (P'/P)') from one factor pass, off the nodes.

        The last two are the bits ``log_deriv_P_many`` and ``log_deriv_prime_many`` give.
        """
        zb = _batch(z)
        return self.product._blockwise(len(zb), lambda b: self._block_derivatives(zb[b]))

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


def _logsumexp_columns(cells: np.ndarray) -> np.ndarray:
    """log sum exp of each column of a real matrix, formed in its buffer.

    Each column is shifted by its largest cell.  A NaN cell gives NaN, a +inf
    one +inf or NaN, and a column of -inf cells (or none) -inf.
    """
    top = cells.max(axis=0, initial=LOG_ZERO)
    cells -= np.where(np.isfinite(top), top, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return top + np.log(np.exp(cells, out=cells).sum(axis=0))


def _exp_or_zero(lam: np.ndarray) -> np.ndarray:
    """exp(lam), exactly 0 where the real part is -inf; overflow gives inf quietly."""
    with np.errstate(over="ignore"):
        return np.where(np.isneginf(lam.real), 0.0, np.exp(lam))


def build_interpolant(product: CanonicalProduct, values: Sequence[complex],
                      gf: GrowthFunction, C0: float) -> Interpolant:
    """Assemble the full interpolant over the product's nodes for the given targets."""
    if product.genus != gf.genus:
        raise InterpolationError(f"product genus {product.genus}, but psi has genus {gf.genus}")
    seq = product.sequence
    targets = TargetData.from_values(seq, gf, values)
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


def growth_report(interp: Interpolant, r_grid: Sequence[float], theta_count: int) -> GrowthTable:
    """Maximum modulus of the interpolant on circles, against its ladder's psi_tilde.

    ln M(r, f) is the largest Re log f on the ring's points, from one
    ``Interpolant.max_log_many`` call with a row per ring: terms are formed
    only in the columns whose proven upper bound can reach their ring's
    running maximum, and each value equals the largest of ``eval_log_many``
    on its ring, bit for bit.
    The ratio column is ln M(r, f) / psi_tilde(1/(1-r)); rows where f
    vanishes identically carry -inf and a NaN ratio.
    """
    if not all(0 < r < 1 for r in r_grid):
        raise InterpolationError("growth radii must lie in (0, 1)")
    return _ring_growth_table(interp.max_log_many, interp.ladder.gf, r_grid, theta_count)


def _ring_growth_table(max_many, gf: GrowthFunction, r_grid: Sequence[float],
                       theta_count: int) -> GrowthTable:
    """Rows of max_many, the largest Re log per row of a 2-D batch, at theta_count points a circle.

    The circles |z| = r are the rows of one batch, so max_many is called once.
    """
    radii = np.asarray(r_grid, dtype=float)
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    ln_maxes = max_many(radii[:, None] * np.exp(1j * thetas))
    denoms = gf.psi_tilde(1.0 / (1.0 - radii))
    rows = []
    for r, ln_max, denom in zip(radii.tolist(), ln_maxes.tolist(), denoms.tolist()):
        ratio = ln_max / denom if (math.isfinite(ln_max) and denom > 0) else float("nan")
        rows.append(GrowthRow(r, ln_max, denom, ratio))
    return GrowthTable(tuple(rows))


@dataclass(frozen=True)
class MaxTermBoundRow:
    t: float
    log_mu: float


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
    log_mus = ladder.scan([math.log(t) for t in ts])[2]
    base = np.array([float(gf.psi_tilde_log(math.log(C0 * t))) for t in ts])
    half = np.array([float(gf.psi_tilde_log(math.log(C0 * t / 2.0))) for t in ts])

    def first_threshold(upper: np.ndarray, lower: np.ndarray) -> Optional[float]:
        bad = np.flatnonzero(~((log_mus <= upper + 1e-6) & (log_mus >= lower - 1e-6)))
        start = int(bad[-1]) + 1 if bad.size else 0
        return ts[start] if start < len(ts) else None

    return MaxTermBoundReport(
        rows=tuple(MaxTermBoundRow(t, mu) for t, mu in zip(ts, log_mus.tolist())),
        t0_literal=first_threshold(2.0 * base, 0.25 * half),
        t0_scaled=first_threshold(2.0 * C0 * base, (C0 / 4.0) * half),
    )
