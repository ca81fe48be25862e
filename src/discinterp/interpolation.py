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
The ring maximum forms terms only in the columns whose proven upper bound
reaches the running maximum.  The derivative entry points form every term.
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
    can reach the maximum (``_block_max_log``); the derivative entry points
    form every term (``_block_derivatives``).
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
        log_oms = np.log(product._oms)
        # the per-node constant of the terms (``_term_logs``), and the per-node
        # part of their bound with its cut (``_block_value_logs``)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._c = (log_b + np.log(np.conj(product.sequence.values)) + 1j * math.pi
                       - log_oms - product.log_P_prime_nodes)
            self._bound_rows = self._c.real + self.exponents * log_oms
        self._half_s = 0.5 * self.exponents
        q_cap = sum(2.0 ** j / j for j in range(1, product.genus + 1))
        scale = (2.0 * (len(self.exponents) + 2) * (746.0 + q_cap)
                 + 80.0 * float(self.exponents.max(initial=0)))
        self._cut = 760.0 + 2.0 * q_cap if scale <= 2.0 ** 44 else math.inf
        # Q_s + 1/4 + 1, the pad of a column's upper bound (``_block_max_log``)
        self._column_pad = q_cap + 1.25

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

        *Bound.*  With log|A| = log(1 - |z_n|^2) - log|D|, the real part of
        the term log L (``_term_logs``) is Re L = B + Re q(A), where per cell
        B = Re log B_n(z) + k_n - s_n log|D|^2 / 2 and per node
        k_n = Re c_n + s_n log(1 - |z_n|^2).
        At a point with np.abs(z) < 1, so |z| <= 1, |D| >= 1 - |z_n| and
        |A| <= 1 + |z_n| < 2, hence |Re q(A)| <= Q_s = sum_{j <= s} 2^j / j.

        *Rounding.*  The computed A and D share the computed gap, and
        |z_n - z| <= |D| in the disc, so log|A| misses
        log(1 - |z_n|^2) - log|D| by a few eps, and Re L takes that miss
        s_n times: a few eps s_n, below eps X / 8.  Every operand and partial
        sum of the computed Re L and B is at most X = 2 (N + 2) (746 + Q_s)
        + 80 max s_n in modulus (a factor log has |Re| <= 746 + Q_s, as a
        nonzero |1 - A| is at least 2^-1074; |log|D||, |log|A|| and
        |log(1 - |z_n|^2)| are below 38, as 1 - |z_n| >= 2^-53, so
        s_n log|A| and s_n log(1 - |z_n|^2) stay below 38 s_n), and each
        log, product and sum rounds by at most a few eps of that; B and L
        read the same computed c_n and log B_n(z).  So
        |Re L - B - Re q| <= 64 eps X <= 1/8 while X <= 2^44, and the
        computed |Re q| is at most Q_s + 1/8.  Beyond 2^44 the cut is +inf.

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

        *Column bound* (``_block_max_log``).  Let T be a column's largest
        bound and n_live its count of live cells; its M is at most
        T + Q_s + 1/4.  Each shifted exp has modulus at most 1 + 2 eps, and
        the pairwise sum of the n_live nonzero ones is within
        (20 + log2 n_live) eps of the sum of their moduli
        (``logsumexp_complex``), so the computed Re log f is at most
        T + Q_s + 1/4 + log(n_live), give or take the roundings of that sum,
        its log and the final addition, a few eps X each.  So the computed
        UB = T + Q_s + 1/4 + log(n_live) + 1 exceeds the column's computed
        Re log f, and a column whose UB is below the computed Re log f of
        another does not hold the largest.  Nor does it hold a NaN, which
        np.max would keep: that needs a term with a finite real and a
        non-finite imaginary part.  In the disc A, q(A) and Im log B_n(z)
        are finite, and so is Im c_n unless Re c_n is NaN or +inf, which
        makes every bound of its row NaN or +inf, and so UB too.  The
        bound needs the cut's budget and np.abs(z) < 1: past X > 2^44, or
        at np.abs(z) >= 1 or NaN, no column is skipped.
        """
        live, _, logB, A, logP = self._live_block(zb)
        return self._live_sums(live, logB, A), logP

    def _live_block(self, zb: np.ndarray) -> tuple[np.ndarray, ...]:
        """One factor pass at a block: (live mask, largest bound per column, log B_n(z), A, log P).

        The mask is the bound and cut of ``_block_value_logs``.  The terms
        need only log B_n(z) and A, so the bound, 1 - A and D are freed on
        return, before any term is formed.
        """
        parts = self._assemble(zb)
        logB, D = parts["logB"], parts["D"]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (logB.real + self._bound_rows[:, None]
                     - self._half_s[:, None] * np.log(D.real ** 2 + D.imag ** 2))
            top = bound.max(axis=0, initial=LOG_ZERO)
            floor = np.where(np.abs(zb) < 1.0, top - self._cut, LOG_ZERO)
        return ~(bound < floor), top, logB, parts["A"], parts["logP"]

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

    def _block_max_log(self, zb: np.ndarray, best: float) -> float:
        """max(best, the largest Re log f at a block of points), as np.max gives it.

        Terms are formed only in the columns whose upper bound UB (the
        column bound of ``_block_value_logs``) is not below the running
        maximum.  The column of the largest UB is formed first, to raise it.
        A column at X > 2^44, at np.abs(z) >= 1 or NaN, or with a NaN UB
        is always formed.  The kept columns are copied, unless every column
        is kept: then the whole block is formed, that first column again.
        """
        live, top, logB, A, _ = self._live_block(zb)
        with np.errstate(divide="ignore", invalid="ignore"):
            ub = top + self._column_pad + np.log(np.count_nonzero(live, axis=0))
        ub[(self._cut == math.inf) | ~(np.abs(zb) < 1.0)] = math.inf
        if np.all(ub < best):
            return best
        k = int(np.argmax(ub))  # the largest UB, or the first NaN one
        first = np.s_[:, k:k + 1]
        best = np.maximum(best, self._live_sums(live[first], logB[first], A[first])[0].real)
        keep = ~(ub < best)
        if not keep.all():
            keep[k] = False
            if not keep.any():
                return best
            live, logB, A = live[:, keep], logB[:, keep], A[:, keep]
        return np.maximum(best, self._live_sums(live, logB, A).real.max())

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

    def max_log_many(self, z) -> float:
        """The largest Re log f over a batch, bit for bit np.max of ``eval_log_many(z).real``.

        The blocks share a running maximum, so a block forms terms only in
        the columns that can reach it (``_block_max_log``).  An empty batch
        gives -inf.
        """
        zb = _batch(z)
        best = LOG_ZERO

        def block(b):
            nonlocal best
            best = self._block_max_log(zb[b], best)
            return np.array([best])
        return float(self.product._blockwise(len(zb), block).max())

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

    ln M(r, f) is the largest Re log f on the ring's points, from
    ``Interpolant.max_log_many``: terms are formed only in the ring's
    columns whose proven upper bound can reach the running maximum, and the
    value equals the largest of ``eval_log_many`` on the ring, bit for bit.
    The ratio column is ln M(r, f) / psi_tilde(1/(1-r)); rows where f
    vanishes identically carry -inf and a NaN ratio.
    """
    if not all(0 < r < 1 for r in r_grid):
        raise InterpolationError("growth radii must lie in (0, 1)")
    return _ring_growth_table(interp.max_log_many, interp.ladder.gf, r_grid, theta_count)


def _ring_growth_table(max_many, gf: GrowthFunction, r_grid: Sequence[float],
                       theta_count: int) -> GrowthTable:
    """Rows of max_many, the largest Re log of a batch, on theta_count points of each circle |z| = r."""
    rows = []
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    ring = np.exp(1j * thetas)
    denoms = gf.psi_tilde(1.0 / (1.0 - np.asarray(r_grid, dtype=float)))
    for r, denom in zip(r_grid, denoms.tolist()):
        ln_max = float(max_many(r * ring))
        ratio = ln_max / denom if (math.isfinite(ln_max) and denom > 0) else float("nan")
        rows.append(GrowthRow(float(r), ln_max, denom, ratio))
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
