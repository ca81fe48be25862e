"""Canonical products with genus factors, evaluated in log space.

The product over a node sequence Z with genus s is
P(z) = prod_n E(A_n(z), s) where E(w, 0) = 1 - w,
E(w, s) = (1 - w) exp(w + w^2/2 + ... + w^s/s) and
A_n(z) = (1 - |z_n|^2) / (1 - conj(z_n) z).

Every product-scale quantity is carried as a complex logarithm
(log modulus plus accumulated phase) so that sequences whose factors reach
exp(-2**(n rho)) survive: naive double-precision products underflow after a
handful of such factors.  The reduced product B_k = P / E(A_k(z), s) and the
node derivative P'(z_k) are cached at construction in the same representation.

Every pass over the (node, point) matrix, the node caches and all the
evaluation entry points here and in ``interpolation`` included, runs through
``CanonicalProduct._blockwise`` in column blocks of about 2^14 cells, so no
pass holds an N x P array over a batch wider than one block, and the results
equal one pass over the whole batch, bit for bit.  Each call first frees a buffer
wider than a block's matrices, so glibc does not trim the heap after every block.

The log-factor kernel ``_log_E`` reads log(1 - A) only on the cells with
|A| > 1/2; the others take a Horner tail that never needs it, each cell to
its own degree, so no value depends on the rest of its batch.  Callers hand
it log(1 - A) as a function of that mask, so the complex logarithm is taken
on those cells alone.

Key algebraic identities used throughout (all consequences of the factor
definitions):

* 1 - conj(z_n) z = (1 - |z_n|^2) + conj(z_n) (z_n - z) and
  1 - A_n(z) = conj(z_n) (z_n - z) / (1 - conj(z_n) z), computed in these
  forms so that A_n(z_n) = 1 exactly and both stay accurate near nodes;
* d/dw log E(w, s) = -w^s / (1 - w);
* E'(w, s) = -w^s exp(w + ... + w^s/s), so E'(1, s) = -exp(H_s) and
  E''(1, s) = -2 s exp(H_s) with H_s the harmonic number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import DiscSequence
from .growth import GrowthFunction

__all__ = [
    "ProductsError",
    "logsumexp_complex",
    "CanonicalProduct",
    "TsujiReport",
    "IndexCancellationReport",
    "PrimeCountingReport",
    "prime_counting_criteria_check",
]

LOG_ZERO = float("-inf")

# log of the relative size below which _log_E ends a factor's Horner tail
_LOG_TAIL_STOP = math.log(1e-24)

# Relative distance to a node below which the logarithmic derivative is
# treated as a pole.
POLE_TOL = 1e-12

# cells per column block of every (node, point) pass (``_blockwise``); any
# value gives the same results, since no block of two or more columns is 1 wide
_BLOCK_CELLS = 1 << 14

# N x (widest block) complex rows per ``_blockwise`` call; a value block holds about 7
# (a derivative block of ``interpolation`` about 17)
_WORK_ROWS = 9


class ProductsError(ValueError):
    """Invalid evaluation for a canonical product."""


def logsumexp_complex(lams: np.ndarray) -> np.ndarray:
    """Complex log of the sum of exponentials of each column of a (terms, columns) matrix.

    Terms with real part -inf are exact zeros; a column whose sum is zero
    gives -inf + 0j.  The terms are shifted by the largest real part of their
    column and exponentiated into a Fortran-ordered matrix (the exact zeros
    are left as zeros), so numpy sums each column pairwise (a reduction along
    a contiguous axis); a C-ordered ``sum(axis=0)`` of a matrix two or more
    columns wide adds its rows one by one instead.  In the pairwise sum a
    term passes through at most 20 + ceil(log2(n / 64)) roundings for n terms
    (15 in one of a leaf's four accumulators, 2 joining them, 3 for the
    leaf's leftover terms, one per halving above 64 terms), so the sum is
    within that many eps of the sum of the moduli, against n eps row by row.
    """
    lams = np.asarray(lams, dtype=complex)
    M = lams.real.max(axis=0, initial=LOG_ZERO)
    out = np.full(lams.shape[1], complex(LOG_ZERO, 0.0), dtype=complex)
    finite = np.isfinite(M)
    if np.any(finite):
        # the shifted terms are formed in the exp matrix itself
        cols = lams if finite.all() else lams[:, finite]
        terms = np.subtract(cols, M[None, finite], out=np.empty(cols.shape, complex, order="F"))
        zero = np.isneginf(terms.real)
        np.exp(terms, out=terms, where=~zero)
        terms[zero] = 0.0
        total = terms.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[finite] = M[finite] + np.where(total == 0, complex(LOG_ZERO, 0.0), np.log(total))
    return out


def _batch(z) -> np.ndarray:
    """Points as a 1-D complex batch; a 0-d point is a batch of one."""
    return np.atleast_1d(np.asarray(z, dtype=complex))


def _column_blocks(n_points: int, n_nodes: int) -> list[slice]:
    """Column slices of an (n_nodes, n_points) matrix, about _BLOCK_CELLS cells each.

    A block is at least 2 columns wide, and a width-1 remainder joins the
    block before it: numpy sums an (N, 1) column pairwise, but a wider block
    row by row, so a width-1 block would round its column sums differently.
    """
    width = _block_width(n_nodes)
    edges = list(range(width, n_points, width))
    if edges and n_points - edges[-1] == 1:
        edges.pop()
    return [slice(a, b) for a, b in zip([0] + edges, edges + [n_points])]


def _block_width(n_nodes: int) -> int:
    """Points per column block of a pass over n_nodes nodes (``_column_blocks``)."""
    return max(2, _BLOCK_CELLS // max(n_nodes, 1))


def _poly_q(A: np.ndarray, s: int) -> np.ndarray:
    """w + w^2/2 + ... + w^s/s, vectorized.

    For complex w, multiplying by 1/j has the bits of dividing by j: numpy
    divides by a real-valued complex through its rounded reciprocal, which
    can only flip the sign of a zero part, and q += normalizes that.  (Real
    w, as in the ring maxima's column bound, rounds the product instead.)
    """
    q = np.zeros_like(A)
    wj = np.ones_like(A)
    for j in range(1, s + 1):
        wj *= A
        q += wj * (1.0 / j)
    return q


def _log_one_minus(one_minus_A: np.ndarray) -> np.ndarray:
    """log(1 - A) from 1 - A; 1 - A = 0 gives -inf, NaN an exact log zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log(one_minus_A)
    return np.where(np.isnan(lam), complex(LOG_ZERO, 0.0), lam)


def _log_E(A: np.ndarray, log_one_minus: Callable[[np.ndarray], np.ndarray],
           s: int) -> np.ndarray:
    """log E(A, s) elementwise as complex log values.

    For |A| <= 1/2 the value is the tail -sum_{j>s} A^j / j, run by Horner on
    those cells only; this avoids the cancellation between log(1 - A) and the
    genus polynomial q.  Each cell runs to its own degree, so its value does
    not depend on the rest of the batch.  The other cells use the direct form
    log(1 - A) + q(A).  log(1 - A) comes from the caller, from a node-stable
    1 - A or from exact gap logs: ``log_one_minus(big)`` returns it on the
    cells of the boolean mask ``big`` (|A| > 1/2), flattened as ``A[big]``.
    It is called once, and only when some cell is big, so no logarithm is
    taken on the small cells.
    """
    A = np.asarray(A, dtype=complex)
    abs_A = np.abs(A)
    small = abs_A <= 0.5
    lam = np.empty_like(A)
    if not small.all():
        big = ~small
        lam[big] = log_one_minus(big) + _poly_q(A[big], s)
    if small.any():
        # terms after the first: stop once the next term is below 1e-24 times
        # the first (0 at A = 0, at most 80 for |A| <= 1/2)
        with np.errstate(divide="ignore"):
            extra = np.ceil(_LOG_TAIL_STOP / np.log(abs_A[small])).astype(np.uint8)
        # Highest degree first, so the cells still running at each term are a
        # prefix; a cell joins at its own top term, where 0 * A + 1/top is
        # exactly 1/top.
        order = np.argsort(~extra, kind="stable")
        running = np.cumsum(np.bincount(extra)[::-1]).tolist()
        As = A[small][order]
        poly = np.zeros_like(As)
        k = 0
        for j, k_j in zip(range(s + len(running), s, -1), running):
            if k_j != k:
                k = k_j
                head, A_head = poly[:k], As[:k]
            head *= A_head
            head += 1.0 / j
        # -(A^(s+1)) * poly in place, then back to the order of A[small]
        As **= s + 1
        np.negative(As, out=As)
        As *= poly
        poly[order] = As
        lam[small] = poly
    return lam


class CanonicalProduct:
    """Canonical product over a node sequence with fixed genus.

    Immutable after construction.  Per-node data is cached once as read-only
    complex-log arrays: ``log_B_nodes`` (reduced products B_k(z_k)) and
    ``log_P_prime_nodes`` (node derivatives P'(z_k)).  Evaluation is pure and batched:
    every entry point takes an array of points (a 0-d point is a batch of
    one) and returns one array entry per point.
    """

    def __init__(self, sequence: DiscSequence, genus: int):
        if genus < 1:
            raise ProductsError("genus must be a positive integer")
        self.sequence = sequence
        self.genus = int(genus)
        self.harmonic = sum(1.0 / j for j in range(1, self.genus + 1))
        zn = sequence.values
        self._zn = zn
        self._zn_conj = np.conj(zn)
        # 1 - |z_n|^2 without cancellation near the boundary, and its reciprocal
        self._oms = (1.0 - sequence.moduli) * (1.0 + sequence.moduli)
        self._inv_oms = 1.0 / self._oms

        self.log_B_nodes = self._node_sums(lambda z: self._factors(z)[0])
        self.log_P_prime_nodes = (
            self.log_B_nodes
            + self.harmonic
            + np.log(self._zn_conj)
            - np.log(self._oms.astype(complex))
            + 1j * math.pi
        )
        self.log_P_prime_nodes.flags.writeable = False

    def _node_sums(self, cells: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Read-only column sums of the (node, node) matrix cells(z_n) less its diagonal.

        The matrix is formed in column blocks (``_blockwise``).
        """
        def block(b):
            T = cells(self._zn[b])
            T[np.arange(b.start, b.stop), np.arange(b.stop - b.start)] = 0.0
            return T.sum(axis=0)
        out = self._blockwise(len(self._zn), block)
        out.flags.writeable = False
        return out

    def _blockwise(self, n_points: int, block: Callable[[slice], object]):
        """block(b) on each column block b of an (n_nodes, n_points) pass, joined along the points.

        ``block`` maps a slice of the points to an array, or a tuple of
        arrays, over those points.  The blocks are ``_column_blocks``.
        """
        blocks = _column_blocks(n_points, len(self._zn))
        # Freeing this never-written buffer (an mmapped chunk) raises glibc's mmap
        # threshold to its size and the trim threshold to twice that, so the heap top
        # is not trimmed after each block and faulted back in by the next.
        np.empty(_WORK_ROWS * len(self._zn) * max(b.stop - b.start for b in blocks), complex)
        outs = [block(b) for b in blocks]
        if isinstance(outs[0], tuple):
            return tuple(np.concatenate(parts) for parts in zip(*outs))
        return np.concatenate(outs)

    # -- batched internals ---------------------------------------------------

    def _geometry(self, z: np.ndarray):
        """(A, one_minus_A, D) at a batch of points, shape (n_nodes, n_points).

        With gap = conj(z_n) (z_n - z) and oms = 1 - |z_n|^2, D = 1 - conj(z_n) z
        is formed as oms + gap, 1 - A as gap / D and A as 1 / (1 + gap / oms).
        At z = z_n the gap is an exact zero, so A_n(z_n) = 1 and
        1 - A_n(z_n) = 0 exactly, and the exponents s_n - 1 of the series
        amplify no rounding of A at its own node.  (oms / D can miss 1 by an
        ulp there: numpy divides by a complex through its reciprocal.)  So
        gap / oms is formed as gap times 1 / oms, with the same values; a
        zero part may differ in sign, which 1.0 + normalizes.
        """
        z = np.asarray(z, dtype=complex)
        gap = self._zn_conj[:, None] * (self._zn[:, None] - z[None, :])
        D = self._oms[:, None] + gap
        with np.errstate(invalid="ignore"):  # a NaN point gives NaN cells
            return 1.0 / (1.0 + gap * self._inv_oms[:, None]), gap / D, D

    def _factors(self, z: np.ndarray):
        """(log E(A, s), A, one_minus_A, D) at a batch of points, as _geometry."""
        A, onemA, D = self._geometry(z)
        lam = _log_E(A, lambda big: _log_one_minus(onemA[big]), self.genus)
        return lam, A, onemA, D

    def _deriv_terms(self, A: np.ndarray, onemA: np.ndarray) -> np.ndarray:
        """Per-factor d/dz log E(A_n(z), s) = -conj(z_n) A^(s+2) / ((1-A)(1-|z_n|^2))."""
        return -self._zn_conj[:, None] * A ** (self.genus + 2) / (onemA * self._oms[:, None])

    def _deriv_prime_terms(self, A: np.ndarray, onemA: np.ndarray) -> np.ndarray:
        """Per-factor second log-derivative contribution d/dz of the above."""
        s = self.genus
        num = (s + 2) - (s + 1) * A
        return -(self._zn_conj[:, None] ** 2) * A ** (s + 3) * num / (
            onemA**2 * self._oms[:, None] ** 2
        )

    # -- public evaluation ----------------------------------------------------

    def log_P_many(self, z) -> np.ndarray:
        zb = _batch(z)
        return self._blockwise(len(zb), lambda b: self._factors(zb[b])[0].sum(axis=0))

    def P(self, z) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_P_many(z))

    def _off_nodes(self, zb: np.ndarray) -> np.ndarray:
        """The batch zb for a derivative; a point within POLE_TOL of a node raises."""
        d = np.abs(zb[None, :] - self._zn[:, None])
        if (d < POLE_TOL * (1.0 - self.sequence.moduli)[:, None]).any():
            raise ProductsError("derivative evaluated at a node")
        return zb

    def _off_node_sums(self, z, terms) -> np.ndarray:
        """Column sums of terms(A, 1 - A) at a batch of points away from the nodes."""
        zb = _batch(z)

        def block(b):
            A, onemA, _ = self._geometry(self._off_nodes(zb[b]))
            return terms(A, onemA).sum(axis=0)
        return self._blockwise(len(zb), block)

    def log_deriv_P_many(self, z) -> np.ndarray:
        """P'/P at a batch of points away from the nodes."""
        return self._off_node_sums(z, self._deriv_terms)

    def log_deriv_prime_many(self, z) -> np.ndarray:
        """(P'/P)' at a batch of points away from the nodes."""
        return self._off_node_sums(z, self._deriv_prime_terms)

    def P_second_many(self, z) -> np.ndarray:
        """P'' = P ((P'/P)^2 + (P'/P)') at a batch of points away from the nodes."""
        zb = _batch(z)

        def block(b):
            lam, A, onemA, _ = self._factors(self._off_nodes(zb[b]))
            lp = self._deriv_terms(A, onemA).sum(axis=0)
            lp2 = self._deriv_prime_terms(A, onemA).sum(axis=0)
            with np.errstate(over="ignore"):
                return np.exp(lam.sum(axis=0)) * (lp**2 + lp2)
        return self._blockwise(len(zb), block)

    # -- bounds -------------------------------------------------------------------

    def tsuji_bound_check(self, z) -> "TsujiReport":
        """log|P| against the universal bound 2^(s+2) sum |A_n|^(s+1), from one factor pass."""
        zb = _batch(z)

        def block(b):
            lam, A, _, _ = self._factors(zb[b])
            rhs = 2.0 ** (self.genus + 2) * (np.abs(A) ** (self.genus + 1)).sum(axis=0)
            return lam.sum(axis=0).real, rhs
        lhs, rhs = self._blockwise(len(zb), block)
        return TsujiReport(lhs=lhs, rhs=rhs, holds=bool(np.all(lhs <= rhs + 1e-9)))


@dataclass(frozen=True)
class TsujiReport:
    """Both sides of the Tsuji bound, one array entry per point.

    ``holds`` is whether the bound holds at every point.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    holds: bool


@dataclass(frozen=True)
class IndexCancellationReport:
    """Cancellation between ln|B_k(z_k)| and the counting integral at each node."""

    lhs: tuple
    rhs: tuple
    ratios: tuple
    constant: float

    @property
    def finite(self) -> bool:
        return all(math.isfinite(v) for v in self.ratios)


@dataclass(frozen=True)
class PrimeCountingReport:
    """Best constant for the node-derivative condition of the interpolation theorem.

    The two counting conditions it is tied to have their own checks:
    ``counting.check_concentration`` for the N-bound and
    ``counting.counting_sandwich_check`` (its ``n_bound``) for the count bound.
    """

    ln_prime_constant: float
    class_R_member: bool


def prime_counting_criteria_check(cp: CanonicalProduct, gf: GrowthFunction) -> PrimeCountingReport:
    """Best C in |ln((1-|z_k|)|P'(z_k)|)| <= C psi(1/(1-|z_k|)) over the nodes.

    For growth functions outside the regular class the joint equivalence is
    not claimed; the report flags that case instead of raising.
    """
    one_minus = 1.0 - cp.sequence.moduli
    psi_vals = gf.psi(1.0 / one_minus)
    # math.log per node keeps ln_prime_bound on libm's rounding; np.log can differ in the last bit
    ln_prime = np.abs(np.array([math.log(om) for om in one_minus.tolist()])
                      + cp.log_P_prime_nodes.real)
    return PrimeCountingReport(
        ln_prime_constant=float((ln_prime / psi_vals).max(initial=0.0)),
        class_R_member=gf.family == "power",
    )
