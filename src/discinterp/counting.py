"""Counting functions and condition checkers for node sequences.

n_z(t) counts sequence points in the closed Euclidean disc of radius t
around z; N_z(r) is its logarithmically weighted integral
integral_0^r (n_z(t) - 1)^+ / t dt, which collapses to the closed log-sum
over sorted distances (the nearest point never contributes).

All existential conditions are turned into best-constant computations over
the finite sequence: a finite sequence always satisfies "there exists C",
so the informative output is the smallest C together with a witness index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .geometry import DELTA, DiscSequence
from .growth import GrowthFunction

__all__ = [
    "CountingError",
    "ConditionReport",
    "counting_n",
    "counting_N",
    "check_concentration",
    "check_korenblum_sum",
    "carleson_delta",
    "separation",
    "EquivalenceReport",
    "concentration_korenblum_comparison",
    "sigma_log_comparison",
    "SigmaComparisonReport",
    "SandwichReport",
    "counting_sandwich_check",
    "ALPHA",
]

# Ratio between the radii of the two-radius comparisons: N at DELTA (1 - |z|)
# against N at ALPHA DELTA (1 - |z|), and n at DELTA / ALPHA (1 - |z|).
ALPHA = 2.0


class CountingError(ValueError):
    """Invalid parameter for a counting operation."""


@dataclass(frozen=True)
class ConditionReport:
    """Best constant for a per-point inequality; ``numerators`` holds each left side, read-only."""

    best_constant: float
    witness_index: int
    numerators: np.ndarray = field(repr=False, compare=False)


def counting_n(seq: DiscSequence, z: complex, t: float) -> int:
    """Number of sequence points in the closed disc of radius t around z."""
    if t < 0:
        raise CountingError("radius t must be nonnegative")
    return int(np.count_nonzero(np.abs(seq.values - complex(z)) <= t))


def counting_N(seq: DiscSequence, z: complex, r: float) -> float:
    """Log-weighted counting integral of (n_z - 1)^+ up to radius r.

    With sorted distances d_1 <= d_2 <= ... from z, equals
    sum over j >= 2, d_j <= r of ln(r / d_j): the nearest point is
    discounted, which realizes the (n - 1)^+ truncation.
    """
    if not r > 0:
        raise CountingError("radius r must be positive")
    d = np.sort(np.abs(seq.values - complex(z)))[1:]
    inside = d[d <= r]
    return float(np.sum(np.log(r / inside)))


def _psi_at_nodes(seq: DiscSequence, gf: GrowthFunction) -> np.ndarray:
    return gf.psi(1.0 / (1.0 - seq.moduli))


def _counting_N_at_nodes(seq: DiscSequence, factor: float) -> np.ndarray:
    """N_{z_k}(factor (1 - |z_k|)) at every node k, one counting_N call each."""
    radii = factor * (1.0 - seq.moduli)
    return np.array([counting_N(seq, z, r) for z, r in zip(seq.values, radii)])


def _pairwise(seq: DiscSequence) -> tuple[np.ndarray, np.ndarray]:
    """|z_j - z_k| and |1 - conj(z_k) z_j| in row k, column j."""
    v = seq.values
    d = np.abs(v[None, :] - v[:, None])
    denom = np.abs(1.0 - np.conj(v[:, None]) * v[None, :])
    return d, denom


def _korenblum_sums(seq: DiscSequence, delta: float) -> np.ndarray:
    """Sum of ln(1 / sigma(z_k, z_j)) over 0 < |z_j - z_k| < delta (1 - |z_k|).

    Each node's terms are summed as one array, so numpy's pairwise summation
    groups them the same way however many close pairs the node has; nodes
    without close pairs keep +0.0.  The denominators |1 - conj(z_k) z_j| are
    formed for the close pairs only.
    """
    v = seq.values
    d = np.abs(v[None, :] - v[:, None])
    close = (d > 0) & (d < delta * (1.0 - seq.moduli)[:, None])
    sums = np.zeros(len(seq))
    for k in np.flatnonzero(close.any(axis=1)):
        near = close[k]
        sums[k] = -np.sum(np.log(d[k, near] / np.abs(1.0 - np.conj(v[k]) * v[near])))
    return sums


def _best_constant(numerators: np.ndarray, denominators: np.ndarray) -> ConditionReport:
    ratios = numerators / denominators
    k = int(np.argmax(ratios))
    numerators.flags.writeable = False
    return ConditionReport(float(ratios[k]), k, numerators)


def _node_numerators(report: ConditionReport, seq: DiscSequence) -> np.ndarray:
    if len(report.numerators) != len(seq):
        raise CountingError(f"report has {len(report.numerators)} numerators for {len(seq)} nodes")
    return report.numerators


def check_concentration(seq: DiscSequence, gf: GrowthFunction) -> ConditionReport:
    """Best C in N_{z_k}(DELTA (1 - |z_k|)) <= C psi(1 / (1 - |z_k|))."""
    if len(seq) == 0:
        raise CountingError("concentration check needs a nonempty sequence")
    nums = _counting_N_at_nodes(seq, DELTA)
    return _best_constant(nums, _psi_at_nodes(seq, gf))


def check_korenblum_sum(seq: DiscSequence, gf: GrowthFunction) -> ConditionReport:
    """Best C in the pseudohyperbolic log-sum over close pairs <= C psi.

    For each node k the sum runs over 0 < |z_j - z_k| < DELTA (1 - |z_k|)
    of ln(1 / sigma(z_k, z_j)).
    """
    if len(seq) == 0:
        raise CountingError("korenblum check needs a nonempty sequence")
    nums = _korenblum_sums(seq, DELTA)
    return _best_constant(nums, _psi_at_nodes(seq, gf))


def _log_sigma_matrix(seq: DiscSequence) -> np.ndarray:
    """ln sigma(z_k, z_j) in row k, column j, with 0.0 on the diagonal."""
    d, denom = _pairwise(seq)
    with np.errstate(divide="ignore"):
        out = np.log(d) - np.log(denom)
    out[np.diag_indices_from(out)] = 0.0
    return out


def carleson_delta(seq: DiscSequence) -> float:
    """inf over k of the product of sigma(z_j, z_k), j != k, via log sums; 1 for N <= 1."""
    sums = _log_sigma_matrix(seq).sum(axis=0)
    return float(np.exp(sums.min(initial=0.0)))


def separation(seq: DiscSequence) -> float:
    """Minimal pairwise pseudohyperbolic distance."""
    if len(seq) < 2:
        raise CountingError("separation needs at least two points")
    log_sigma = _log_sigma_matrix(seq)
    log_sigma[np.diag_indices_from(log_sigma)] = np.inf
    return float(np.exp(log_sigma.min()))


@dataclass(frozen=True)
class SigmaComparisonReport:
    """Per-pair excess of ln(1/sigma) over the Euclidean log term."""

    min_excess: float
    max_excess: float
    bound: float
    pair_count: int

    @property
    def holds(self) -> bool:
        return self.min_excess >= -1e-12 and self.max_excess <= self.bound + 1e-12


def sigma_log_comparison(seq: DiscSequence) -> SigmaComparisonReport:
    """Exact two-sided comparison of the pseudohyperbolic and Euclidean log terms.

    For each pair with 0 < |z_j - z_k| <= DELTA (1 - |z_k|) the excess
    ln(1/sigma(z_k, z_j)) - ln((1 - |z_k|) / |z_j - z_k|)
    equals ln(|1 - conj(z_j) z_k| / (1 - |z_k|)) and lies in [0, ln(2 + DELTA)].
    """
    d, denom = _pairwise(seq)
    one_minus = 1.0 - seq.moduli
    rows, cols = np.nonzero((d > 0) & (d <= DELTA * one_minus[:, None]))
    if rows.size == 0:
        return SigmaComparisonReport(0.0, 0.0, math.log(2.0 + DELTA), 0)
    excess = np.log(denom[rows, cols] / one_minus[rows])
    return SigmaComparisonReport(float(excess.min()), float(excess.max()),
                                 math.log(2.0 + DELTA), int(rows.size))


@dataclass(frozen=True)
class EquivalenceReport:
    """Pointwise comparison of the concentration and korenblum-sum numerators.

    ``lower_ok`` says N_k(DELTA) never exceeds the korenblum sum at node k.
    ``pointwise_max`` is the per-node maximum of the korenblum sum divided
    by its proven affine bound N_k(DELTA) + c N_k(ALPHA DELTA), with
    c = (ln(1/DELTA) + ln(2+DELTA)) / ln(ALPHA); it never exceeds 1.  The
    two best constants are those of ``check_concentration`` and
    ``check_korenblum_sum``.
    """

    pointwise_max: float
    lower_ok: bool

    @property
    def upper_ok(self) -> bool:
        return self.pointwise_max <= 1.0 + 1e-12


def concentration_korenblum_comparison(seq: DiscSequence, concentration: ConditionReport,
                                       korenblum: ConditionReport) -> EquivalenceReport:
    """Two-sided comparison of the concentration and korenblum-sum conditions.

    Direction one: every node satisfies N_k(DELTA (1-|z_k|)) <= korenblum sum,
    hence the concentration constant is at most the korenblum one.
    Direction two: the korenblum sum at node k is at most
    N_k(DELTA(1-|z_k|)) + (ln(1/DELTA) + ln(2+DELTA)) / ln(ALPHA)
    times N_k(ALPHA DELTA (1-|z_k|)); both facts are verified pointwise.
    Only N_k(ALPHA DELTA (1-|z_k|)) is counted here; the rest are the reports' numerators.
    """
    factor = (math.log(1.0 / DELTA) + math.log(2.0 + DELTA)) / math.log(ALPHA)
    n_small, kore = _node_numerators(concentration, seq), _node_numerators(korenblum, seq)
    n_large = _counting_N_at_nodes(seq, ALPHA * DELTA)
    lower_ok = bool(np.all(n_small <= kore + 1e-12))
    bound = n_small + factor * n_large
    with np.errstate(invalid="ignore", divide="ignore"):
        point = np.where(kore > 0, kore / np.maximum(bound, 1e-300), 0.0)
    return EquivalenceReport(pointwise_max=float(point.max()), lower_ok=lower_ok)


@dataclass(frozen=True)
class SandwichReport:
    """Counting sandwich between the truncated count and the log integral."""

    n_bound: ConditionReport
    max_lower_violation: float
    sandwich_ok: bool


def counting_sandwich_check(seq: DiscSequence, gf: GrowthFunction, concentration: ConditionReport,
                            z_points: Iterable[complex]) -> SandwichReport:
    """Verify (n_z(DELTA/ALPHA (1-|z|)) - 1)^+ ln(ALPHA) <= N_z(DELTA (1-|z|)).

    The sandwich is checked at every node plus the given z points; the
    returned condition report carries the best constant for the count bound
    n_z((1 - |z|)/2) <= C psi(1 / (1 - |z|)) over the same points.  At the
    nodes N_z(DELTA (1-|z|)) is read from the ``concentration`` numerators.
    """
    extra = [complex(z) for z in z_points]
    pts = np.concatenate([seq.values, np.array(extra, dtype=complex)])
    moduli = np.abs(pts)
    if not np.all(moduli < 1.0):
        raise CountingError("sandwich points must lie inside the disc")
    one_minus = 1.0 - moduli
    # Python floats, so that worst and sandwich_ok stay Python scalars
    mids = _node_numerators(concentration, seq).tolist() + [
        counting_N(seq, z, DELTA * om) for z, om in zip(extra, one_minus[len(seq):])]
    worst, nums = -math.inf, []
    for z, om, mid in zip(pts, one_minus, mids):
        lower = max(counting_n(seq, z, (DELTA / ALPHA) * om) - 1, 0) * math.log(ALPHA)
        worst = max(worst, lower - mid)
        nums.append(float(counting_n(seq, z, 0.5 * om)))
    dens = gf.psi(1.0 / one_minus)
    return SandwichReport(_best_constant(np.asarray(nums), dens), float(worst), worst <= 1e-12)
