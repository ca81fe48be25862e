"""Shared instance builders and scalar reference oracles for the test suite."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from discinterp.counting import counting_N
from discinterp.geometry import DiscSequence, GeometryError
from discinterp.growth import GrowthFunction
from discinterp.harness import generate_sequence, generate_targets
from discinterp.products import (
    IndexCancellationReport,
    ProductsError,
    _log_E,
    _log_one_minus,
    _poly_q,
    logsumexp_complex,
)

FAMILY_CYCLE = (
    GrowthFunction("power", 0.5),
    GrowthFunction("power", 1.0),
    GrowthFunction("power", 2.0),
    GrowthFunction("log_power", 2.0),
)

# Malformed config fields by case name, each refused while the config is read:
# the wrong type for the sequence, growth and targets objects, a non-integral
# number or a boolean for an integer field, and growth objects whose param is a
# boolean or missing.
MALFORMED_FIELDS = {
    **{f"{key}-{value}": {key: value}
       for key in ("sequence", "growth", "targets") for value in ("abc", 5, True)},
    **{f"{key}-{value}": {key: value}
       for key in ("theta_count", "residual_samples", "seed") for value in (2.5, True)},
    "growth.param-True": {"growth": {"family": "power", "param": True}},
    "growth.param-missing": {"growth": {"family": "power"}},
}


def lattice_instance(seed: int, gf: GrowthFunction, rings: int = 4,
                     r0: float = 0.55, q: float = 0.62, max_points: int = 60,
                     target_constant: float = 2.5):
    """A separated ring instance with random admissible targets.

    Nodes sit on rings whose boundary distances shrink geometrically, with
    jittered pseudohyperbolically quasi-equal angular gaps; targets satisfy
    ln|b_k| <= 0.9 * target_constant * psi_tilde(1/(1-|z_k|)).
    """
    seq = generate_sequence(
        {"kind": "perturbed_lattice", "rings": rings, "r0": r0, "q": q,
         "spread": 0.5, "jitter": 0.15, "max_points": max_points},
        seed,
    )
    targets = generate_targets(
        {"kind": "random_admissible", "constant": target_constant}, seq, gf, seed
    )
    return seq, targets


def spiral_sequence(n: int = 200, depth: float = 1e-4) -> DiscSequence:
    """Golden-angle spiral with 1-|z| geometric from 0.5 down to depth."""
    one_minus = 0.5 * (2.0 * depth) ** (np.arange(n) / (n - 1))
    return DiscSequence(list((1.0 - one_minus)
                             * np.exp(1j * math.pi * (3.0 - math.sqrt(5.0)) * np.arange(n))))


def abs_split_sequence(n: int = 60) -> DiscSequence:
    """Random nodes with close pairs; on some, np.abs and scalar abs differ in the last bit.

    Scalar abs is libm hypot, while numpy's complex abs rounds on its own, so
    a node's modulus depends on which one a loop reads.  The package reads
    ``moduli`` (np.abs) everywhere, and the oracles below must too.
    """
    rng = np.random.default_rng(25)
    pts: list[complex] = []
    while len(pts) < n:
        z = rng.uniform(0.3, 0.95) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) > 0.002 for w in pts):
            pts.append(complex(z))
    seq = DiscSequence(pts)
    assert any(abs(complex(z)) != m for z, m in zip(seq.values, seq.moduli))
    return seq


def factors_all_cells(cp, z):
    """``cp._factors(z)`` with log(1 - A) taken on every cell, then read on the big ones."""
    A, onemA, D = cp._geometry(z)
    log_one_minus = _log_one_minus(onemA)
    return _log_E(A, lambda big: log_one_minus[big], cp.genus), A, onemA, D


def dense_terms(f, z) -> tuple[np.ndarray, np.ndarray]:
    """(every term log L as an (node, point) matrix, log P) of the interpolant f at z.

    The value formation before the live-term cut, from one factor pass: the
    oracle the live terms of ``Interpolant._block_value_logs`` are checked
    against bit for bit.  L = c_n + log B_n(z) + q(A) + s_n log A with
    c_n = log(b_n (-conj(z_n)) / ((1 - |z_n|^2) P'(z_n))), formed here from
    the targets and the product's node caches.
    """
    cp = f.product
    lam, A, _, _ = cp._factors(np.atleast_1d(np.asarray(z, dtype=complex)))
    logP = lam.sum(axis=0)
    with np.errstate(invalid="ignore"):
        logB = logP[None, :] - lam
    hits = np.isneginf(lam.real)
    logB[hits] = cp.log_B_nodes[hits.nonzero()[0]]
    b = f.targets.values
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(b))
        log_b = np.where(np.isneginf(log_abs), complex(-np.inf, 0.0), log_abs + 1j * np.angle(b))
        c = (log_b + np.log(np.conj(cp.sequence.values)) + 1j * math.pi - np.log(cp._oms)
             - cp.log_P_prime_nodes)
        L = c[:, None] + logB + _poly_q(A, cp.genus) + f.exponents[:, None] * np.log(A)
    return L, logP


def dense_value_logs(f, z) -> tuple[np.ndarray, np.ndarray]:
    """(log f, log P) at z with every term formed and summed in one batch."""
    L, logP = dense_terms(f, z)
    return logsumexp_complex(L), logP


def one_pass_products(cp, z) -> dict:
    """P'/P, (P'/P)', P'', sum |A_n|^(s+1) and both Tsuji sides, from one pass over all of z.

    The formation before the column blocks, at points off the nodes: the
    oracle the blocked entry points of ``CanonicalProduct`` are checked
    against bit for bit.
    """
    lam, A, onemA, _ = cp._factors(np.atleast_1d(np.asarray(z, dtype=complex)))
    log_P = lam.sum(axis=0)
    lp = cp._deriv_terms(A, onemA).sum(axis=0)
    lp2 = cp._deriv_prime_terms(A, onemA).sum(axis=0)
    abs_power = (np.abs(A) ** (cp.genus + 1)).sum(axis=0)
    with np.errstate(over="ignore"):
        P_second = np.exp(log_P) * (lp**2 + lp2)
    return {"log_deriv_P_many": lp, "log_deriv_prime_many": lp2, "P_second_many": P_second,
            "factor_abs_power_sum": abs_power, "tsuji_lhs": log_P.real,
            "tsuji_rhs": 2.0 ** (cp.genus + 2) * abs_power}


def one_pass_derivatives(f, z) -> tuple:
    """(f, f', log f, log f', P'/P, (P'/P)') of the interpolant f from one pass over all of z.

    The derivative formation before the column blocks, at points off the
    nodes: term_n'/term_n = S_n + (s_n - 1) conj(z_n)/D + conj(z_n)/D
    (1 + A + ... + A^s), with S_n = P'/P less the n-th factor's log
    derivative.  The oracle ``Interpolant.eval_and_derivative_many`` is
    checked against bit for bit.
    """
    cp = f.product
    L, _ = dense_terms(f, z)
    _, A, onemA, D = cp._factors(np.atleast_1d(np.asarray(z, dtype=complex)))
    with np.errstate(divide="ignore", invalid="ignore"):
        T = cp._deriv_terms(A, onemA)
        lp = T.sum(axis=0)
    zcD = np.conj(cp.sequence.values)[:, None] / D
    geom, Aj = np.ones_like(A), np.ones_like(A)
    for _ in range(cp.genus):
        Aj = Aj * A
        geom = geom + Aj
    with np.errstate(divide="ignore", invalid="ignore"):
        dL = L + np.log((lp[None, :] - T) + (f.exponents - 1)[:, None] * zcD + zcD * geom)
    dL[np.isnan(dL)] = complex(-np.inf, 0.0)
    lam_v, lam_d = logsumexp_complex(L), logsumexp_complex(dL)
    with np.errstate(over="ignore"):
        vals = [np.where(np.isneginf(lam.real), 0.0, np.exp(lam)) for lam in (lam_v, lam_d)]
    return vals[0], vals[1], lam_v, lam_d, lp, cp._deriv_prime_terms(A, onemA).sum(axis=0)


def log_E_batch_degree(A, log_one_minus, s):
    """``_log_E`` with one Horner degree for all small cells, set by their largest |A|.

    The kernel as it was before each cell got its own degree: the oracle for
    bit-equality of the per-cell tail.
    """
    A = np.asarray(A, dtype=complex)
    abs_A = np.abs(A)
    small = abs_A <= 0.5
    lam = np.empty_like(A)
    if not small.all():
        big = ~small
        lam[big] = log_one_minus(big) + _poly_q(A[big], s)
    if small.any():
        As = A[small]
        a_max = float(abs_A[small].max())
        # stop once the next term is below 1e-24 times the first; at most 89 terms
        extra = 0 if a_max == 0.0 else math.ceil(math.log(1e-24) / math.log(a_max))
        top = s + 1 + min(extra, 88)
        poly = np.full_like(As, 1.0 / top)
        for j in range(top - 1, s, -1):
            poly = poly * As + 1.0 / j
        lam[small] = -(As ** (s + 1)) * poly
    return lam


def psi_tilde_log_quad(beta: float, u) -> np.ndarray:
    """psi_tilde(e^u) of exp_log_power(beta) by adaptive quadrature of exp(v^beta) over [0, u]."""
    return np.array([quad(lambda v: math.exp(v**beta), 0.0, ui,
                          epsabs=1e-12, epsrel=1e-10, limit=200)[0]
                     for ui in np.atleast_1d(np.asarray(u, dtype=float))])


def scan_max_term(log_coeffs: np.ndarray, log_t: float) -> tuple[float, int]:
    """(ln mu(t), attaining index) by a scan of a whole ladder, ties to the larger index."""
    arr = log_coeffs + np.arange(len(log_coeffs)) * log_t
    idx = len(arr) - 1 - int(np.argmax(arr[::-1]))
    return float(arr[idx]), idx


# cells per block of the dense ladder's pruned maximal-term scan
_BLOCK = 256


@dataclass(frozen=True)
class DenseLadder:
    """The coefficient ladder stored densely up to n_max, the reference for the implicit one.

    ``log_coeffs[n]`` is ln phi_n; ``log_kappas[n]`` is ln(phi_{n-1}/phi_n)
    with a -inf sentinel at n = 0.  It has the ``scan`` of ``CoefficientLadder``,
    so ``select_exponents`` runs on it too.
    """

    log_coeffs: np.ndarray
    log_kappas: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.log_coeffs) - 1

    def scan(self, log_t):
        log_t = np.atleast_1d(np.asarray(log_t, dtype=float))
        buckets = np.searchsorted(self.log_kappas, log_t, side="right") - 1
        return (buckets, self.log_coeffs[buckets] + buckets * log_t,
                *self._max_terms(log_t))

    def _max_terms(self, log_t) -> tuple[np.ndarray, np.ndarray]:
        """(ln mu(t), attaining index) at each t = exp(log_t), ties to the larger index.

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


def raw_conjugate(gf: GrowthFunction, C0: float, n_max: int) -> np.ndarray:
    """v(n) = sup_u (n u - C0 psi_tilde(C0 e^u)), n = 0..n_max, formed in one batch."""
    n = np.arange(n_max + 1, dtype=float)
    log_C0 = math.log(C0)
    u = np.zeros(n_max + 1)
    above = n > C0 * float(gf.psi_log(log_C0))
    if above.any():
        u[above] = np.maximum(gf.psi_inverse_log(n[above] / C0) - log_C0, 0.0)
    return n * u - C0 * gf.psi_tilde_log(log_C0 + u)


def dense_ladder(gf: GrowthFunction, C0: float, n_max: int) -> DenseLadder:
    """Every coefficient up to n_max: the raw conjugate lifted to exact log-concavity.

    The increments of ``raw_conjugate`` are lifted to their running maximum
    and summed back, so ``log_kappas`` is nondecreasing.
    """
    v_star = raw_conjugate(gf, C0, n_max)
    incr = np.maximum.accumulate(np.diff(v_star))
    v_star = np.concatenate(([v_star[0]], v_star[0] + np.cumsum(incr)))
    return DenseLadder(log_coeffs=-v_star, log_kappas=np.concatenate(([-np.inf], incr)))


def small_radial_instance(gf: GrowthFunction):
    seq = DiscSequence([0.3, 0.55, -0.4 + 0.35j, 0.7j, -0.8])
    rng = np.random.default_rng(99)
    targets = generate_targets(
        {"kind": "random_admissible", "constant": 1.0}, seq, gf, 99
    )
    return seq, targets


def acceptance_instances():
    """Twenty seeded instances cycling the four growth families."""
    bank = []
    for i in range(20):
        gf = FAMILY_CYCLE[i % len(FAMILY_CYCLE)]
        rings = 3 + (i % 3)
        seq, targets = lattice_instance(
            seed=1000 + i, gf=gf, rings=rings,
            r0=0.5 + 0.02 * (i % 4), q=0.6,
            max_points=60, target_constant=1.5 + (i % 3),
        )
        bank.append((seq, gf, targets))
    return bank


# -- scalar reference oracles ---------------------------------------------------


def pseudo_dist(z: complex, w: complex) -> float:
    """Pseudohyperbolic distance |z - w| / |1 - conj(z) w| in [0, 1)."""
    zv, wv = complex(z), complex(w)
    for v in (zv, wv):
        if not np.abs(v) < 1.0:
            raise GeometryError(f"point {v} is not inside the open unit disc")
    return abs(zv - wv) / abs(1.0 - zv.conjugate() * wv)


def weierstrass_E(w: complex, s: int) -> complex:
    """Genus-s primary factor (1 - w) exp(w + w^2/2 + ... + w^s/s)."""
    if s < 0:
        raise ProductsError("genus must be nonnegative")
    w = complex(w)
    q = 0.0 + 0.0j
    wj = 1.0 + 0.0j
    for j in range(1, s + 1):
        wj *= w
        q += wj / j
    return (1.0 - w) * np.exp(q) if s else (1.0 - w)


def index_cancellation_check(cp, delta: float = 0.5) -> IndexCancellationReport:
    """|ln|B_k(z_k)| + N_{z_k}(delta (1-|z_k|))| against sum |A_n(z_k)|^(s+1), in doubles.

    The individually huge terms cancel; the residual stays comparable to the
    factor sum.  The counts come from one ``counting_N`` call per node.
    """
    seq = cp.sequence
    counts = np.array([counting_N(seq, z, delta * (1.0 - m))
                       for z, m in zip(seq.values, seq.moduli)])
    lhs = np.abs(cp.log_B_nodes.real + counts)
    rhs = cp.factor_abs_power_sum(seq.values)
    ratios = lhs / rhs
    return IndexCancellationReport(tuple(lhs.tolist()), tuple(rhs.tolist()),
                                   tuple(ratios.tolist()), float(ratios.max(initial=0.0)))


def zero_count_circle(sol, center: complex, radius: float, n_points: int) -> float:
    """Argument-principle zero count of f = P e^g inside a circle, un-rounded.

    The n_points trapezoid rule on (P'/P + h)(z - c), from one call each of
    ``log_deriv_P_many`` and ``eval_many``; e^g contributes nothing.
    """
    ring = center + radius * np.exp(2j * math.pi * np.arange(n_points) / n_points)
    w = sol.product.log_deriv_P_many(ring) + sol.gprime.eval_many(ring)
    return float((w * (ring - center)).mean().real)
