"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported constants.
"""

import math
import time

import numpy as np
import pytest

from discinterp.counting import check_concentration, sigma_log_comparison
from discinterp.geometry import DiscSequence
from discinterp.growth import GrowthFunction
from discinterp.interpolation import (
    build_interpolant,
    build_ladder,
    growth_report,
    max_term_bound_report,
)
from discinterp.oscillation import build_coefficient, sharpness_sequence
from discinterp.products import CanonicalProduct

from helpers import acceptance_instances, lattice_instance

R_GRID = (0.5, 0.9, 0.99, 0.999)


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def bank():
    instances = []
    for seq, gf, targets in acceptance_instances():
        interp = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, 8.0)
        instances.append((seq, gf, targets, interp))
    return instances


@pytest.fixture(scope="module")
def ode_bank():
    instances = []
    for i, rho in enumerate([0.5, 1.0, 2.0, 0.5, 1.0]):
        gf = GrowthFunction("power", rho)
        seq, _ = lattice_instance(seed=300 + i, gf=gf, rings=3, r0=0.45,
                                  q=0.6, max_points=25)
        assert len(seq) <= 25
        instances.append((seq, gf, build_coefficient(seq, gf, C0=2.0)))
    return instances


def test_criterion_1_interpolation_identity(bank):
    """Twenty randomized instances; relative identity error below 1e-8."""
    start = time.time()
    worst = 0.0
    assert len(bank) == 20
    for seq, gf, targets, interp in bank:
        assert len(seq) <= 60
        assert interp.targets.admissibility_constant <= 5.0
        assert check_concentration(seq, gf).best_constant <= 10.0
        worst = max(worst, float(interp.interpolation_errors().max()))
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed <= 60.0
    _line(1, ok, f"max identity error {worst:.3e} (tol 1e-8), {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed <= 60.0


def test_criterion_2_tsuji_bound():
    """No violation of log|P| <= 2^(s+2) sum |A_n|^(s+1) at 1e-9."""
    rng = np.random.default_rng(400)
    violations = 0
    checked = 0
    sequences = []
    for trial in range(10):
        pts = []
        size = int(rng.integers(5, 50))
        while len(pts) < size:
            z = rng.uniform(0.1, 0.97) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - w) > 0.004 for w in pts):
                pts.append(complex(z))
        sequences.append((DiscSequence(pts), int(rng.integers(1, 4))))
    sequences.append((sharpness_sequence(1.0, 8).to_disc_sequence(), 2))
    for seq, genus in sequences:
        cp = CanonicalProduct(seq, genus)
        zs = 0.9999 * np.sqrt(rng.uniform(size=1000)) * np.exp(
            2j * np.pi * rng.uniform(size=1000))
        lhs = cp.log_P_many(zs).real
        rhs = cp.tsuji_bound_check(zs).rhs
        violations += int(np.sum(lhs > rhs + 1e-9))
        checked += len(zs)
    ok = violations == 0
    _line(2, ok, f"{checked} evaluation points over {len(sequences)} sequences, "
          f"{violations} violations")
    assert violations == 0


def test_criterion_3_derivative_closed_form(bank):
    """Node derivative against finite-difference and contour oracles."""
    worst_fd = 0.0
    worst_cauchy = 0.0
    for seq, gf, targets, interp in bank:
        cp = interp.product
        thetas = 2 * np.pi * np.arange(512) / 512
        for k, (zk, m) in enumerate(zip(seq.values, seq.moduli)):
            closed = np.exp(cp.log_P_prime_nodes[k])
            h = 1e-6 * (1 - m)
            fd = (cp.P([zk + h])[0] - cp.P([zk - h])[0]) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - closed) / abs(closed))
            r = (1 - m) / 4
            ring = zk + r * np.exp(1j * thetas)
            cauchy = complex(np.mean(cp.P(ring) * np.exp(-1j * thetas)) / r)
            worst_cauchy = max(worst_cauchy, abs(cauchy - closed) / abs(closed))
    ok = worst_fd < 1e-5 and worst_cauchy < 1e-8
    _line(3, ok, f"finite-difference dev {worst_fd:.2e} (tol 1e-5), "
          f"contour dev {worst_cauchy:.2e} (tol 1e-8)")
    assert worst_fd < 1e-5
    assert worst_cauchy < 1e-8


def test_criterion_4_index_cancellation_sharpness():
    """Residual of the ln|B_k| / counting cancellation stays a stable constant.

    Stability is read on the upper envelope: extending the pair sequence
    cannot double the reported constant, and across the deep tail (where the
    2^(n rho)-sized terms actually cancel) the ratios stay within a factor 2
    of each other.  Individual early nodes may cancel better than required;
    that does not violate an upper bound.
    """
    seq = sharpness_sequence(1.0, 8)
    genus = GrowthFunction("power", 1.0).genus
    rep = seq.index_cancellation_log_report(genus=genus)
    ratios = np.asarray(rep.ratios)
    constant = rep.constant
    half = len(ratios) // 2
    running_stable = constant <= 2.0 * float(ratios[:half].max())
    tail = ratios[half:]
    tail_stable = float(tail.max()) <= 2.0 * float(tail.min())
    ok = bool(np.all(np.isfinite(ratios)) and running_stable and tail_stable)
    _line(4, ok, f"constant {constant:.4f}, tail spread "
          f"{tail.max() / tail.min():.3f} (within factor 2)")
    assert np.all(np.isfinite(ratios))
    assert running_stable
    assert tail_stable


def test_criterion_5_growth_bound(bank):
    """ln M(r, f) / psi_tilde stays bounded along the radius grid."""
    worst_excess = -math.inf
    for seq, gf, targets, interp in bank:
        table = growth_report(interp, R_GRID, 256)
        baseline = table.ratio_at(0.9)
        ratios = [row.ratio for row in table.rows]
        assert all(math.isfinite(r) for r in ratios)
        worst_excess = max(worst_excess, max(ratios) - 2.0 * baseline)
    ok = worst_excess <= 0.0
    _line(5, ok, f"max over grid minus twice the r=0.9 ratio: {worst_excess:.3f}")
    assert worst_excess <= 0.0


def test_criterion_6_ode_construction(ode_bank):
    """Residual, argument-principle zero counts and coefficient growth."""
    start = time.time()
    worst_res = 0.0
    worst_wind = 0.0
    worst_tail = -math.inf
    for i, (seq, gf, sol) in enumerate(ode_bank):
        rep = sol.residual_report(n_samples=200, seed=77 + i)
        worst_res = max(worst_res, rep.max_residual)
        counts = sol.zero_counts()
        worst_wind = max(worst_wind, float(np.max(np.abs(counts - 1.0))))
        table = sol.growth_a_report(R_GRID, theta_count=128)
        ratios = [row.ratio for row in table.rows]
        assert all(math.isfinite(r) for r in ratios)
        # tail control as in criterion 5; the r = 0.5 ratio only reports the
        # empirical constant (psi_tilde(2) is tiny and a need not vanish
        # inside, so the inner ratio is inflated by the denominator)
        tail = [row.ratio for row in table.rows if row.r >= 0.9]
        worst_tail = max(worst_tail, max(tail) - 2.0 * table.ratio_at(0.9))
    elapsed = time.time() - start
    ok = worst_res < 1e-6 and worst_wind < 1e-6 and worst_tail <= 0 and elapsed <= 120
    _line(6, ok, f"max residual {worst_res:.2e} (tol 1e-6), max winding defect "
          f"{worst_wind:.2e}, growth tail excess {worst_tail:.3f}, {elapsed:.1f}s")
    assert worst_res < 1e-6
    assert worst_wind < 1e-6
    assert worst_tail <= 0.0
    assert elapsed <= 120.0


def test_criterion_7_sharpness_counting():
    """Counting ratio within five percent of 1 for n in [10, 20], rho in {.5, 1, 2}.

    Implemented exactly as stated.  The deviation of the ratio from 1 is
    n ln(2) / 2^(n rho) in exact arithmetic, which exceeds 0.05 for rho = 0.5
    until n = 16, so those indices fail by mathematics, not by numerics; see
    the decisions ledger.
    """
    start = time.time()
    out_of_window = []
    for rho in (0.5, 1.0, 2.0):
        seq = sharpness_sequence(rho, 20)
        for n in range(10, 21):
            m = 2 * n - 1
            ratio = seq.counting_N_log(m) / 2.0 ** (n * rho)
            if not 0.95 <= ratio <= 1.05:
                out_of_window.append((rho, n, round(ratio, 4)))
    elapsed = time.time() - start
    ok = not out_of_window and elapsed < 1.0
    _line(7, ok, f"{len(out_of_window)} of 33 ratios outside [0.95, 1.05] "
          f"in {elapsed * 1e3:.0f} ms"
          + (f"; out: {out_of_window}" if out_of_window else ""))
    assert elapsed < 1.0
    assert not out_of_window, (
        "exact log-space arithmetic places these (rho, n) ratios outside the "
        f"stated window: {out_of_window}"
    )


def test_criterion_8_sigma_comparison(bank):
    """0 <= ln(1/sigma) - ln((1-|z_k|)/|z_n-z_k|) <= ln(2.5), exactly."""
    sequences = [seq for seq, _, _, _ in bank]
    sequences.append(sharpness_sequence(1.0, 5).to_disc_sequence())
    sequences.append(DiscSequence([0.5, 0.55, 0.5 + 0.04j, -0.2, 0.9, 0.905]))
    worst_low, worst_high, pairs = 0.0, 0.0, 0
    for seq in sequences:
        rep = sigma_log_comparison(seq)
        worst_low = min(worst_low, rep.min_excess)
        worst_high = max(worst_high, rep.max_excess - rep.bound)
        pairs += rep.pair_count
    ok = worst_low >= -1e-12 and worst_high <= 1e-12
    _line(8, ok, f"{pairs} admissible pairs; lower slack {worst_low:.1e}, "
          f"upper slack {worst_high:.1e} (tol 1e-12)")
    assert worst_low >= -1e-12
    assert worst_high <= 1e-12


def test_criterion_9_ladder_bounds():
    """Two-sided maximal-term bounds on a 50-point log grid per family.

    The displayed constants (2 above, 1/4 below) are consistent with the
    ladder target C0 psi_tilde(C0 t) exactly at the smallest admissible
    C0 = 2, which is where the literal bounds are checked; the C0-scaled
    bounds are additionally verified at the default C0 = 8.
    """
    t0_values = {}
    for gf in (GrowthFunction("power", 0.5), GrowthFunction("power", 1.0),
               GrowthFunction("power", 2.0), GrowthFunction("log_power", 2.0),
               GrowthFunction("exp_log_power", 0.5)):
        ladder = build_ladder(gf, 2.0, 3000)
        grid = np.geomspace(1.0, 60.0, 50)
        rep = max_term_bound_report(ladder, grid)
        t0_values[f"{gf.family}({gf.param})"] = rep.t0_literal
        assert rep.t0_literal is not None, f"no threshold for {gf.family}"
        scaled = max_term_bound_report(build_ladder(gf, 8.0, 40000),
                                       np.geomspace(1.0, 20.0, 50))
        assert scaled.t0_scaled is not None
    ok = all(v is not None for v in t0_values.values())
    _line(9, ok, "reported t0 per family: "
          + ", ".join(f"{k}={v:.3g}" for k, v in t0_values.items()))
    assert ok
