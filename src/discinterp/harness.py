"""Scenario configs, seeded generators, and CSV/JSON emission.

A scenario is a JSON object selecting a task, a node-sequence source, a
growth function, optional targets, and grid sizes.  Runs are bit
reproducible: identical config plus seed yields byte-identical CSV output.
The seeded draws come from the library's own PCG64 stream (``geometry._Pcg64``),
which equals numpy's ``default_rng(seed).uniform`` today.
Exit codes are scriptable: 0 pass, 2 config error, 3 hard-invariant failure,
4 numeric failure outside the log-only paths (an array too large to allocate
included); exits 2 and 4 write no output.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counting import (
    carleson_delta,
    check_concentration,
    check_korenblum_sum,
    concentration_korenblum_comparison,
    counting_sandwich_check,
    separation,
)
from .geometry import DiscSequence, GeometryError, _Pcg64
from .growth import GrowthError, GrowthFunction
from .interpolation import (
    InterpolationError,
    LadderError,
    build_interpolant,
    growth_report,
)
from .oscillation import (
    OscillationError,
    build_coefficient,
    sharpness_counting_check,
    sharpness_growth_witness,
    sharpness_sequence,
)
from .products import CanonicalProduct, ProductsError, prime_counting_criteria_check

__all__ = [
    "ConfigError",
    "Scenario",
    "generate_sequence",
    "generate_targets",
    "run_scenario",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_INVARIANT",
    "EXIT_NUMERIC",
    "TASKS",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NUMERIC = 4

TASKS = ("check", "interpolate", "oscillate", "sharpness", "growth-curve")

IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-6
WINDING_TOL = 1e-3

# 500 times the default; about 20 s of residual at the shipped oscillate config
MAX_RESIDUAL_SAMPLES = 100_000


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read(spec: dict, key: str, convert, default=None):
    """convert(spec[key]), or convert(default) when key is absent and default is given.

    A missing key, a boolean or a value that convert rejects is a ConfigError.
    The numerics run outside this call, so a ValueError they raise is never
    reported as a config error.
    """
    if key not in spec and default is None:
        raise ConfigError(f"field {key!r} is required")
    value = spec.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not accepted")
        return convert(value)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {key!r}: cannot read {value!r} ({exc})") from exc


def _non_finite(values) -> str:
    return f"{np.count_nonzero(~np.isfinite(values))} of {len(values)}"


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("must be a number")
    return float(value)


def _floats(values) -> tuple:
    return tuple(_number(v) for v in values)


def _positive(value) -> float:
    x = _number(value)
    if not (math.isfinite(x) and x > 0):
        raise ValueError("must be finite and positive")
    return x


def _nonnegative(value) -> float:
    x = _number(value)
    if not (math.isfinite(x) and x >= 0):
        raise ValueError("must be finite and nonnegative")
    return x


def _integer(value) -> int:
    n = int(value)
    if n != value:
        raise ValueError("must be an integer")
    return n


def _count(value) -> int:
    n = _integer(value)
    if n < 1:
        raise ValueError("must be at least 1")
    return n


def _seed(value) -> int:
    n = _integer(value)
    if n < 0:
        raise ValueError("must be nonnegative")
    return n


def _points(pairs) -> list[complex]:
    pts = [complex(_number(p[0]), _number(p[1])) for p in pairs]
    if not np.isfinite(pts).all():
        raise ValueError("values must be finite")
    return pts


def _sharpness_spec(spec: dict) -> tuple[float, int]:
    return _read(spec, "rho", _positive), _read(spec, "n_max", _count)


def _object(data: dict, key: str, shorthand: Optional[str]) -> Optional[dict]:
    """A copy of object data[key], a list as {"kind": "explicit", shorthand: list}, or None."""
    if key not in data:
        return None
    value = data[key]
    if isinstance(value, list) and shorthand:
        return {"kind": "explicit", shorthand: value}
    if not isinstance(value, dict):
        kinds = "an object or a point list" if shorthand else "an object"
        raise ConfigError(f"field {key!r}: expected {kinds}, got {value!r}")
    return dict(value)


@dataclass
class Scenario:
    task: str
    sequence_spec: dict
    gf: Optional[GrowthFunction]
    targets_spec: Optional[dict]
    C0: float
    seed: int
    r_grid: tuple
    theta_count: int
    residual_samples: int
    eps0: Optional[float]

    @classmethod
    def from_dict(cls, data: dict, task: Optional[str]) -> "Scenario":
        """The scenario of a config object; a given task overrides its 'task' field.

        The run-setting defaults live here; the library takes every setting explicitly.
        """
        if not isinstance(data, dict):
            raise ConfigError("scenario config must be a JSON object")
        chosen = task or data.get("task")
        if chosen not in TASKS:
            raise ConfigError(f"field 'task': expected one of {TASKS}, got {chosen!r}")
        seq_spec = _object(data, "sequence", "points")
        if seq_spec is None:
            raise ConfigError("field 'sequence': a generator object or point list is required")
        growth = _object(data, "growth", None)
        if growth is None and chosen != "sharpness":
            raise ConfigError("field 'growth': an object {family, param} is required")
        r_grid = _read(data, "r_grid", _floats, (0.5, 0.9, 0.99, 0.999))
        for r in r_grid:
            if not 0 < r < 1:
                raise ConfigError(f"field 'r_grid': radii must lie in (0,1), got {r}")
        theta = _read(data, "theta_count", _integer, 256)
        if theta < 8:
            raise ConfigError("field 'theta_count': need at least 8 angles")
        samples = _read(data, "residual_samples", _integer, 200)
        if not 1 <= samples <= MAX_RESIDUAL_SAMPLES:
            raise ConfigError(f"field 'residual_samples': need 1 to {MAX_RESIDUAL_SAMPLES}")
        c0 = _read(data, "C0", _number, 8.0)
        if not (math.isfinite(c0) and c0 >= 2):
            raise ConfigError("field 'C0': must be finite and at least 2")
        return cls(
            task=chosen,
            sequence_spec=seq_spec,
            gf=None if growth is None else GrowthFunction(_read(growth, "family", str),
                                                          _read(growth, "param", _number)),
            targets_spec=_object(data, "targets", "values"),
            C0=c0,
            seed=_read(data, "seed", _seed, 0),
            r_grid=r_grid,
            theta_count=theta,
            residual_samples=samples,
            eps0=_read(data, "eps0", _nonnegative) if data.get("eps0") is not None else None,
        )


def generate_sequence(spec: dict, seed: int) -> DiscSequence:
    """Deterministic node-sequence generator.

    Kinds: ``explicit`` (points [[re, im], ...]), ``radial`` (real radii on
    one ray), ``perturbed_lattice`` (rings at geometric boundary distances
    with jittered, pseudohyperbolically quasi-equal angular gaps) and
    ``sharpness_pairs`` (the paired dyadic sequence, representable part).
    """
    kind = _read(spec, "kind", str)
    try:
        if kind == "explicit":
            return DiscSequence(_read(spec, "points", _points))
        if kind == "radial":
            radii = _read(spec, "radii", _floats)
            theta = _read(spec, "theta", _number, 0.0)
            return DiscSequence([r * np.exp(1j * theta) for r in radii])
        if kind == "perturbed_lattice":
            rings = _read(spec, "rings", _integer, 4)
            q = _read(spec, "q", _number, 0.6)
            spread = _read(spec, "spread", _positive, 0.5)
            jitter = _read(spec, "jitter", _number, 0.1)
            r0 = _read(spec, "r0", _number, 0.4)
            max_points = _read(spec, "max_points", _count, 60)
            if not (0 < q < 1 and 0 < r0 < 1):
                raise ConfigError("perturbed_lattice needs 0 < q < 1 and 0 < r0 < 1")
            pts: list[complex] = []
            one_minus = 1.0 - r0
            rng = _Pcg64(seed)
            # the draws are sequential, so stopping at max_points keeps the same prefix
            for _ in range(rings):
                if len(pts) == max_points:
                    break
                r = 1.0 - one_minus
                count = max(3, int(round(spread * math.pi * r / one_minus)))
                base = rng.uniform(0.0, 2.0 * math.pi)
                for j in range(min(count, max_points - len(pts))):
                    ang = base + 2.0 * math.pi * (j + jitter * rng.uniform(-0.5, 0.5)) / count
                    pts.append(r * np.exp(1j * ang))
                one_minus *= q
            return DiscSequence(pts)
        if kind == "sharpness_pairs":
            return sharpness_sequence(*_sharpness_spec(spec)).to_disc_sequence()
    except GeometryError as exc:
        raise ConfigError(f"generated sequence is invalid: {exc}") from exc
    raise ConfigError(f"unknown sequence kind {kind!r}")


def generate_targets(spec: Optional[dict], seq: DiscSequence, gf: GrowthFunction,
                     seed: int) -> np.ndarray:
    """Explicit targets, or random admissible ones below a given constant."""
    if spec is None:
        spec = {"kind": "random_admissible", "constant": 1.0}
    kind = spec.get("kind")
    if kind == "explicit":
        vals = _read(spec, "values", _points)
        if len(vals) != len(seq):
            raise ConfigError(
                f"targets: expected {len(seq)} values, got {len(vals)}"
            )
        return np.asarray(vals, dtype=complex)
    if kind == "random_admissible":
        constant = _read(spec, "constant", _positive, 1.0)
        rng = _Pcg64(seed + 1)
        tilde = gf.psi_tilde(1.0 / (1.0 - seq.moduli))
        scale = rng.uniforms(0.2, 0.9, len(seq)) * constant
        log_abs = np.minimum(scale * tilde, 600.0)
        phases = rng.uniforms(0.0, 2.0 * math.pi, len(seq))
        return np.exp(log_abs + 1j * phases)
    raise ConfigError(f"unknown targets kind {kind!r}")


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _growth_rows(table) -> list[list[str]]:
    return [
        [_fmt(row.r), _fmt(row.ln_max_modulus), _fmt(row.psi_tilde),
         "" if math.isnan(row.ratio) else _fmt(row.ratio)]
        for row in table.rows
    ]


def _task_check(scn: Scenario, seq: DiscSequence, gf: GrowthFunction, out: dict) -> int:
    conc = check_concentration(seq, gf)
    kore = check_korenblum_sum(seq, gf)
    carleson = carleson_delta(seq)
    rows = [
        ["concentration", _fmt(conc.best_constant), str(conc.witness_index)],
        ["korenblum_sum", _fmt(kore.best_constant), str(kore.witness_index)],
        ["carleson_delta", _fmt(carleson), ""],
    ]
    constants = {
        "concentration": conc.best_constant,
        "korenblum_sum": kore.best_constant,
        "carleson_delta": carleson,
    }
    if len(seq) >= 2:
        sep = separation(seq)
        rows.append(["separation", _fmt(sep), ""])
        constants["separation"] = sep
    comp = concentration_korenblum_comparison(seq, conc, kore)
    rows.append(["korenblum_vs_concentration", _fmt(comp.pointwise_max), ""])
    constants["comparison_pointwise_max"] = comp.pointwise_max
    constants["comparison_lower_ok"] = comp.lower_ok
    rng = _Pcg64(scn.seed + 17)
    grid = 0.92 * np.sqrt(rng.uniforms(0.0, 1.0, 32)) * np.exp(
        2j * math.pi * rng.uniforms(0.0, 1.0, 32))
    sandwich = counting_sandwich_check(seq, gf, conc, z_points=grid)
    rows.append(["count_bound", _fmt(sandwich.n_bound.best_constant),
                 str(sandwich.n_bound.witness_index)])
    constants["count_bound"] = sandwich.n_bound.best_constant
    constants["sandwich_ok"] = sandwich.sandwich_ok
    cp = CanonicalProduct(seq, gf.genus)
    prime = prime_counting_criteria_check(cp, gf)
    rows.append(["ln_prime_bound", _fmt(prime.ln_prime_constant), ""])
    constants["ln_prime_bound"] = prime.ln_prime_constant
    constants["class_R_member"] = prime.class_R_member
    # a universal inequality, checked on a small deterministic grid: 8 angles on 3 circles
    circles = np.multiply.outer((0.3, 0.6, 0.9), np.exp(2j * math.pi * np.arange(8) / 8))
    tsuji_ok = cp.tsuji_bound_check(circles.ravel()).holds
    constants["tsuji_ok"] = tsuji_ok
    out["csv"]["conditions.csv"] = (["condition", "best_constant", "witness"], rows)
    out["constants"].update(constants)
    if not (comp.lower_ok and comp.upper_ok and sandwich.sandwich_ok and tsuji_ok):
        return EXIT_INVARIANT
    if not all(math.isfinite(v) for v in (conc.best_constant, kore.best_constant)):
        raise OverflowError("concentration or korenblum constant is not finite")
    return EXIT_OK


def _task_interpolate(scn: Scenario, seq: DiscSequence, gf: GrowthFunction, out: dict) -> int:
    targets = generate_targets(scn.targets_spec, seq, gf, scn.seed)
    interp = build_interpolant(CanonicalProduct(seq, gf.genus), targets, gf, scn.C0)
    concentration = check_concentration(seq, gf)
    errs = interp.interpolation_errors()
    f_vals = interp.eval_many(seq.values)
    rows = [
        [str(k), _fmt(z.real), _fmt(z.imag), _fmt(b.real), _fmt(b.imag),
         _fmt(f.real), _fmt(f.imag), _fmt(e)]
        for k, (z, b, f, e) in enumerate(zip(seq.values, targets, f_vals, errs))
    ]
    out["csv"]["identity.csv"] = (
        ["k", "z_re", "z_im", "b_re", "b_im", "f_re", "f_im", "rel_err"], rows
    )
    rows_g = _growth_rows(growth_report(interp, scn.r_grid, scn.theta_count))
    out["csv"]["growth.csv"] = (["r", "ln_max_modulus", "psi_tilde", "ratio"], rows_g)
    max_err = float(errs.max())
    out["constants"].update({
        "max_identity_error": max_err,
        "admissibility_constant": interp.targets.admissibility_constant,
        "concentration": concentration.best_constant,
    })
    if not np.all(np.isfinite(errs)):
        raise InterpolationError(f"identity error is not finite at {_non_finite(errs)} nodes")
    if max_err >= IDENTITY_TOL:
        return EXIT_INVARIANT
    return EXIT_OK


def _task_oscillate(scn: Scenario, seq: DiscSequence, gf: GrowthFunction, out: dict) -> int:
    sol = build_coefficient(seq, gf, scn.C0)
    residual = sol.residual_report(scn.residual_samples, scn.seed)
    rows = [
        [_fmt(z.real), _fmt(z.imag), _fmt(res)]
        for z, res in zip(residual.points, residual.residuals)
    ]
    out["csv"]["residual.csv"] = (["z_re", "z_im", "residual"], rows)
    counts = sol.zero_counts()
    rows_z = [[str(k), _fmt(c)] for k, c in enumerate(counts)]
    out["csv"]["zeros.csv"] = (["k", "winding"], rows_z)
    table = sol.growth_a_report(scn.r_grid, scn.theta_count)
    out["csv"]["growth_a.csv"] = (["r", "ln_max_modulus", "psi_tilde", "ratio"],
                                  _growth_rows(table))
    max_winding_defect = float(np.max(np.abs(counts - 1.0)))
    out["constants"].update({
        "max_residual": residual.max_residual,
        "max_winding_defect": max_winding_defect,
    })
    if not np.all(np.isfinite(residual.residuals)):
        raise OscillationError(
            f"ODE residual is not finite at {_non_finite(residual.residuals)} samples")
    if not np.all(np.isfinite(counts)):
        raise OscillationError(f"winding count is not finite on {_non_finite(counts)} circles")
    if residual.max_residual >= RESIDUAL_TOL:
        return EXIT_INVARIANT
    if max_winding_defect > WINDING_TOL:
        return EXIT_INVARIANT
    return EXIT_OK


def _task_sharpness(scn: Scenario, out: dict) -> int:
    spec = scn.sequence_spec
    if spec.get("kind") != "sharpness_pairs":
        raise ConfigError("sharpness task needs a sharpness_pairs sequence")
    rho, n_max = _sharpness_spec(spec)
    seq = sharpness_sequence(rho, n_max)
    rows = [
        [str(r.n), _fmt(r.N_value), _fmt(r.target), _fmt(r.ratio)]
        for r in sharpness_counting_check(seq)
    ]
    out["csv"]["sharpness.csv"] = (["n", "N_value", "target", "ratio"], rows)
    out["constants"]["rho"] = rho
    out["constants"]["final_ratio"] = float(rows[-1][3])
    if scn.eps0 is not None:
        witness = sharpness_growth_witness(seq, scn.eps0)
        rows_w = [[str(n), _fmt(lo), _fmt(up)] for n, lo, up in witness.rows]
        out["csv"]["witness.csv"] = (["n", "lower", "upper"], rows_w)
        out["constants"]["crossing_index"] = witness.crossing_index
    return EXIT_OK


def run_scenario(config, out_dir: str, task: Optional[str] = None,
                 seed: Optional[int] = None) -> int:
    """Run one scenario and write its artifacts; returns the exit code."""
    try:
        if isinstance(config, (str, os.PathLike)):
            try:
                with open(config, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config is not valid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}"
                ) from exc
        else:
            data = config
        scn = Scenario.from_dict(data, task=task)
        if seed is not None:
            scn.seed = _read({"seed": seed}, "seed", _seed)
        out: dict = {"csv": {}, "constants": {"task": scn.task, "seed": scn.seed}}
        if scn.task == "sharpness":
            code = _task_sharpness(scn, out)
        else:
            seq = generate_sequence(scn.sequence_spec, scn.seed)
            if len(seq) == 0:
                raise ConfigError("generated sequence is empty")
            if scn.task == "check":
                code = _task_check(scn, seq, scn.gf, out)
            elif scn.task in ("interpolate", "growth-curve"):
                if scn.task == "growth-curve":  # a denser grid: also 1 - 2^-j, j = 1..9
                    scn.r_grid = tuple(sorted(set(scn.r_grid)
                                              | {1.0 - 2.0 ** -j for j in range(1, 10)}))
                code = _task_interpolate(scn, seq, scn.gf, out)
            else:
                code = _task_oscillate(scn, seq, scn.gf, out)
    except (ConfigError, GrowthError, GeometryError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except (OverflowError, MemoryError, LadderError, InterpolationError,
            ProductsError, OscillationError) as exc:
        print(f"numeric failure: {exc}")
        return EXIT_NUMERIC

    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in out["csv"].items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    with open(os.path.join(out_dir, "constants.json"), "w", encoding="utf-8") as fh:
        json.dump(out["constants"], fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"task {scn.task}: exit {code}")
    width = max((len(k) for k in out["constants"]), default=10)
    for key in sorted(out["constants"]):
        print(f"  {key:<{width}}  {out['constants'][key]}")
    return code
