"""Seeded fuzz of accepted configs: python3 tools/fuzz_configs.py --seed S [--seconds T] [--configs N]

Draws random scenario configs from a numpy generator seeded with S: the tasks interpolate, check,
growth-curve and oscillate; the three growth families across their domains (log_power with p = 0
included); perturbed lattices, golden-angle spirals down to 1 - |z| = 1e-7 and radial sets of at
most 60 nodes (14 for oscillate); C0 in [2, 20].  Each config runs twice through
``harness.run_scenario`` in this process, with the package from this checkout's src/, until T
seconds have passed or N configs have run, whichever comes first (at least one of the two is
required; N alone makes the run independent of the host's speed).  A run is a problem when an exception escapes, when its exit code is not 0, 2,
3 or 4, when it exits 2 or 4 and writes output, when its exit code is not the one the gates give
from the constants.json it wrote (``gate_exit``), or when the second run's output files or stdout
differ from the first's; each problem goes to stderr with its config.  Prints one tally line: the
runs per exit code, each with its messages (first stdout line, digits masked) by count, and the
problems; exits 1 when there is any."""
import argparse, collections, contextlib, io, json, math, re, sys, tempfile, time, traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from discinterp.harness import IDENTITY_TOL, RESIDUAL_TOL, WINDING_TOL, run_scenario  # noqa: E402

TASKS = ("interpolate", "check", "growth-curve", "oscillate")
EXIT_CODES = (0, 2, 3, 4)


def draw_growth(rng) -> dict:
    family = str(rng.choice(["power", "log_power", "exp_log_power"]))
    if family == "power":
        param = rng.uniform(0.05, 4.0)
    elif family == "log_power":
        param = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 4.0)
    else:
        param = rng.uniform(0.05, 0.95)
    return {"family": family, "param": float(param)}


def draw_sequence(rng, n: int) -> dict:
    kind = str(rng.choice(["perturbed_lattice", "spiral", "radial"]))
    if kind == "perturbed_lattice":
        return {"kind": kind, "rings": int(rng.integers(1, 7)), "q": rng.uniform(0.3, 0.9),
                "r0": rng.uniform(0.1, 0.9), "spread": rng.uniform(0.2, 1.5),
                "jitter": rng.uniform(0.0, 0.3), "max_points": n}
    depth = 10.0 ** rng.uniform(-7.0, -1.0)
    if kind == "radial":
        radii = np.sort(rng.uniform(0.0, 1.0 - depth, n))
        return {"kind": kind, "radii": radii.tolist(), "theta": rng.uniform(0.0, 2.0 * math.pi)}
    one_minus = 0.5 * (2.0 * depth) ** (np.arange(n) / max(n - 1, 1))
    z = (1.0 - one_minus) * np.exp(1j * math.pi * (3.0 - math.sqrt(5.0)) * np.arange(n))
    return {"kind": "explicit", "points": [[p.real, p.imag] for p in z]}


def draw_config(rng, max_nodes: int = 60) -> dict:
    """One accepted config; oscillate takes at most 14 nodes."""
    task = str(rng.choice(TASKS))
    n = int(rng.integers(1, (min(max_nodes, 14) if task == "oscillate" else max_nodes) + 1))
    return {"task": task, "sequence": draw_sequence(rng, n), "growth": draw_growth(rng),
            "targets": {"kind": "random_admissible", "constant": rng.uniform(0.5, 3.0)},
            "C0": rng.uniform(2.0, 20.0), "seed": int(rng.integers(0, 1000)),
            "r_grid": np.sort(rng.uniform(0.3, 0.999, int(rng.integers(1, 4)))).tolist(),
            "theta_count": int(rng.integers(8, 65)), "residual_samples": int(rng.integers(1, 33))}


def gate_exit(constants: dict):
    """0 or 3 from the gates of a written constants.json, None when it holds none of them.

    The gates are the harness's: identity error < IDENTITY_TOL, residual < RESIDUAL_TOL and
    winding defect <= WINDING_TOL; the check task is not covered, since its upper comparison is
    not written.
    """
    gates = {"max_identity_error": lambda v: v < IDENTITY_TOL,
             "max_residual": lambda v: v < RESIDUAL_TOL,
             "max_winding_defect": lambda v: v <= WINDING_TOL}
    present = [passes(constants[key]) for key, passes in gates.items() if key in constants]
    return (0 if all(present) else 3) if present else None


def run(config: dict, out: Path) -> tuple[int, str, dict]:
    """(exit code, stdout, {file name: bytes}) of one run into the directory out."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run_scenario(config, str(out))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, printed.getvalue(), files


def check(config: dict, root: Path) -> tuple[object, str, list[str]]:
    """(exit code, first stdout line, problems) of a config run twice under root."""
    try:
        first, second = run(config, root / "first"), run(config, root / "second")
    except Exception as exc:  # the fuzzer's finding: no exception may escape run_scenario
        return "exception", f"{type(exc).__name__}: {exc}", [f"exception escaped: {traceback.format_exc()}"]
    code, stdout, files = first
    problems = []
    if code not in EXIT_CODES:
        problems.append(f"exit code {code!r}")
    if code in (2, 4) and files:
        problems.append(f"exit {code} wrote {sorted(files)}")
    gated = gate_exit(json.loads(files["constants.json"])) if "constants.json" in files else None
    if code in (0, 3) and gated not in (None, code):
        problems.append(f"exit {code}, but the gates in constants.json give {gated}")
    if second != first:
        problems.append("second run differs")
    return code, stdout.partition("\n")[0], problems


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=math.inf)
    p.add_argument("--configs", type=int, default=math.inf)
    args = p.parse_args()
    if args.seconds == args.configs == math.inf:
        p.error("give --seconds, --configs or both")
    rng, tally, runs, n_problems = np.random.default_rng(args.seed), {}, 0, 0
    end = time.monotonic() + args.seconds
    with tempfile.TemporaryDirectory() as tmp:
        while runs < args.configs and time.monotonic() < end:
            config = draw_config(rng)
            code, message, problems = check(config, Path(tmp) / str(runs))
            runs += 1
            tally.setdefault(code, collections.Counter())[re.sub(r"\b\d[\d.e+-]*", "#", message)] += 1
            n_problems += len(problems)
            for problem in problems:
                print(f"{problem}: {json.dumps(config)}", file=sys.stderr)
    groups = "; ".join(f"exit {code} {sum(c.values())} ("
                       + ", ".join(f"{m} x{k}" for m, k in c.most_common()) + ")"
                       for code, c in sorted(tally.items(), key=lambda kv: str(kv[0])))
    print(f"seed {args.seed}: {runs} configs; {groups}; {n_problems} problems")
    sys.exit(1 if n_problems else 0)
