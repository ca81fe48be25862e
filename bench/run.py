"""Benchmark for discinterp: time to a verified result, per workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload's scenario list (see
``scenarios.py``) is made from the seed and run pass after pass, one
scenario after another in this one process, each through
``discinterp.harness.run_scenario`` with the default ``threads=1``, until
``--seconds`` have gone by.  After every scenario run its outputs are checked
(``verify.py``); checking is not timed.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``solve_s``: median wall time of one pass over the scenario list;
* ``setup_s``: median, over five fresh interpreters started between passes,
  of the time from starting one to the first scenario being ready (imports
  and inputs);
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` passes alternate between untraced and traced, and the last
line reports the per-layer metrics of the traced passes (``tracing.py``)
together with ``trace.overhead_s``, the median traced pass minus the median
untraced pass.  The spans are written to ``.bench_out/``.

``attempted`` counts scenario runs and ``failed`` those that exited nonzero
or did not verify, so ``failed / attempted`` is the workload's error rate.
``correct`` is false when any run did not verify or a count did not repeat.
Expected at the commit that defined the benchmark: the power(1) run of
``boundary-interp`` exits 3 (see ``scenarios.py``), so a third of that
workload's runs fail while ``correct`` stays true.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
MIN_PASSES = 3

END_TO_END = (
    ("solve_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

TASK_METRICS = tuple(f"harness.task.{t}_s" for t in
                     ("check", "interpolate", "oscillate", "sharpness", "growth-curve"))
LAYER_COUNTS = (
    "products.log_E_cells", "interpolation.ladder_n_max", "interpolation.max_exponent",
    "interpolation.eval_points", "oscillation.eval_calls", "growth.psi_tilde_points",
    "counting.counting_N_calls", "counting.carleson_delta_calls",
)
LAYER_MAXIMA = ("interpolation.identity_err_max", "oscillation.max_residual")
LAYER_TIMES = (
    "products.build_s", "products.log_E_s", "products.logsumexp_s",
    "products.log_deriv_s", "products.tsuji_s",
    "interpolation.ladder_s", "interpolation.select_exponents_s",
    "interpolation.assemble_s", "interpolation.eval_s", "interpolation.growth_report_s",
    "growth.psi_tilde_s",
    "oscillation.build_coefficient_s", "oscillation.residual_report_s",
    "oscillation.zero_counts_s", "oscillation.growth_a_s", "oscillation.sharpness_s",
    "counting.check_concentration_s", "counting.korenblum_s", "counting.comparison_s",
    "counting.sandwich_s", "counting.carleson_separation_s",
    "geometry.sequence_s", "harness.self_s",
) + TASK_METRICS

PER_LAYER = (
    tuple((m, "s", "lower") for m in LAYER_TIMES)
    + tuple((m, "count", "lower") for m in LAYER_COUNTS)
    + (("products.log_E_cells_per_s", "1/s", "higher"),)
    + tuple((m, "ratio", "lower") for m in LAYER_MAXIMA)
    + (("error_rate", "ratio", "lower"), ("trace.overhead_s", "s", "lower"))
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    from scenarios import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _thread_cpu() -> dict:
    """CPU seconds used so far by each thread of this process (empty off Linux)."""
    ticks = os.sysconf("SC_CLK_TCK")
    out = {}
    with contextlib.suppress(OSError):
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            out[tid] = (int(fields[11]) + int(fields[12])) / ticks
    return out


def _cpu_snapshot() -> tuple:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return _thread_cpu(), children.ru_utime + children.ru_stime


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the first scenario being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}: {line!r}")
    return elapsed


class Bench:
    """One benchmark run: passes over a workload's scenarios, checked and timed."""

    def __init__(self, workload: str, seed: int, out_root: str):
        from discinterp.harness import run_scenario
        from scenarios import scenarios
        from verify import load_references

        self.run_scenario = run_scenario
        self.scenarios = scenarios(workload, seed)
        self.refs = load_references()
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # CPU seconds per thread and of child processes, and wall time, over all passes
        self.thread_cpu = {}
        self.child_cpu = 0.0
        self.wall = 0.0

    def run_pass(self, tracer=None) -> tuple:
        """Run every scenario once; (pass wall time, inclusive time per task)."""
        from verify import verify

        threads_before, children_before = _cpu_snapshot()
        total = 0.0
        per_task = {}
        for name, config in self.scenarios:
            out_dir = os.path.join(self.out_root, name.replace("/", "_"))
            shutil.rmtree(out_dir, ignore_errors=True)
            printed = io.StringIO()
            code, crash = None, None
            if tracer is not None:
                tracer.run_id += 1
            with contextlib.redirect_stdout(printed):
                start = time.perf_counter()
                if tracer is not None:
                    tracer.open("harness.run_scenario", "harness.self_s")
                try:
                    code = self.run_scenario(config, out_dir)
                except Exception:  # a traceback is a failed run, not a stop
                    crash = traceback.format_exc()
                finally:
                    if tracer is not None:
                        tracer.close()
                elapsed = time.perf_counter() - start
            total += elapsed
            task = config["task"]
            per_task[task] = per_task.get(task, 0.0) + elapsed
            self.attempted += 1
            if crash is not None:
                problems = ["raised:\n" + crash]
            else:
                problems = verify(task, out_dir, code, printed.getvalue(), self.refs.get(name))
            if problems:
                self.problems.append((name, problems))
            if problems or code != 0:
                self.failed += 1
        threads_after, children_after = _cpu_snapshot()
        for tid, cpu in threads_after.items():
            self.thread_cpu[tid] = self.thread_cpu.get(tid, 0.0) + cpu - threads_before.get(tid, 0.0)
        self.child_cpu += children_after - children_before
        self.wall += total
        return total, per_task

    def load(self, nproc: int) -> dict:
        """Where the CPU time of the passes went: which threads, and any child process."""
        total = sum(self.thread_cpu.values())
        busy = sum(1 for v in self.thread_cpu.values() if v > 0.01 * total)
        return {"threads": len(self.thread_cpu), "busy_threads": busy,
                "child_cpu_s": self.child_cpu,
                "cpu_per_wall": total / self.wall if self.wall > 0 else 0.0,
                "load_ok": busy <= nproc and self.child_cpu == 0.0}


def _layer_pass(tracer, per_task) -> dict:
    values = {m: 0.0 for m in LAYER_TIMES}
    values.update(tracer.self_s)
    for task, seconds in per_task.items():
        values[f"harness.task.{task}_s"] = seconds
    for m in LAYER_COUNTS:
        values[m] = tracer.counts.get(m, tracer.maxima.get(m, 0))
    for m in LAYER_MAXIMA:
        values[m] = tracer.maxima.get(m, 0.0)
    cells, busy = values["products.log_E_cells"], values["products.log_E_s"]
    values["products.log_E_cells_per_s"] = cells / busy if busy > 0 else 0.0
    return values


def _percentile_info(samples) -> dict:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    info = {"samples": len(s), "median": statistics.median(s), "all": samples}
    if len(s) > 10:
        info[f"p{100.0 * (len(s) - 10) / len(s):.1f}"] = s[len(s) - 11]
    return info


def measure(args, env: dict) -> dict:
    out_root = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    bench = Bench(args.workload, args.seed, out_root)
    untraced, traced, layers = [], [], []
    tracer = None
    if args.trace:
        from tracing import Tracer, instrument
        tracer = Tracer()
    need = (2, 2) if tracer else (MIN_PASSES, 0)  # (untraced, traced) passes at least
    setup = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            if tracer is not None and len(untraced) > len(traced):
                tracer.reset()
                with instrument(tracer):
                    wall, per_task = bench.run_pass(tracer)
                traced.append(wall)
                layers.append(_layer_pass(tracer, per_task))
            else:
                untraced.append(bench.run_pass()[0])
            if tracer is None and len(setup) < SETUP_PROBES:
                # spread over the run, between passes; not part of the measured seconds
                start = time.perf_counter()
                setup.append(setup_probe(args.workload, args.seed))
                deadline += time.perf_counter() - start
            if (len(untraced) >= need[0] and len(traced) >= need[1]
                    and time.perf_counter() >= deadline):
                break
        while tracer is None and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed))
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    env["load"] = bench.load(env["nproc"])
    print("env", json.dumps(env, sort_keys=True))
    print("solve_s", json.dumps(_percentile_info(untraced)))
    for name, problems in bench.problems[:5]:
        print(f"not verified: {name}: " + "; ".join(problems[:3]), file=sys.stderr)

    correct = not bench.problems
    if tracer is None:
        metrics = {
            "solve_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m: u for m, u, _ in END_TO_END}
    else:
        metrics = {}
        for m in LAYER_TIMES + ("products.log_E_cells_per_s",):
            metrics[m] = statistics.median(v[m] for v in layers)
        for m in LAYER_COUNTS + LAYER_MAXIMA:
            seen = {v[m] for v in layers}
            if len(seen) != 1:
                print(f"{m} did not repeat across traced passes: {sorted(seen)}",
                      file=sys.stderr)
                correct = False
            metrics[m] = layers[0][m]
        metrics["error_rate"] = bench.failed / bench.attempted
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = {m: u for m, u, _ in PER_LAYER}
        path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "fields": ["name", "start", "end", "parent", "run"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
        print("trace", os.path.relpath(path, ROOT), f"{len(tracer.spans)} spans",
              "traced solve_s", json.dumps(_percentile_info(traced)))
    return {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "discinterp", "__init__.py")):
        print(f"discinterp sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        import discinterp.harness  # noqa: F401  (the import is what is timed)
        from scenarios import scenarios
        scenarios(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = measure(args, environment())
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
