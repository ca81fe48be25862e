"""Page faults per pass of a benchmark workload: python3 tools/fault_count.py --workload W [--passes N]

Runs the scenario list of bench/scenarios.py (seed 0) pass after pass in this one process, with the
package from this checkout's src/, and only reads the scenarios.  After 2 warm passes it measures N
passes (default 5) and prints one line: minor page faults per pass (``ru_minflt`` of this process),
wall seconds per pass and the peak resident memory of this process in MB (``ru_maxrss``), since
memory kept for reuse trades faults for resident memory.  Allocation changes move pass times
through page faults, which the benchmark does not report, so compare the line before and after
such a change, on one host."""
import argparse, contextlib, io, resource, sys, tempfile, time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
from discinterp.harness import run_scenario  # noqa: E402
from scenarios import WORKLOADS, scenarios  # noqa: E402

WARM_PASSES = 2


def run_pass(scns, out: Path) -> None:
    for name, config in scns:
        with contextlib.redirect_stdout(io.StringIO()):
            run_scenario(config, str(out / name.replace("/", "_")))


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--passes", type=int, default=5)
    args = p.parse_args()
    if args.passes < 1:
        p.error("--passes must be at least 1")
    scns = scenarios(args.workload, 0)
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(WARM_PASSES):
            run_pass(scns, Path(tmp))
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        for _ in range(args.passes):
            run_pass(scns, Path(tmp))
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload}: {args.passes} passes, {faults / args.passes:.0f} minor faults/pass, "
          f"{seconds / args.passes:.3f} s/pass, {peak_mb:.1f} MB peak RSS")
