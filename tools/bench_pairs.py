"""Alternating benchmark pairs of two checkouts:
python3 tools/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N --seconds S [--seed K]

Runs ``bench/run.py --workload W --seed K --seconds S --trace 0`` N times in each checkout (seed K
defaults to 0), one run at a time and each in a fresh interpreter, alternating which side runs
first: the old one in even pairs, the new one in odd pairs.  For each end-to-end metric of this
checkout's BENCHMARK.json it prints one line: each side's median and quartiles (linear
interpolation, as numpy's default percentile), the change of the median, the pairs in which the
new side is better and the ties, and whether the claim rule holds: the new side better in at
least nine tenths of the pairs (ties count for neither) and its median better by more than the
old side's interquartile range.  A last line gives the failed and attempted scenario runs of each
side, since a gain does not count when more of them fail.  Exits 1 when a run does not report
``correct: true``."""
import argparse, json, statistics, subprocess, sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated linearly between order statistics."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(old: list, new: list, better: str) -> dict:
    """Paired statistics of one metric; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
    wins = sum(sign * (o - n) > 0 for o, n in zip(old, new, strict=True))
    ties = sum(o == n for o, n in zip(old, new))
    gain = sign * (omed - nmed)
    return {"old": (oq1, omed, oq3), "new": (nq1, nmed, nq3), "wins": wins, "ties": ties,
            "pairs": len(old), "change": (nmed - omed) / omed if omed else float("nan"),
            "claim": 10 * wins >= 9 * len(old) and gain > oq3 - oq1}


def line(name: str, unit: str, better: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]"
    return (f"{name} ({unit}, {better} is better): old {side(s['old'])}, new {side(s['new'])}, "
            f"median {s['change']:+.1%}; new better in {s['wins']}/{s['pairs']} pairs, "
            f"{s['ties']} ties; claim rule {'holds' if s['claim'] else 'does not hold'}")


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old_root", type=Path)
    p.add_argument("new_root", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {"old": [], "new": []}
    for i in range(args.pairs):
        for tag in ("old", "new") if i % 2 == 0 else ("new", "old"):
            root = args.old_root if tag == "old" else args.new_root
            results[tag].append(run(root, args.workload, args.seed, args.seconds))
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs")
    for m in metrics:
        old, new = ([r["metrics"][m["name"]]["value"] for r in results[t]] for t in ("old", "new"))
        print(line(m["name"], m["unit"], m["better"], summarize(old, new, m["better"])))
    print("failed/attempted: " + ", ".join(
        f"{t} {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
        for t, rs in results.items()))
    sys.exit(0 if all(r["correct"] for rs in results.values() for r in rs) else 1)
