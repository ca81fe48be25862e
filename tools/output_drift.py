"""Output drift between two source trees: python3 tools/output_drift.py OLD_SRC NEW_SRC [WORK]

Runs every scenario of bench/scenarios.py once per tree, each in its own interpreter, into WORK/old
and WORK/new.  For each output file, stdout.txt and exit.txt it prints ``identical``, the change of
exit code, or the largest relative drift of each numeric column (constants.json key) that moved,
and ends with the tally ``<k> of <n> identical``.  Exits 1 when any file, stdout or exit code differs, so 0 means byte identity."""
import contextlib, csv, io, json, math, os, subprocess, sys, tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from scenarios import VARIANTS, WORKLOADS, scenarios  # noqa: E402


def run_all(root: Path) -> None:
    from discinterp.harness import run_scenario
    for name, config in sorted(dict(kv for w in WORKLOADS for v in range(VARIANTS) for kv in scenarios(w, v)).items()):
        out, printed = root / name.replace("/", "_"), io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = run_scenario(config, str(out))
        out.mkdir(parents=True, exist_ok=True)
        (out / "stdout.txt").write_text(printed.getvalue())
        (out / "exit.txt").write_text(f"{code}\n")


def columns(path: Path) -> dict:
    if path.suffix == ".json":
        return {k: [v] for k, v in json.loads(path.read_text()).items()}
    rows = list(csv.reader(path.read_text().splitlines()))
    return {col: [row[j] for row in rows[1:]] for j, col in enumerate(rows[0])}


def drift(a, b) -> float:
    x, y = float(a), float(b)
    same = x == y or math.isnan(x) and math.isnan(y)
    return 0.0 if same else abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def compare(a: Path, b: Path) -> str:
    if not (a.exists() and b.exists()) or a.read_bytes() == b.read_bytes():
        return "identical" if a.exists() == b.exists() else "present in one tree only"
    if a.suffix == ".txt":
        return "differs" if a.name == "stdout.txt" else f"{a.read_text().strip()} -> {b.read_text().strip()}"
    ca, cb, out = columns(a), columns(b), []
    for col in sorted(c for c in set(ca) | set(cb) if ca.get(c) != cb.get(c)):
        try:
            out.append(f"{col} {max(drift(x, y) for x, y in zip(ca[col], cb[col], strict=True)):.2g}")
        except (KeyError, TypeError, ValueError):
            out.append(f"{col} rows or text differ")
    return "; ".join(out)


def report(work: Path) -> int:
    """Print the comparison of each file of WORK/old and WORK/new and the tally; 1 if any differs."""
    results = []
    for scn in sorted(p.name for p in (work / "old").iterdir()):
        for name in sorted({p.name for d in ("old", "new") for p in (work / d / scn).iterdir()}):
            result = compare(work / "old" / scn / name, work / "new" / scn / name)
            results.append(result)
            print(f"{scn}/{name}: {result}")
    same = results.count("identical")
    print(f"{same} of {len(results)} identical")
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    if sys.argv[1] == "--run":
        sys.exit(run_all(Path(sys.argv[2])))
    work = Path(sys.argv[3] if len(sys.argv) > 3 else tempfile.mkdtemp())
    for tag, src in (("old", sys.argv[1]), ("new", sys.argv[2])):
        subprocess.run([sys.executable, __file__, "--run", str(work / tag)], check=True,
                       env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
    sys.exit(report(work))
