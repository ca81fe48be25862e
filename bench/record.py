"""Record the reference outputs of every scenario of every workload and variant.

    python3 bench/record.py

Run from the root of a checkout, only when the benchmark's scenarios change:
the references pin the outputs of the commit they were recorded at.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]
    from discinterp.harness import run_scenario
    from scenarios import VARIANTS, WORKLOADS, scenarios
    from verify import record, save_references

    out_root = os.path.join(ROOT, ".bench_out", "record")
    refs = {}
    try:
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                for name, config in scenarios(workload, variant):
                    if name in refs:
                        continue
                    out_dir = os.path.join(out_root, name.replace("/", "_"))
                    shutil.rmtree(out_dir, ignore_errors=True)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = run_scenario(config, out_dir)
                    refs[name] = record(out_dir, code)
                    print(f"{name}: exit {code}")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    save_references(refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
