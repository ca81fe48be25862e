"""Smoke tests for the scripts under tools/."""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_fault_count_prints_one_line_per_run():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "fault_count.py"), "--workload", "configs", "--passes", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    assert re.fullmatch(r"configs: 1 passes, \d+ minor faults/pass, \d+\.\d{3} s/pass\n",
                        proc.stdout)
