"""Smoke tests for the scripts under tools/."""

import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
LINE = (r"(?P<workload>[\w-]+): 1 passes, (?P<faults>\d+) minor faults/pass, \d+\.\d{3} s/pass, "
        r"\d+\.\d MB peak RSS\n")


def fault_count(workload: str) -> re.Match:
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "fault_count.py"), "--workload", workload, "--passes", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    match = re.fullmatch(LINE, proc.stdout)
    assert match and match["workload"] == workload
    return match


def test_fault_count_prints_one_line_per_run():
    fault_count("configs")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count follows glibc's heap trimming")
def test_warm_boundary_pass_takes_few_page_faults():
    # each column-block pass keeps its matrices in one workspace, so glibc
    # does not trim the heap top after a block for the next to fault back in
    # (that took about 28,000 faults per warm pass)
    assert int(fault_count("boundary-interp")["faults"]) < 2000
