"""Tests of the scripts under tools/ and of what they measure: page faults and fuzzed configs."""

import importlib.util
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_fuzz_configs_prints_one_tally_line():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "fuzz_configs.py"), "--seed", "0", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=600, check=True)
    assert re.fullmatch(r"seed 0: \d+ configs; exit \d \d+ \(.*\); 0 problems\n", proc.stdout)


def test_fuzz_slice_of_accepted_configs(tmp_path):
    # 40 small configs of seed 0, each run twice: no exception escapes
    # run_scenario, the exit code is 0, 2, 3 or 4, a run that exits 2 or 4
    # writes no output, and the second run gives the same bytes
    spec = importlib.util.spec_from_file_location("fuzz_configs", TOOLS / "fuzz_configs.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    rng, codes = np.random.default_rng(0), set()
    for k in range(40):
        config = fuzz.draw_config(rng, max_nodes=16)
        code, message, problems = fuzz.check(config, tmp_path / str(k))
        assert problems == [], (config, message)
        codes.add(code)
    assert {0, 3, 4} <= codes


GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                           reason="the fault count follows glibc's heap trimming")


@GLIBC
def test_warm_boundary_pass_takes_few_page_faults():
    # each column-block pass first frees a buffer larger than what a block
    # allocates, so glibc does not trim the heap top after a block for the
    # next to fault back in (that took about 28,000 faults per warm pass)
    assert int(fault_count("boundary-interp")["faults"]) < 2000


@GLIBC
def test_warm_configs_pass_takes_few_page_faults():
    # without the freed buffer, about 6,000 to 7,600 faults per warm pass
    assert int(fault_count("configs")["faults"]) < 2000


# a cold and a warm run of the shipped oscillate config at rings 7 (N = 139);
# prints the warm run's minor faults
OSCILLATE_WARM = """
import contextlib, io, json, resource, sys, tempfile
from discinterp.harness import generate_sequence, run_scenario
config = json.load(open(sys.argv[1]))
config["sequence"].update(rings=7, max_points=1000)
assert len(generate_sequence(config["sequence"], config["seed"])) == 139
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    assert run_scenario(config, tmp + "/cold") == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run_scenario(config, tmp + "/warm") == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(faults)
"""


@GLIBC
def test_warm_oscillate_takes_few_page_faults():
    # the derivative blocks of the winding circles and the residual samples
    # are covered by the same freed buffer as the value blocks (about 6,000
    # faults when only the value blocks were, 167,000 with no buffer)
    root = TOOLS.parent
    proc = subprocess.run(
        [sys.executable, "-c", OSCILLATE_WARM, str(root / "configs" / "oscillate.json")],
        capture_output=True, text=True, timeout=600, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert int(proc.stdout) < 2000
