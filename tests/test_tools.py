"""Tests of the scripts under tools/ and of what they measure: page faults and fuzzed configs."""

import collections
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import MALFORMED_FIELDS

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
    # a fixed count, not a time limit, so the configs it checks do not depend
    # on the host's speed
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "fuzz_configs.py"), "--seed", "0", "--configs", "30"],
        capture_output=True, text=True, timeout=600, check=True)
    assert re.fullmatch(r"seed 0: 30 configs; exit \d \d+ \(.*\); 0 problems\n", proc.stdout)


def tool(name: str):
    """The module of tools/<name>.py, loaded without running its command line."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fuzz_slice_of_accepted_configs(tmp_path):
    # 40 small configs of seed 0, each run twice: no exception escapes
    # run_scenario, the exit code is 0, 2, 3 or 4, a run that exits 2 or 4
    # writes no output, an interpolate, growth-curve or oscillate run exits
    # with the code its identity, residual and winding gates give from the
    # constants.json it wrote, and the second run gives the same bytes.  The
    # non-finite values behind exits 3 and 4 raise no RuntimeWarning: each
    # line that meets them says so with np.errstate
    fuzz = tool("fuzz_configs")
    rng, codes, gated = np.random.default_rng(0), set(), collections.Counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in range(40):
            config = fuzz.draw_config(rng, max_nodes=16)
            code, message, problems = fuzz.check(config, tmp_path / str(k))
            assert problems == [], (config, message)
            codes.add(code)
            written = tmp_path / str(k) / "first" / "constants.json"
            if written.exists() and fuzz.gate_exit(json.loads(written.read_text())) is not None:
                gated[code] += 1
    assert {0, 3, 4} <= codes
    assert gated[0] >= 5 and gated[3] >= 1, gated
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_fuzz_slice_with_one_malformed_field(tmp_path):
    # the first 20 configs of seed 0, each with one field replaced by a
    # malformed value (the cases in turn): every run exits 2 with a config
    # error and no output, and no exception escapes
    fuzz, rng, cases = tool("fuzz_configs"), np.random.default_rng(0), list(MALFORMED_FIELDS.values())
    for k in range(20):
        config = {**fuzz.draw_config(rng), **cases[k % len(cases)]}
        code, message, problems = fuzz.check(config, tmp_path / str(k))
        assert (code, problems) == (2, []), (config, message)
        assert message.startswith("config error: "), (config, message)


def test_bench_pairs_statistics_on_fixed_numbers():
    # quartiles interpolate linearly between order statistics; a claim needs
    # at least 9 wins in 10 pairs (ties count for neither) and a median gap
    # above the old side's interquartile range
    bench_pairs = tool("bench_pairs")
    old = [float(v) for v in range(10, 20)]  # quartiles 12.25, 14.5, 16.75: IQR 4.5
    s = bench_pairs.summarize(old, [v - 5 for v in old], "lower")
    assert (s["old"], s["new"]) == ((12.25, 14.5, 16.75), (7.25, 9.5, 11.75))
    assert (s["wins"], s["ties"], s["pairs"], s["claim"]) == (10, 0, 10, True)
    assert s["change"] == pytest.approx(-5 / 14.5)
    # a gap of 4.5 is not above the IQR, however many pairs it wins
    assert not bench_pairs.summarize(old, [v - 4.5 for v in old], "lower")["claim"]
    # 8 wins, a tie and a loss is below nine tenths; 9 wins and a tie is not
    eight = bench_pairs.summarize(old, [v - 5 for v in old[:8]] + [old[8], old[9] + 1], "lower")
    assert (eight["wins"], eight["ties"], eight["claim"]) == (8, 1, False)
    nine = bench_pairs.summarize(old, [v - 5 for v in old[:9]] + [old[9]], "lower")
    assert (nine["wins"], nine["ties"], nine["claim"]) == (9, 1, True)
    # for a higher-is-better metric the lower median is the loss
    assert bench_pairs.summarize(old, [v + 5 for v in old], "higher")["claim"]
    assert bench_pairs.summarize(old, [v - 5 for v in old], "higher")["wins"] == 0
    assert bench_pairs.line("solve_s", "s", "lower", s) == (
        "solve_s (s, lower is better): old 14.5000 [12.2500, 16.7500], new 9.5000 [7.2500, "
        "11.7500], median -34.5%; new better in 10/10 pairs, 0 ties; claim rule holds")


def test_output_drift_on_fixed_files(tmp_path, capsys):
    # two trees of one scenario: a CSV with a moved column, a constants.json
    # with a moved key and a new text value, an exit-code change, a file in
    # one tree only, and identical bytes; then the same trees made equal.
    # Each source tree's line count (every *.py below it, nested ones too,
    # a last line without a newline not counted, as wc -l does) comes before the tally.
    drift = tool("output_drift")
    sources = {"old": tmp_path / "src_old", "new": tmp_path / "src_new"}
    for src, texts in zip(sources.values(), (("a\nb\n", "c\n"), ("a\n", "b\nc\nd"))):
        (src / "pkg" / "sub").mkdir(parents=True)
        (src / "pkg" / "m.py").write_text(texts[0])
        (src / "pkg" / "sub" / "n.py").write_text(texts[1])
        (src / "pkg" / "notes.txt").write_text("not\ncounted\n")
    assert drift.line_count(sources["old"]) == 3 and drift.line_count(sources["new"]) == 3
    (sources["new"] / "top.py").write_text("x = 1\n" * 4)
    assert drift.drift("2.0", "2.0") == 0.0 and drift.drift("nan", "nan") == 0.0
    assert drift.drift("2.0", "2.5") == pytest.approx(0.2)
    assert drift.drift("-1e300", "1e300") == 2.0 and drift.drift("1.0", "inf") == math.inf
    old, new = tmp_path / "old" / "scn", tmp_path / "new" / "scn"
    files = {
        "growth.csv": ("r,ln_M,note\n0.5,1.0,a\n0.9,4.0,b\n", "r,ln_M,note\n0.5,1.0,a\n0.9,5.0,b\n"),
        "constants.json": ('{"C": 2.0, "gate": "pass", "n": 3}', '{"C": 3.0, "gate": "fail", "n": 3}'),
        "exit.txt": ("0\n", "3\n"),
        "stdout.txt": ("ok\n", "ok\n"),
    }
    for d in (old, new):
        d.mkdir(parents=True)
    for name, (a, b) in files.items():
        (old / name).write_text(a)
        (new / name).write_text(b)
    (new / "extra.csv").write_text("x\n1\n")
    assert drift.compare(old / "growth.csv", new / "growth.csv") == "ln_M 0.2"
    assert drift.compare(old / "constants.json", new / "constants.json") == (
        "C 0.33; gate rows or text differ")
    assert drift.report(tmp_path, sources) == 1
    assert capsys.readouterr().out.splitlines() == [
        "scn/constants.json: C 0.33; gate rows or text differ",
        "scn/exit.txt: 0 -> 3",
        "scn/extra.csv: present in one tree only",
        "scn/growth.csv: ln_M 0.2",
        "scn/stdout.txt: identical",
        "old src: 3 lines",
        "new src: 7 lines",
        "1 of 5 identical",
    ]
    (new / "extra.csv").unlink()
    for name, (a, _) in files.items():
        (new / name).write_text(a)
    assert drift.report(tmp_path, sources) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "old src: 3 lines", "new src: 7 lines", "4 of 4 identical"]


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
