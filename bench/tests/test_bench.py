"""Tests of the benchmark itself: inputs, verifier, tracer and declared metrics."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from discinterp import harness, products  # noqa: E402

# the metric names the benchmark was specified with
SPEC_END_TO_END = {"solve_s", "setup_s", "peak_rss_mb", "error_rate"}
SPEC_PER_LAYER = {
    "products.build_s", "products.log_E_s", "products.log_E_cells",
    "products.log_E_cells_per_s", "products.logsumexp_s", "products.log_deriv_s",
    "products.tsuji_s",
    "interpolation.ladder_s", "interpolation.ladder_n_max",
    "interpolation.select_exponents_s", "interpolation.max_exponent",
    "interpolation.assemble_s", "interpolation.eval_s", "interpolation.eval_points",
    "interpolation.growth_report_s", "interpolation.identity_err_max",
    "growth.psi_tilde_s", "growth.psi_tilde_points",
    "oscillation.build_coefficient_s", "oscillation.residual_report_s",
    "oscillation.zero_counts_s", "oscillation.growth_a_s", "oscillation.eval_calls",
    "oscillation.max_residual", "oscillation.sharpness_s",
    "counting.check_concentration_s", "counting.korenblum_s", "counting.comparison_s",
    "counting.sandwich_s", "counting.carleson_separation_s",
    "counting.counting_N_calls", "counting.carleson_delta_calls",
    "geometry.sequence_s", "harness.self_s",
} | {f"harness.task.{t}_s" for t in harness.TASKS}


def _run(name, out_dir):
    config = dict(scenarios.scenarios("configs", 0))[name]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = harness.run_scenario(config, str(out_dir))
    return config["task"], code, printed.getvalue()


@pytest.fixture(scope="module")
def refs():
    return verify.load_references()


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_scenarios_repeat_for_a_seed(workload):
    assert scenarios.scenarios(workload, 7) == scenarios.scenarios(workload, 7)
    names = [n for n, _ in scenarios.scenarios(workload, 7)]
    assert len(names) == len(set(names))


def test_seed_picks_the_input_variant():
    first = scenarios.scenarios("boundary-interp", 1)
    assert first == scenarios.scenarios("boundary-interp", 1 + scenarios.VARIANTS)
    second = scenarios.scenarios("boundary-interp", 2)
    assert [c["seed"] for _, c in first] != [c["seed"] for _, c in second]
    # the nodes, and so the work, are the same for every seed
    assert [c["sequence"] for _, c in first] == [c["sequence"] for _, c in second]


def test_lattice_inputs_repeat():
    (_, config), = scenarios.scenarios("lattice-interp", 2)
    a = harness.generate_sequence(config["sequence"], config["seed"]).values
    b = harness.generate_sequence(config["sequence"], config["seed"]).values
    assert len(a) == 761
    assert np.array_equal(a, b)


def test_every_scenario_has_a_reference(refs):
    for workload in scenarios.WORKLOADS:
        for v in range(scenarios.VARIANTS):
            for name, _ in scenarios.scenarios(workload, v):
                assert name in refs


def test_boundary_power_failure_is_recorded(refs):
    # the near-boundary identity failure of power(1) is the expected baseline
    for v in range(scenarios.VARIANTS):
        assert refs[f"boundary-power/v{v}"]["exit"] == 3
        assert refs[f"boundary-log_power/v{v}"]["exit"] == 0
        assert refs[f"boundary-exp_log_power/v{v}"]["exit"] == 0


# -- verifier ----------------------------------------------------------------


def _rewrite(path, row, col, fn):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    j = rows[0].index(col)
    rows[row][j] = fn(rows[row][j])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(r) + "\n" for r in rows))


@pytest.mark.parametrize("name", ["configs/check", "configs/interpolate", "configs/sharpness"])
def test_fresh_outputs_verify(tmp_path, refs, name):
    task, code, printed = _run(name, tmp_path)
    assert code == 0
    assert verify.verify(task, str(tmp_path), code, printed, refs[name]) == []


def test_last_digit_change_passes(tmp_path, refs):
    task, code, printed = _run("configs/check", tmp_path)
    _rewrite(tmp_path / "conditions.csv", 2, "best_constant",
             lambda x: repr(float(x) * (1 + 1e-14)))
    assert verify.verify(task, str(tmp_path), code, printed, refs["configs/check"]) == []


def test_perturbed_value_is_rejected(tmp_path, refs):
    task, code, printed = _run("configs/check", tmp_path)
    _rewrite(tmp_path / "conditions.csv", 2, "best_constant",
             lambda x: repr(float(x) * (1 + 1e-5)))
    problems = verify.verify(task, str(tmp_path), code, printed, refs["configs/check"])
    assert any("best_constant" in p for p in problems)


def test_perturbed_interpolant_value_is_rejected(tmp_path, refs):
    # f is checked through the identity error, which must agree with f and b
    task, code, printed = _run("configs/interpolate", tmp_path)
    _rewrite(tmp_path / "identity.csv", 5, "f_re", lambda x: repr(float(x) * (1 + 1e-6)))
    problems = verify.verify(task, str(tmp_path), code, printed, refs["configs/interpolate"])
    assert any("rel_err" in p for p in problems)


def test_wrong_exit_code_is_rejected(tmp_path, refs):
    task, code, printed = _run("configs/interpolate", tmp_path)
    problems = verify.verify(task, str(tmp_path), 3, printed.replace("exit 0", "exit 3"),
                             refs["configs/interpolate"])
    assert any("gates give 0" in p for p in problems)
    assert any("reference exit 0" in p for p in problems)
    problems = verify.verify(task, str(tmp_path), 3, printed, refs["configs/interpolate"])
    assert any("printed summary" in p for p in problems)


def test_missing_outputs_are_rejected(tmp_path, refs):
    problems = verify.verify("check", str(tmp_path / "none"), 0, "exit 0",
                             refs["configs/check"])
    assert problems


def test_gate_exit_follows_identity_error(tmp_path):
    task, _, _ = _run("configs/interpolate", tmp_path)
    outputs = verify.read_outputs(str(tmp_path))
    assert verify.gate_exit(task, outputs) == (0, [])
    rows = outputs["files"]["identity.csv"]
    j = rows[0].index("rel_err")
    rows[1][j] = "2e-8"
    outputs["constants"]["max_identity_error"] = 2e-8
    code, problems = verify.gate_exit(task, outputs)
    assert code == 3
    assert any("rel_err disagrees" in p for p in problems)


# -- tracer ------------------------------------------------------------------


def test_self_times_partition_the_root_span():
    tr = tracing.Tracer()
    tr.open("root", "a")
    tr.open("child", "b")
    tr.open("pass-through", None)
    tr.open("grandchild", "c")
    sum(range(10000))
    tr.close()
    tr.close()
    tr.close()
    root = tr.close()
    assert set(tr.self_s) == {"a", "b", "c"}
    assert sum(tr.self_s.values()) == pytest.approx(root, rel=1e-9)
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 2]


def test_instrument_restores_the_package():
    before = (products._log_E, harness.check_concentration, products.CanonicalProduct.__init__)
    with tracing.instrument(tracing.Tracer()):
        assert products._log_E is not before[0]
        assert harness.check_concentration is not before[1]
    after = (products._log_E, harness.check_concentration, products.CanonicalProduct.__init__)
    assert after == before


def test_traced_counts(tmp_path):
    # n nodes: the n x n node block runs in the constructor, in interpolation_errors
    # and in eval_many, then 4 radii x 256 angles for the growth table
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        task, code, _ = _run("configs/interpolate", tmp_path)
    assert code == 0
    n = len(verify.read_outputs(str(tmp_path))["files"]["identity.csv"]) - 1
    assert tr.counts["products.log_E_cells"] == 3 * n * n + 4 * 256 * n
    assert tr.counts["interpolation.eval_points"] == 2 * n + 4 * 256
    assert tr.counts["counting.counting_N_calls"] == n
    assert tr.maxima["interpolation.ladder_n_max"] > 0
    assert all(s[2] is not None for s in tr.spans)


# -- declared metrics ----------------------------------------------------------


def test_benchmark_json_matches_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == ["boundary-interp", "configs"]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(run.PER_LAYER)


def test_metric_names_are_the_specified_ones():
    end_to_end = {m for m, _, _ in run.END_TO_END}
    per_layer = {m for m, _, _ in run.PER_LAYER}
    # error_rate is 0 on three workloads, so it is reported per layer and
    # through attempted/failed; the tracing overhead has no name of its own
    assert end_to_end | {"error_rate"} == SPEC_END_TO_END
    assert per_layer == SPEC_PER_LAYER | {"error_rate", "trace.overhead_s"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "configs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
