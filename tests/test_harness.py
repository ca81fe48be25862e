"""Tests for scenario configs, generators, CSV emission and exit codes."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from discinterp import counting, harness
from discinterp.cli import main as cli_main
from discinterp.counting import carleson_delta
from discinterp.geometry import DiscSequence
from discinterp.growth import GrowthFunction
from discinterp.interpolation import Interpolant
from discinterp.oscillation import osc_targets
from discinterp.products import CanonicalProduct
from discinterp.harness import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    TASKS,
    ConfigError,
    generate_sequence,
    generate_targets,
    run_scenario,
)

from helpers import MALFORMED_FIELDS


CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestGenerators:
    def test_sharpness_pairs_first_pair(self):
        seq = generate_sequence({"kind": "sharpness_pairs", "rho": 1.0, "n_max": 1}, 0)
        assert len(seq) == 2
        assert seq.values[0] == 0.5
        assert seq.values[1] == pytest.approx(0.5 + 0.5 * math.exp(-2.0), abs=1e-16)

    def test_radial(self):
        seq = generate_sequence({"kind": "radial", "radii": [0.5, 0.75]}, 0)
        assert np.allclose(seq.values, [0.5, 0.75])

    def test_explicit(self):
        seq = generate_sequence(
            {"kind": "explicit", "points": [[0.1, 0.2], [-0.3, 0.0]]}, 0)
        assert np.allclose(seq.values, [0.1 + 0.2j, -0.3])

    def test_deterministic_for_fixed_seed(self):
        spec = {"kind": "perturbed_lattice", "rings": 3, "r0": 0.5}
        a = generate_sequence(spec, 42)
        b = generate_sequence(spec, 42)
        assert np.array_equal(a.values, b.values)
        c = generate_sequence(spec, 43)
        assert not np.array_equal(a.values, c.values)

    def test_lattice_respects_invariants(self):
        seq = generate_sequence(
            {"kind": "perturbed_lattice", "rings": 5, "r0": 0.4, "max_points": 60}, 7)
        assert 0 < len(seq) <= 60
        assert float(seq.moduli.min()) > 0
        assert float(seq.moduli.max()) < 1

    def test_lattice_stops_drawing_at_max_points(self):
        # 60 rings would ask for about 10^13 points; the first 40 are the
        # same draws as in a lattice of 8 rings
        deep = generate_sequence({"kind": "perturbed_lattice", "rings": 60, "max_points": 40}, 5)
        full = generate_sequence({"kind": "perturbed_lattice", "rings": 8, "max_points": 1000}, 5)
        assert len(full) > 40
        assert np.array_equal(deep.values, full.values[:40])

    def test_lattice_with_huge_spread_draws_only_max_points(self):
        # one ring of about 2 * 10^12 points
        seq = generate_sequence(
            {"kind": "perturbed_lattice", "rings": 1, "spread": 1e12, "max_points": 40}, 0)
        assert len(seq) == 40

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            generate_sequence({"kind": "spiral"}, 0)

    def test_targets_admissible(self):
        gf = GrowthFunction("power", 1.0)
        seq = generate_sequence({"kind": "radial", "radii": [0.4, 0.6, 0.9]}, 0)
        vals = generate_targets({"kind": "random_admissible", "constant": 2.0},
                                seq, gf, 5)
        tilde = gf.psi_tilde(1 / (1 - seq.moduli))
        assert np.all(np.log(np.abs(vals)) <= 2.0 * tilde + 1e-12)

    def test_targets_length_mismatch(self):
        gf = GrowthFunction("power", 1.0)
        seq = DiscSequence([0.5])
        with pytest.raises(ConfigError):
            generate_targets({"kind": "explicit", "values": [[1, 0], [2, 0]]},
                             seq, gf, 0)


BASE_INTERP = {
    "task": "interpolate",
    "sequence": {"kind": "perturbed_lattice", "rings": 3, "r0": 0.5,
                 "max_points": 25},
    "growth": {"family": "power", "param": 1.0},
    "targets": {"kind": "random_admissible", "constant": 2.0},
    "r_grid": [0.5, 0.9, 0.99],
    "theta_count": 64,
    "seed": 3,
}


# one small valid config per task; each runs with exit 0
SMALL_CONFIGS = {
    task: {"task": task, "sequence": {"kind": "radial", "radii": [0.4]},
           "growth": {"family": "power", "param": 1.0}, "C0": 2.0, "theta_count": 16,
           "residual_samples": 4}
    for task in TASKS if task != "sharpness"
}
SMALL_CONFIGS["sharpness"] = {"task": "sharpness",
                              "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 4}}


class TestMalformedFields:
    """Every task reads and refuses a present field the same way: exit 2, no output."""

    @pytest.mark.parametrize("task", TASKS)
    def test_small_config_runs(self, tmp_path, task):
        assert run_scenario(SMALL_CONFIGS[task], str(tmp_path / "o")) == EXIT_OK

    @pytest.mark.parametrize("case", MALFORMED_FIELDS)
    @pytest.mark.parametrize("task", TASKS)
    def test_is_config_error(self, tmp_path, capsys, task, case):
        out = str(tmp_path / "o")
        assert run_scenario({**SMALL_CONFIGS[task], **MALFORMED_FIELDS[case]}, out) == EXIT_CONFIG
        assert capsys.readouterr().out.startswith("config error: ")
        assert not os.path.exists(out)


class TestRunScenario:
    @pytest.mark.parametrize("name", ["interpolate", "growth_curve"])
    def test_growth_rows_are_the_largest_ring_values(self, tmp_path, monkeypatch, name):
        # growth.csv from the pruned ring maxima (Interpolant.max_log_many, a
        # row per ring) equals the one from every ring value, np.max of each
        # row of eval_log_many, byte for byte
        path = os.path.join(CONFIG_DIR, f"{name}.json")
        assert run_scenario(path, str(tmp_path / "pruned")) == EXIT_OK
        monkeypatch.setattr(Interpolant, "max_log_many", lambda self, z: np.max(
            self.eval_log_many(z.ravel()).real.reshape(z.shape), axis=1))
        assert run_scenario(path, str(tmp_path / "every")) == EXIT_OK
        pruned, every = (tmp_path / d / "growth.csv" for d in ("pruned", "every"))
        assert pruned.read_bytes() == every.read_bytes()

    def test_interpolate_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", BASE_INTERP)
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_OK
        assert set(os.listdir(out)) == {"constants.json", "identity.csv", "growth.csv"}
        growth = (tmp_path / "out" / "growth.csv").read_text().splitlines()
        assert growth[0] == "r,ln_max_modulus,psi_tilde,ratio"
        assert len(growth) == 1 + len(BASE_INTERP["r_grid"])
        identity = (tmp_path / "out" / "identity.csv").read_text().splitlines()
        constants = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert constants["max_identity_error"] < 1e-8
        seq = generate_sequence(BASE_INTERP["sequence"], BASE_INTERP["seed"])
        assert len(identity) - 1 == len(seq)

    def test_reproducible_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", BASE_INTERP)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_scenario(cfg, out1) == EXIT_OK
        assert run_scenario(cfg, out2) == EXIT_OK
        for name in ("identity.csv", "growth.csv", "constants.json"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", BASE_INTERP)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        run_scenario(cfg, out1)
        run_scenario(cfg, out2, seed=99)
        assert (tmp_path / "o1" / "identity.csv").read_bytes() != \
            (tmp_path / "o2" / "identity.csv").read_bytes()

    def test_check_singleton_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "task": "check",
            "sequence": {"kind": "radial", "radii": [0.5]},
            "growth": {"family": "power", "param": 1.0},
        })
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_OK
        constants = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert constants["concentration"] == 0.0
        assert constants["korenblum_sum"] == 0.0
        assert constants["carleson_delta"] == 1.0

    def test_check_without_close_pairs_writes_a_plain_zero(self, tmp_path, monkeypatch):
        # no node has another within (1 - |z_k|) / 2, so every korenblum sum is
        # empty; a negated empty numpy sum would be written as -0
        calls = []
        monkeypatch.setattr(harness, "carleson_delta",
                            lambda seq: calls.append(seq) or carleson_delta(seq))
        cfg = write_config(tmp_path, "c.json", {
            "task": "check",
            "sequence": [[0.5, 0], [-0.5, 0], [0, 0.6]],
            "growth": {"family": "power", "param": 1.0},
        })
        assert run_scenario(cfg, str(tmp_path / "out")) == EXIT_OK
        rows = (tmp_path / "out" / "conditions.csv").read_text().splitlines()
        assert "korenblum_sum,0,0" in rows
        assert "korenblum_vs_concentration,0," in rows
        assert len(calls) == 1

    def test_check_task_counting_calls(self, tmp_path, monkeypatch):
        # one count per (z, r): check_concentration N at radius DELTA, the
        # comparison N at ALPHA DELTA, the sandwich 32 on its grid; the joint
        # checks read N at DELTA and the korenblum sums from the single reports
        calls, sums = [], []
        counting_N, korenblum_sums = counting.counting_N, counting._korenblum_sums
        monkeypatch.setattr(counting, "counting_N", lambda *a: calls.append(a) or counting_N(*a))
        monkeypatch.setattr(counting, "_korenblum_sums",
                            lambda *a: sums.append(a) or korenblum_sums(*a))
        path = os.path.join(CONFIG_DIR, "check.json")
        with open(path) as fh:
            data = json.load(fh)
        seq = generate_sequence(data["sequence"], data["seed"])
        assert run_scenario(path, str(tmp_path / "out")) == EXIT_OK
        assert len(calls) == 2 * len(seq) + 32
        assert len(set(calls)) == len(calls)
        assert len(sums) == 1

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = str(tmp_path / "out")
        assert run_scenario(str(path), out) == EXIT_CONFIG
        assert not os.path.exists(out)  # no partial outputs

    @pytest.mark.parametrize("fields", [
        {"sequence": {"kind": "nope"}},
        {"growth": {"family": "power", "param": "x"}},
        {"theta_count": "abc"},
        {"seed": "s"},
        {"r_grid": 5},
        {"targets": {"kind": "explicit"}},
        {"targets": [[1]]},
        {"targets": {"kind": "random_admissible", "constant": "x"}},
        {"sequence": {"kind": "perturbed_lattice", "rings": "x"}},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "n_max": 4}},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 4},
         "eps0": "q"},
        {"sequence": {"kind": "perturbed_lattice", "spread": math.nan}},
        {"sequence": {"kind": "perturbed_lattice", "spread": math.inf}},
        {"sequence": {"kind": "perturbed_lattice", "spread": 0.0}},
        {"sequence": {"kind": "perturbed_lattice", "spread": -0.5}},
        {"sequence": {"kind": "perturbed_lattice", "max_points": 0}},
        {"sequence": {"kind": "perturbed_lattice", "max_points": -3}},
        {"targets": {"kind": "random_admissible", "constant": math.nan}},
        {"targets": {"kind": "random_admissible", "constant": math.inf}},
        {"targets": {"kind": "random_admissible", "constant": 0.0}},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 4},
         "eps0": math.nan},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 4},
         "eps0": math.inf},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 4},
         "eps0": -0.1},
        {"targets": [[math.nan, 0]]},
        {"targets": [[math.inf, 0]]},
        {"growth": {"family": "power", "param": math.inf}},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "rho": math.nan, "n_max": 4}},
        {"sequence": {"kind": "sharpness_pairs", "rho": math.inf, "n_max": 4}},
        {"task": "sharpness", "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 0}},
        {"sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 0}},
        {"C0": math.inf},
        {"seed": -1},
    ], ids=["sequence-kind", "growth-param", "theta_count", "seed", "r_grid",
            "targets-without-values", "targets-short-pair", "targets-constant",
            "lattice-rings", "sharpness-without-rho", "eps0",
            "spread-nan", "spread-inf", "spread-zero", "spread-negative",
            "max_points-zero", "max_points-negative",
            "constant-nan", "constant-inf", "constant-zero",
            "eps0-nan", "eps0-inf", "eps0-negative",
            "target-nan", "target-inf", "growth-param-inf", "rho-nan", "sequence-rho-inf",
            "n_max-zero", "sequence-n_max-zero", "C0-inf", "seed-negative"])
    def test_bad_field_is_config_error(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path, "bad.json", {
            "task": "interpolate", "sequence": {"kind": "radial", "radii": [0.5]},
            "growth": {"family": "power", "param": 1.0}, **fields})
        out = str(tmp_path / "o")
        assert run_scenario(cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().out.startswith("config error: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("samples", [100_001, 2**40])
    def test_residual_samples_above_the_cap_is_config_error(self, tmp_path, capsys, samples):
        # refused while the config is read, before any sample is drawn or stored
        cfg = {"task": "oscillate", "sequence": {"kind": "radial", "radii": [0.5]},
               "growth": {"family": "power", "param": 1.0}, "residual_samples": samples}
        out = str(tmp_path / "o")
        assert run_scenario(cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().out == (
            "config error: field 'residual_samples': need 1 to 100000\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("task", ["check", "interpolate", "oscillate", "growth-curve"])
    def test_node_of_modulus_one_in_np_abs_is_config_error(self, tmp_path, capsys, task):
        # abs(z) = 0.9999999999999999 but np.abs(z) = 1.0: the node is on the circle
        z = -0.8416209805657928 + 0.5400686299642603j
        cfg = {"task": task, "sequence": [[z.real, z.imag], [0.3, 0.0]],
               "growth": {"family": "power", "param": 1.0}}
        out = str(tmp_path / "o")
        assert run_scenario(cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().out.startswith("config error: ")
        assert not os.path.exists(out)

    def test_missing_targets_are_random_admissible_with_constant_one(self, tmp_path):
        base = {k: v for k, v in BASE_INTERP.items() if k != "targets"}
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert run_scenario(base, str(default)) == EXIT_OK
        targets = {"kind": "random_admissible", "constant": 1.0}
        assert run_scenario({**base, "targets": targets}, str(explicit)) == EXIT_OK
        names = sorted(os.listdir(default))
        assert names == sorted(os.listdir(explicit))
        for name in names:
            assert (default / name).read_bytes() == (explicit / name).read_bytes()

    def test_unknown_task_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json",
                           {"task": "frobnicate",
                            "sequence": {"kind": "radial", "radii": [0.5]},
                            "growth": {"family": "power", "param": 1.0}})
        assert run_scenario(cfg, str(tmp_path / "o")) == EXIT_CONFIG

    def test_sharpness_task(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "task": "sharpness",
            "sequence": {"kind": "sharpness_pairs", "rho": 1.0, "n_max": 12},
            "eps0": 0.5,
        })
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_OK
        rows = (tmp_path / "out" / "sharpness.csv").read_text().splitlines()
        assert rows[0] == "n,N_value,target,ratio"
        assert len(rows) == 13
        witness = (tmp_path / "out" / "witness.csv").read_text().splitlines()
        assert len(witness) == 13
        constants = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert constants["crossing_index"] == 3

    def test_oscillate_task(self, tmp_path):
        cfg = write_config(tmp_path, "o.json", {
            "task": "oscillate",
            "sequence": {"kind": "perturbed_lattice", "rings": 2, "r0": 0.45,
                         "max_points": 8},
            "growth": {"family": "power", "param": 1.0},
            "C0": 2.0,
            "residual_samples": 25,
            "r_grid": [0.5, 0.9],
            "theta_count": 64,
            "seed": 11,
        })
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_OK
        names = set(os.listdir(out))
        assert {"residual.csv", "zeros.csv", "growth_a.csv", "constants.json"} <= names
        residual = (tmp_path / "out" / "residual.csv").read_text().splitlines()
        assert len(residual) == 26
        constants = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert constants["max_residual"] < 1e-6
        assert constants["max_winding_defect"] < 1e-3

    def test_oscillate_with_a_nan_winding_count_exits_4(self, tmp_path, capsys):
        # the outer circle's count is NaN (and the third's 4.9e121); a NaN
        # made the largest defect NaN, which passed the 1e-3 gate with exit 0
        cfg = {"task": "oscillate", "growth": {"family": "power", "param": 1.5859635009064235},
               "sequence": {"kind": "radial", "theta": 3.466062923801218,
                            "radii": [0.04082759495967014, 0.2451444449177803,
                                      0.6260096911679388, 0.9900534593526571]},
               "C0": 18.865692227993502, "seed": 633, "r_grid": [0.5623527530138653],
               "theta_count": 8, "residual_samples": 8}
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_NUMERIC
        assert capsys.readouterr().out == (
            "numeric failure: winding count is not finite on 1 of 4 circles\n")
        assert not os.path.exists(out)

    def test_oscillate_with_an_overflowing_residual_exits_4(self, tmp_path, capsys):
        # power(3.2) on three radial nodes: h overflows at 8 of the 19
        # residual samples, and the message counts them
        cfg = {"task": "oscillate", "growth": {"family": "power", "param": 3.2068256998786535},
               "sequence": {"kind": "radial", "theta": 4.4511263247716295,
                            "radii": [0.08680776327302407, 0.4225937889822293,
                                      0.8774570483452917]},
               "C0": 16.339505289428985, "seed": 789, "r_grid": [0.5532532573887139],
               "theta_count": 20, "residual_samples": 19}
        out = str(tmp_path / "out")
        with np.errstate(all="ignore"):
            assert run_scenario(cfg, out) == EXIT_NUMERIC
        assert capsys.readouterr().out == (
            "numeric failure: ODE residual is not finite at 8 of 19 samples\n")
        assert not os.path.exists(out)

    def test_interpolate_with_non_finite_identity_errors_exits_4(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the message counts the nodes whose identity error is not finite
        monkeypatch.setattr(Interpolant, "interpolation_errors",
                            lambda self: np.array([0.0, np.nan, np.inf]))
        cfg = {"task": "interpolate", "growth": {"family": "power", "param": 1.0},
               "sequence": {"kind": "radial", "radii": [0.2, 0.5, 0.7]}, "C0": 2.0}
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_NUMERIC
        assert capsys.readouterr().out == (
            "numeric failure: identity error is not finite at 2 of 3 nodes\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("rho", [300.0, 3e3])
    def test_overflowing_ladder_crossing_exits_4(self, tmp_path, capsys, rho):
        # C0 psi(C0 t) overflows to inf; int(inf) ended the run with "cannot
        # convert float infinity to integer"
        cfg = {"task": "interpolate", "sequence": {"kind": "radial", "radii": [0.5, 0.7]},
               "growth": {"family": "power", "param": rho}, "C0": 2.0}
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_NUMERIC
        assert re.match(r"numeric failure: ladder length \d+ outside \[1, 2\^53\)",
                        capsys.readouterr().out)
        assert not os.path.exists(out)

    def test_overflowing_psi_prints_nothing_on_stderr(self, tmp_path):
        # psi and psi_tilde of power(3000) overflow to inf before the ladder
        # refuses the config by its length; the overflow is quiet, so the run
        # prints its exit message and no numpy RuntimeWarning
        cfg = write_config(tmp_path, "rho.json", {
            "task": "interpolate", "sequence": {"kind": "radial", "radii": [0.5, 0.7]},
            "growth": {"family": "power", "param": 3e3}, "C0": 2.0})
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "discinterp.cli", "interpolate", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_NUMERIC, "")
        assert re.match(r"numeric failure: ladder length \d+ outside \[1, 2\^53\)", proc.stdout)

    @pytest.mark.parametrize("task", ["interpolate", "growth-curve", "oscillate"])
    def test_unallocatable_theta_count_exits_4(self, tmp_path, capsys, task):
        # 2^40 angles ask for 8 TiB of angles, which numpy refuses before it
        # touches memory; the MemoryError escaped as a traceback
        cfg = {"task": task, "growth": {"family": "power", "param": 1.0},
               "sequence": {"kind": "radial", "radii": [0.2, 0.5, 0.7]}, "C0": 2.0,
               "theta_count": 2**40}
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_NUMERIC
        assert capsys.readouterr().out.startswith("numeric failure: Unable to allocate")
        assert not os.path.exists(out)

    def test_plain_list_sequence_and_targets(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "task": "interpolate",
            "sequence": [[0.5, 0.0], [0.0, 0.6], [-0.4, 0.2]],
            "targets": [[1.0, 0.0], [0.0, -2.0], [3.0, 1.0]],
            "growth": {"family": "power", "param": 1.0},
            "C0": 2.0,
            "theta_count": 32,
        })
        out = str(tmp_path / "out")
        assert run_scenario(cfg, out) == EXIT_OK
        constants = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert constants["max_identity_error"] < 1e-8

    def test_interpolate_never_forms_the_derivative_terms(self, tmp_path, monkeypatch):
        # the N x N pass of B_k'(z_k)/B_k(z_k) belongs to the oscillate targets,
        # so an interpolate run calls no factor log derivative
        formed = []
        deriv_terms = CanonicalProduct._deriv_terms
        monkeypatch.setattr(CanonicalProduct, "_deriv_terms",
                            lambda cp, A, onemA: formed.append(A.shape) or deriv_terms(cp, A, onemA))
        path = os.path.join(CONFIG_DIR, "interpolate.json")
        assert run_scenario(path, str(tmp_path / "i")) == EXIT_OK
        assert formed == []
        osc_targets(CanonicalProduct(DiscSequence([0.5, 0.3j]), 2))
        assert formed == [(2, 2)]

    def test_growth_curve_has_denser_grid(self, tmp_path):
        cfg = dict(BASE_INTERP)
        cfg["task"] = "growth-curve"
        path = write_config(tmp_path, "g.json", cfg)
        out = str(tmp_path / "out")
        assert run_scenario(path, out) == EXIT_OK
        rows = (tmp_path / "out" / "growth.csv").read_text().splitlines()
        assert len(rows) > 1 + len(BASE_INTERP["r_grid"])


class TestCli:
    def test_cli_interpolate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.json", BASE_INTERP)
        out = str(tmp_path / "out")
        code = cli_main(["interpolate", "--config", cfg, "--out", out])
        assert code == EXIT_OK
        assert "max_identity_error" in capsys.readouterr().out

    def test_cli_task_overrides_config(self, tmp_path):
        data = dict(BASE_INTERP)
        del data["task"]
        cfg = write_config(tmp_path, "a.json", data)
        out = str(tmp_path / "out")
        assert cli_main(["check", "--config", cfg, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "conditions.csv"))

    def test_cli_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.json", BASE_INTERP)
        out = str(tmp_path / "out")
        assert cli_main(["interpolate", "--config", cfg, "--out", out, "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().out.startswith("config error: ")
        assert not os.path.exists(out)

    def test_cli_requires_task(self):
        with pytest.raises(SystemExit):
            cli_main([])
