"""Benchmark workloads: the fixed scenario list of each workload, made from a seed.

Every scenario is a plain config dict handed to ``harness.run_scenario``,
exactly as the CLI would hand over a JSON file.  The seed picks one of
``VARIANTS`` input variants, so the outputs of every variant can be checked
against references recorded once (see ``verify.py``); the same seed always
gives the same inputs.  The variant is the seed of the lattice jitter and of
the random targets; for ``configs``, which runs the shipped configs at their
own seeds, the seed only sets the order.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

VARIANTS = 4

WORKLOADS = ("lattice-interp", "boundary-interp", "configs", "check-lattice")
# BENCHMARK.json lists boundary-interp and configs only.  Run to run, pass
# times on a shared 2-core host swing by a third, so a steady median needs
# runs of 50 s; the time budget of the runs allows that for two workloads.
# The two lattice workloads stay here to be run by hand.

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(BENCH_DIR, "configs")
CONFIG_NAMES = ("check", "growth_curve", "interpolate", "oscillate", "sharpness")

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# The power(1) run of boundary-interp exits 3 at the commit that defined the
# benchmark: its identity error reaches about 7e-8 against the 1e-8 gate,
# because A_n(z_n) is off from 1 by rounding and the exponents s_n reach 6*10^5
# near |z| = 1 - 1e-4.  That run stays in the list at its full depth, so the
# failure shows in error_rate until the product is fixed.
BOUNDARY_FAMILIES = (
    {"family": "power", "param": 1.0},
    {"family": "log_power", "param": 2.0},
    {"family": "exp_log_power", "param": 0.5},
)


def _lattice(rings: int) -> dict:
    return {"kind": "perturbed_lattice", "rings": rings, "r0": 0.5, "q": 0.6,
            "max_points": 1_000_000}


def spiral_points(n: int = 200) -> list:
    """Golden-angle spiral with 1-|z| geometric from 0.5 down to 1e-4.

    The spiral is the same for every seed; the seed picks the targets.  A
    turned spiral would round its largest modulus differently, which moves
    the ladder length by one and, through the allocator, the peak memory.
    """
    one_minus = 0.5 * (2e-4) ** (np.arange(n) / (n - 1))
    z = (1.0 - one_minus) * np.exp(1j * GOLDEN_ANGLE * np.arange(n))
    return [[float(w.real), float(w.imag)] for w in z]


def _load_config(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def scenarios(workload: str, seed: int) -> list:
    """The workload's scenario list as (name, config) pairs, in run order.

    A name carries the input variant, so it keys the scenario's reference.
    """
    v = int(seed) % VARIANTS
    if workload == "lattice-interp":
        return [(f"lattice-interp/v{v}", {
            "task": "interpolate",
            "sequence": _lattice(10),
            "growth": {"family": "power", "param": 1.0},
            "targets": {"kind": "random_admissible", "constant": 2.0},
            "C0": 8.0,
            "r_grid": [0.5, 0.9, 0.99, 0.999],
            "theta_count": 256,
            "seed": v,
        })]
    if workload == "boundary-interp":
        points = spiral_points()
        return [(f"boundary-{g['family']}/v{v}", {
            "task": "interpolate",
            "sequence": points,
            "growth": dict(g),
            "targets": {"kind": "random_admissible", "constant": 2.0},
            "C0": 8.0,
            "r_grid": [0.5, 0.9, 0.99, 0.999],
            "theta_count": 256,
            "seed": v,
        }) for g in BOUNDARY_FAMILIES]
    if workload == "configs":
        # the shipped configs at their own seeds; the seed only sets the order
        order = np.random.default_rng(seed).permutation(len(CONFIG_NAMES))
        return [(f"configs/{CONFIG_NAMES[i]}", _load_config(CONFIG_NAMES[i])) for i in order]
    if workload == "check-lattice":
        return [(f"check-lattice/v{v}", {
            "task": "check",
            "sequence": _lattice(11),
            "growth": {"family": "power", "param": 1.0},
            "seed": v,
        })]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
