"""Spans around the layers of discinterp, patched in from outside the package.

``instrument`` replaces the public functions of each layer, and the three
kernels ``products._log_E``, ``products.logsumexp_complex`` and
``Interpolant._assemble``, by wrappers that open and close a span, and
restores the originals when it exits.  A function is replaced in every
module namespace that holds it, because the package imports names across
modules (``harness`` calls ``check_concentration`` through its own global).

A span records its name, start, end, parent span and the id of the scenario
run it belongs to.  Spans stay in memory until the benchmark writes them
out.  Each span with a metric adds its self time (its duration minus the
time its child spans cover) to that metric.  A span without a metric is
transparent: it is recorded, but its self time stays with its parent, so
every second of a traced pass lands in exactly one metric.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("geometry", "growth", "counting", "products", "interpolation",
           "oscillation", "harness")

# Evaluation entry points of products and interpolation; a call to one made
# directly from an oscillation span counts in oscillation.eval_calls.
EVAL_ENTRIES = {
    "Interpolant.eval_many", "Interpolant.eval_log_many", "Interpolant.derivative_many",
    "Interpolant.eval_and_derivative_many", "CanonicalProduct.P",
    "CanonicalProduct.log_P_many", "CanonicalProduct.log_deriv_P_many",
    "CanonicalProduct.log_deriv_prime_many", "CanonicalProduct.P_second_many",
}


class Tracer:
    """In-memory spans plus per-metric self times, counts and maxima."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.run_id = 0
        self._stack = []  # [span index, metric, time covered by child spans]
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = {}

    def open(self, name: str, metric) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), metric, 0.0])
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.run_id])

    def close(self) -> float:
        index, metric, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter() - self.t0
        duration = span[2] - span[1]
        if metric is None:
            # transparent: its children count as children of its parent
            passed_up = covered
        else:
            self.self_s[metric] += duration - covered
            passed_up = duration
        if self._stack:
            self._stack[-1][2] += passed_up
        return duration

    def parent_metric(self):
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += int(n)

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, float("-inf")), float(value))


# -- what each wrapper records after its call -----------------------------


def _log_E_cells(tr, args, result):
    tr.count("products.log_E_cells", np.size(args[0]))


def _ladder(tr, args, result):
    tr.maximum("interpolation.ladder_n_max", result.n_max)


def _exponents(tr, args, result):
    if np.size(result):
        tr.maximum("interpolation.max_exponent", np.max(result))


def _eval_points(tr, args, result):
    tr.count("interpolation.eval_points", len(args[1]))


def _identity(tr, args, result):
    if np.size(result):
        tr.maximum("interpolation.identity_err_max", np.max(result))


def _psi_points(tr, args, result):
    tr.count("growth.psi_tilde_points", np.size(args[1]))


def _residual(tr, args, result):
    tr.maximum("oscillation.max_residual", result.max_residual)


def _carleson(tr, args, result):
    tr.count("counting.carleson_delta_calls")


# (module, attribute path, metric or None for a transparent span, recorder)
SPANS = (
    ("harness", "generate_sequence", "geometry.sequence_s", None),
    ("geometry", "DiscSequence.__init__", "geometry.sequence_s", None),
    ("growth", "GrowthFunction.psi_tilde_log", "growth.psi_tilde_s", _psi_points),
    ("counting", "check_concentration", "counting.check_concentration_s", None),
    ("counting", "check_korenblum_sum", "counting.korenblum_s", None),
    ("counting", "concentration_korenblum_comparison", "counting.comparison_s", None),
    ("counting", "counting_sandwich_check", "counting.sandwich_s", None),
    ("counting", "carleson_delta", "counting.carleson_separation_s", _carleson),
    ("counting", "separation", "counting.carleson_separation_s", None),
    ("products", "CanonicalProduct.__init__", "products.build_s", None),
    ("products", "_log_E", "products.log_E_s", _log_E_cells),
    ("products", "logsumexp_complex", "products.logsumexp_s", None),
    ("products", "CanonicalProduct.log_deriv_P_many", "products.log_deriv_s", None),
    ("products", "CanonicalProduct.log_deriv_prime_many", "products.log_deriv_s", None),
    ("products", "CanonicalProduct.P_second_many", "products.log_deriv_s", None),
    ("products", "CanonicalProduct.tsuji_bound_check", "products.tsuji_s", None),
    ("products", "CanonicalProduct.P", None, None),
    ("products", "CanonicalProduct.log_P_many", None, None),
    ("interpolation", "ladder_for_sequence", "interpolation.ladder_s", None),
    ("interpolation", "build_ladder", "interpolation.ladder_s", _ladder),
    ("interpolation", "select_exponents", "interpolation.select_exponents_s", _exponents),
    ("interpolation", "Interpolant._assemble", "interpolation.assemble_s", _eval_points),
    ("interpolation", "Interpolant.eval_many", "interpolation.eval_s", None),
    ("interpolation", "Interpolant.eval_log_many", "interpolation.eval_s", None),
    ("interpolation", "Interpolant.derivative_many", "interpolation.eval_s", None),
    ("interpolation", "Interpolant.eval_and_derivative_many", "interpolation.eval_s", None),
    ("interpolation", "Interpolant.interpolation_errors", "interpolation.eval_s", _identity),
    ("interpolation", "growth_report", "interpolation.growth_report_s", None),
    ("oscillation", "build_coefficient", "oscillation.build_coefficient_s", None),
    ("oscillation", "OscillationSolution.residual_report", "oscillation.residual_report_s",
     _residual),
    ("oscillation", "OscillationSolution.zero_counts", "oscillation.zero_counts_s", None),
    ("oscillation", "OscillationSolution.growth_a_report", "oscillation.growth_a_s", None),
    ("oscillation", "sharpness_sequence", "oscillation.sharpness_s", None),
    ("oscillation", "sharpness_counting_check", "oscillation.sharpness_s", None),
    ("oscillation", "sharpness_growth_witness", "oscillation.sharpness_s", None),
)

# called too often for a span each (once per node in every counting check)
COUNTED = (("counting", "counting_N", "counting.counting_N_calls"),)


def _span_wrapper(tracer, name, metric, fn, recorder):
    is_eval = name.split(".", 1)[1] in EVAL_ENTRIES

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_eval and str(tracer.parent_metric()).startswith("oscillation."):
            tracer.count("oscillation.eval_calls")
        tracer.open(name, metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if recorder is not None:
            recorder(tracer, args, result)
        return result

    return wrapper


def _count_wrapper(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the wrappers in for the duration of the block."""
    modules = {m: importlib.import_module("discinterp." + m) for m in MODULES}
    modules["discinterp"] = importlib.import_module("discinterp")
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(module, path, make):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:  # a method: patch the class once, every caller sees it
            owner = getattr(modules[module], owner_name)
            replace(owner, attr, make(owner.__dict__[attr]))
            return
        fn = getattr(modules[module], attr)
        new = make(fn)
        for mod in modules.values():
            if mod.__dict__.get(attr) is fn:
                replace(mod, attr, new)

    try:
        for module, path, metric, recorder in SPANS:
            patch(module, path, lambda fn, n=f"{module}.{path}", m=metric, r=recorder:
                  _span_wrapper(tracer, n, m, fn, r))
        for module, path, key in COUNTED:
            patch(module, path, lambda fn, k=key: _count_wrapper(tracer, k, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
