"""Tests for the package surface: each module's ``__all__``, the top-level imports
and the batch contract of the evaluation entry points."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discinterp
from discinterp.geometry import DiscSequence
from discinterp.growth import GrowthFunction
from discinterp.oscillation import build_coefficient

MODULES = sorted(m.name for m in pkgutil.iter_modules(discinterp.__path__))


def init_imports() -> dict:
    """Names ``discinterp/__init__.py`` imports, keyed by the module they come from."""
    tree = ast.parse(Path(discinterp.__file__).read_text())
    names: dict = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.setdefault(node.module, []).extend(a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"discinterp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_test_modules_use_every_name_they_import_from_the_package(path):
    tree = ast.parse(path.read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "discinterp"
                for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_only_names_in_all(name):
    module = importlib.import_module(f"discinterp.{name}")
    imported = init_imports().get(name, [])
    assert [n for n in imported if n not in getattr(module, "__all__", ())] == []


def test_public_defaulted_parameter_count():
    # defaulted parameters of public functions and methods (and __init__);
    # a change that adds or removes a knob updates this pin
    def public(name):
        return not name.startswith("_") or name == "__init__"

    count = 0
    for path in Path(discinterp.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for fn in tree.body + [m for c in classes for m in c.body]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and public(fn.name):
                count += len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
    assert count == 23


def test_module_graph():
    # each module's relative imports, read from its source: products needs
    # only geometry and growth, and counting serves only harness and the package
    graph = {}
    for path in Path(discinterp.__file__).parent.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = sorted(deps)
    assert graph == {
        "__init__": ["counting", "geometry", "growth", "harness", "interpolation",
                     "oscillation", "products"],
        "cli": ["harness"],
        "counting": ["geometry", "growth"],
        "geometry": [],
        "growth": [],
        "harness": ["counting", "geometry", "growth", "interpolation", "oscillation",
                    "products"],
        "interpolation": ["geometry", "growth", "products"],
        "oscillation": ["geometry", "growth", "interpolation", "products"],
        "products": ["geometry", "growth"],
    }


def test_only_products_splits_batches_into_column_blocks():
    # every (node, point) pass goes through CanonicalProduct._blockwise, so no
    # other module reads the block rule
    def names(node):
        if isinstance(node, ast.ImportFrom):
            return [a.name for a in node.names]
        return [getattr(node, "id", None), getattr(node, "attr", None)]

    readers = {path.stem for path in Path(discinterp.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if "_column_blocks" in names(node)}
    assert readers == {"products"}


def test_term_logs_take_one_log_and_no_D():
    # a term is c_n + log B_n(z) + q(A) + s_n log A: one complex log per cell,
    # of A; log D = log(1 - |z_n|^2) - log A is folded into the node constant
    tree = ast.parse(Path(discinterp.__file__).with_name("interpolation.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Interpolant")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "_term_logs")
    logs = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "log"
            and isinstance(n.func.value, ast.Name) and n.func.value.id == "np"]
    assert len(logs) == 1
    assert "D" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]


def test_harness_import_does_not_load_scipy():
    # only psi_tilde of exp_log_power needs scipy, and it imports it on use
    src = str(Path(discinterp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, discinterp.harness; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# (object of an OscillationSolution, method): the public evaluation entry points
EVAL_ENTRY_POINTS = (
    ("product", "log_P_many"), ("product", "P"), ("product", "log_deriv_P_many"),
    ("product", "log_deriv_prime_many"), ("product", "P_second_many"),
    ("product", "factor_abs_power_sum"), ("gprime", "eval_many"),
    ("gprime", "eval_and_log_P_many"), ("gprime", "eval_log_many"),
    ("gprime", "derivative_many"), ("gprime", "eval_and_derivative_many"),
    ("solution", "coefficient_many"), ("solution", "coefficient_log_many"),
)


@pytest.fixture(scope="module")
def solution():
    # five nodes: from four on, a one-point batch sums its column in another
    # order than the same point inside a wider batch
    seq = DiscSequence([0.5, 0.3 + 0.4j, -0.6j, 0.7, -0.4 - 0.2j])
    return build_coefficient(seq, GrowthFunction.power(1.0))


@pytest.mark.parametrize("owner, name", EVAL_ENTRY_POINTS, ids=[n for _, n in EVAL_ENTRY_POINTS])
@pytest.mark.parametrize("point", [-0.2 + 0.1j, np.asarray(-0.2 + 0.1j)], ids=["complex", "0-d array"])
def test_a_point_is_a_batch_of_one(solution, owner, name, point):
    # arrays in, arrays out: compared with the one-point batch [z], the like
    # of a 0-d point, never with an entry of a wider batch
    method = getattr({"product": solution.product, "gprime": solution.gprime,
                      "solution": solution}[owner], name)
    single, batch = method(point), method([complex(point)])
    if not isinstance(batch, tuple):
        single, batch = (single,), (batch,)
    assert len(single) == len(batch)
    for got, expected in zip(single, batch):
        assert isinstance(got, np.ndarray) and got.shape == (1,)
        assert np.array_equal(got, expected)


def test_tsuji_report_holds_arrays_for_one_point(solution):
    cp = solution.product
    single, batch = cp.tsuji_bound_check(-0.2 + 0.1j), cp.tsuji_bound_check([-0.2 + 0.1j])
    for side in ("lhs", "rhs"):
        got = getattr(single, side)
        assert isinstance(got, np.ndarray) and got.shape == (1,)
        assert np.array_equal(got, getattr(batch, side))
    assert single.holds == batch.holds
