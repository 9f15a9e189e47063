"""The public surface: the names the benchmark's tracer wraps, and the rule at every number argument.

perfbench/tracer.py patches each name of its BOUNDARIES and COUNTED tables
in its fredreg module, and each of its HOOKS reads attributes of the result
of one of them; a deleted or renamed one would fail only the benchmark's own
suite.  The tracer module imports only the standard library, so it is loaded
here from its file and only read.

Every public parameter annotated int or float has a row in the integer or
real argument table of tests/test_harness.py, or a reason here why it has
none; and the bool test that tells True from 1 lives in the two rules alone.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from test_harness import INTEGER_ARGUMENTS, REAL_ARGUMENTS

import fredreg as fr

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
NAMES = [
    (module, name) for table in (_T.BOUNDARIES, _T.COUNTED) for module, names in table.items() for name in names
]


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"fredreg.{module}")
    for part in name.split("."):
        assert hasattr(obj, part), f"fredreg.{module} has no {name}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_harness_binds_synthesize_dataset():
    # the tracer replaces this binding too, and its own suite checks it
    harness = importlib.import_module("fredreg.harness")
    synthesis = importlib.import_module("fredreg.synthesis")
    assert harness.synthesize_dataset is synthesis.synthesize_dataset


def _basis_matrix_call(tmp_path):
    es = fr.analytic_eigensystem(8)
    args = (es, np.linspace(0.0, 1.0, 5), 6)
    return args, {}, fr.EigenSystem.basis_matrix(*args), {"eigensystem.basis_matrix.rows": 6}


def _reconstruct_call(tmp_path):
    args = ([(1, 1.0), (3, -0.5)], fr.analytic_eigensystem(8), fr.simpson_grid(65))
    return args, {}, fr.reconstruct(*args), {"eigensystem.reconstruct.terms": 2}


def _build_selection_call(tmp_path):
    args = (np.random.default_rng(0).normal(size=64),)
    # the selection scans lags 0..default_max_lag(64) = 18 of the 64
    counts = {"selection.autocorr.useful_lags": 19, "selection.autocorr.lags": 64}
    return args, {}, fr.build_selection(*args), counts


def _emit_outputs_call(tmp_path):
    cfg = fr.ExperimentConfig(
        signal=fr.SignalSpec.named("f2"), epsilon=1e-3, n_coeff=64, grid_size=65, n_max=8, output_dir=str(tmp_path)
    )
    records = fr.run_experiment(cfg)
    args = (records, fr.summarize(records), cfg)
    result = fr.emit_outputs(*args)
    on_disk = [p for p in tmp_path.rglob("*") if p.is_file()]
    counts = {
        "harness.emit_outputs.files": len(on_disk),
        "harness.emit_outputs.bytes": sum(p.stat().st_size for p in on_disk),
    }
    return args, {}, result, counts


# hooked span -> a real call of it: (args, kwargs, result, the counts its hook must add)
CALLS = {
    "eigensystem.basis_matrix": _basis_matrix_call,
    "eigensystem.reconstruct": _reconstruct_call,
    "selection.build_selection": _build_selection_call,
    "harness.emit_outputs": _emit_outputs_call,
}


@pytest.mark.parametrize("name", sorted(_T.HOOKS))
def test_hook_reads_a_real_result(name, tmp_path):
    assert name in CALLS, f"no real call for the tracer hook on {name}"
    args, kwargs, result, want = CALLS[name](tmp_path)
    counts = Counter()
    _T.HOOKS[name](counts, args, kwargs, result)
    assert dict(counts) == want


MODULES = ("eigensystem", "synthesis", "variational", "spectral", "selection", "harness")


def _public_callables():
    """(qualified name, callable) for each function, dataclass constructor and public method in an __all__."""
    for module in MODULES:
        mod = importlib.import_module(f"fredreg.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    yield name, obj
                for attr, member in vars(obj).items():
                    member = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{name}.{attr}", member


def _number_parameters():
    """ "callable(parameter)" for each parameter whose annotation names int or float."""
    return {
        f"{name}({p.name})"
        for name, obj in _public_callables()
        for p in inspect.signature(obj).parameters.values()
        if re.search(r"\b(int|float)\b", str(p.annotation))
    }


# "callable(parameter)" -> why it has no row in the argument tables
EXEMPT = {
    "QuadratureGrid(a)": "held to the grid's points and weights, so no one grid takes every table value; "
    "tests/test_eigensystem.py checks it, and simpson_grid(a) has a row",
    "QuadratureGrid(b)": "as QuadratureGrid(a)",
    "SignalContext(_exact_terms)": "private: signal_context sets it from a SignalSpec whose terms took the rules",
    "csv_cells(i)": "the column number a message names; the cells do not depend on it",
    "correlation_ratio(lambda_k)": "a formula of one component's numbers, like a math function: it returns "
    "what the arithmetic gives, and the package does not call it",
    "correlation_ratio(rho_k)": "as correlation_ratio(lambda_k)",
    "correlation_ratio(nu_k)": "as correlation_ratio(lambda_k)",
    "correlation_ratio(eps)": "as correlation_ratio(lambda_k)",
    "information_content(lambda_k)": "as correlation_ratio(lambda_k)",
    "information_content(rho_k)": "as correlation_ratio(lambda_k)",
    "information_content(nu_k)": "as correlation_ratio(lambda_k)",
    "information_content(eps)": "as correlation_ratio(lambda_k)",
    "SelectionReport(Q)": "the report keeps build_Q's result, whose lags select_pairs takes through the rule",
    "SelectionReport(pairs)": "the report keeps select_pairs' result",
    "RunRecord(seed)": "a result type: run_experiment fills it from a checked config",
    "RunRecord(snr_db)": "a result type",
    "RunRecord(rel_l2)": "a result type",
    "RunRecord(k_alpha)": "a result type",
    "RunRecord(k_beta)": "a result type",
    "RunRecord(k0)": "a result type",
    "RunContext(f_norm)": "a result type: run_context computes it from a checked config",
    "RunContext(c1)": "a result type: run_context computes it from a checked config",
    "summarize(true_support)": "compared for equality with each record's I_k: a value no selection gives never matches",
}


def test_every_number_parameter_has_a_row_or_a_reason():
    parameters = _number_parameters()
    covered = set(INTEGER_ARGUMENTS) | set(REAL_ARGUMENTS) | set(EXEMPT)
    assert sorted(parameters - covered) == []
    assert sorted(set(EXEMPT) - parameters) == []  # no stale reason


# the two rules: eigensystem._integer and eigensystem._finite_real
RULES = {("eigensystem.py", "_integer"), ("eigensystem.py", "_finite_real")}


def _bool_tests(path: Path):
    """(function name, line) of each isinstance(..., bool) or isinstance(..., (..., bool, ...)) call in a file."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(ast.unparse(kind) in ("bool", "np.bool_") for kind in kinds):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_two_rules_tell_a_bool_from_an_int():
    src = Path(fr.__file__).parent
    stray = [
        f"{path.name}:{line} in {function}"
        for path in sorted(src.glob("*.py"))
        for function, line in _bool_tests(path)
        if (path.name, function) not in RULES
    ]
    assert stray == []
    assert {function for function, _ in _bool_tests(src / "eigensystem.py")} == {"_integer", "_finite_real"}
