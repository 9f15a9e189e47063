"""The names the benchmark's tracer wraps, and what its hooks read, must stay in the program.

perfbench/tracer.py patches each name of its BOUNDARIES and COUNTED tables
in its fredreg module, and each of its HOOKS reads attributes of the result
of one of them; a deleted or renamed one would fail only the benchmark's own
suite.  The tracer module imports only the standard library, so it is loaded
here from its file and only read.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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
