"""The names the benchmark's tracer wraps must stay in the program.

perfbench/tracer.py patches each name of its BOUNDARIES and COUNTED tables
in its fredreg module; a deleted or renamed one would fail only the
benchmark's own suite.  The tracer module imports only the standard library,
so it is loaded here from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
