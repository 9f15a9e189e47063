"""The committed noise-sweep evidence is what scripts/noise_sweep.py derives today."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EVIDENCE = json.loads((ROOT / "evidence" / "noise_sweep.json").read_text())
_spec = importlib.util.spec_from_file_location("noise_sweep", ROOT / "scripts" / "noise_sweep.py")
noise_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(noise_sweep)


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_a_slice_of_the_evidence_rederives_exactly(name):
    rungs = (-4, 2)
    derived = noise_sweep.sweep((name,), EVIDENCE["seeds"], rungs)["presets"][name]
    committed = EVIDENCE["presets"][name]
    assert json.loads(json.dumps(derived["rungs"])) == {str(j): committed["rungs"][str(j)] for j in rungs}


def test_committed_slopes_fit_the_committed_rungs():
    for p in EVIDENCE["presets"].values():
        rungs = {int(j): r for j, r in p["rungs"].items()}
        assert json.loads(json.dumps(noise_sweep.slopes(p["n_max"], rungs))) == p["slopes"]
