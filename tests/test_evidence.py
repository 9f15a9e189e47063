"""Each committed evidence file is what its study of scripts/evidence.py derives today."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("evidence", ROOT / "scripts" / "evidence.py")
evidence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(evidence)


def _committed(study: str) -> dict:
    return json.loads((ROOT / "evidence" / f"{study}.json").read_text())


def _sweep_slice(doc):
    """example1 and example3 at the outer rungs, and every preset's slopes refitted to its committed rungs."""
    names, rungs = ("example1", "example3"), (-4, 2)
    derived = evidence.noise_sweep(doc["seeds"], names, rungs)["presets"]
    presets = doc["presets"].values()
    return (
        [derived[name]["rungs"] for name in names]
        + [evidence.slopes(p["n_max"], {int(j): r for j, r in p["rungs"].items()}) for p in presets],
        [{str(j): doc["presets"][name]["rungs"][str(j)] for j in rungs} for name in names]
        + [p["slopes"] for p in presets],
    )


# study -> fn(committed document) -> (the slice re-derived, the same slice of the committed file)
SLICES = {
    "noise_sweep": _sweep_slice,
    "null_control": lambda doc: (evidence.null_control(doc["seeds"]), doc),
    "dispersion": lambda doc: (evidence.dispersion(doc["seeds"]), doc),
}


@pytest.mark.parametrize("study", evidence.STUDIES)
def test_a_slice_of_the_committed_evidence_rederives_exactly(study):
    doc = _committed(study)
    assert next(iter(doc)) == "seeds"  # the one key every study's document opens with
    derived, committed = SLICES[study](doc)
    assert json.loads(json.dumps(derived)) == committed


def test_the_driver_writes_the_committed_bytes(tmp_path):
    out = tmp_path / "dispersion.json"
    assert evidence.main(["dispersion", "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "evidence" / "dispersion.json").read_bytes()

