"""Golden outputs: every file of a fixed run is pinned by its sha256.

For each preset, ``fredreg run --preset exampleN --seeds 3 --base-seed 0``
writes 19 files (report, summary, manifest, and four CSVs at the top level and
per seed).  ``golden_sha256.json`` holds their hashes, keyed by
``<preset>/<path>``.  A refactor that keeps behaviour leaves every hash as it
is; a change that moves an output must re-pin that file deliberately.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fredreg.cli import main
from fredreg.harness import PRESETS

GOLDEN = json.loads((Path(__file__).with_name("golden_sha256.json")).read_text())


@pytest.mark.parametrize("name", PRESETS)
def test_outputs_match_golden_hashes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["run", "--preset", name, "--seeds", "3", "--base-seed", "0", "--out", str(out)]) == 0
    got = {
        f"{name}/{p.relative_to(out)}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    want = {key: digest for key, digest in GOLDEN.items() if key.startswith(f"{name}/")}
    assert len(want) == 19
    assert sorted(got) == sorted(want)
    assert [key for key in sorted(want) if got[key] != want[key]] == []
