"""Self-tests of the benchmark: the gate can fail, the tracer leaves no trace.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import fredreg  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every fredreg namespace and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "fredreg" or name.startswith("fredreg."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("fredreg"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(run.__file__)), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )


def test_perturbed_reference_fails_the_gate(tmp_path):
    reference = json.loads(Path(run.HERE / "reference.json").read_text())
    reference["mc-example3"]["outcomes"][0]["n0"] += 1
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(reference))
    out = _bench("--workload", "mc-example3", "--seconds", "0.1", "--reference", str(perturbed))
    assert out.returncode != 0
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "n0=" in out.stderr


def test_perturbed_csv_value_fails_the_gate(tmp_path):
    workload = workloads.CliExample1Emit(0, tmp_path)
    workload.setup()
    reference = gate.load_reference()["cli-example1-emit"]
    assert workload.finish(reference) == []
    delta = reference["csv"]["autocorr.csv"]["delta"]
    delta[3] *= 1 + 1e-7
    assert any("autocorr.csv:delta[3]" in e for e in workload.finish(reference))


def test_tracer_restores_every_patched_attribute():
    import fredreg.cli  # noqa: F401  every traced module is loaded before the snapshot

    before = _bindings()
    tr = tracer.Tracer()
    with tr:
        patched = _bindings()
        assert fredreg.harness.synthesize_dataset is not before[("fredreg.harness", "synthesize_dataset")]
        assert fredreg.synthesis.synthesize_dataset is fredreg.harness.synthesize_dataset
    after = _bindings()
    assert tr.missing == []
    assert sum(patched[k] is not v for k, v in before.items()) > len(tracer.BOUNDARIES)
    assert all(after[k] is v for k, v in before.items())
    assert after.keys() == before.keys()


def test_self_times_sum_to_traced_wall(tmp_path):
    workload = workloads.McExample3(0, tmp_path)
    workload.setup()
    loop, tr = run.Loop(workload), tracer.Tracer()
    with tr:
        for i in range(3):
            loop.step(i)
    assert loop.problems == []
    self_s = sum(own for _, _, own in tr.layer_times().values())
    assert self_s == pytest.approx(sum(loop.op_s), rel=0.05)
    metrics = tr.metrics(loop.records)
    assert metrics["harness.run_experiment.calls"][0] == 1 / workload.batch
    assert metrics["cli.main.calls"][0] == 0  # a boundary the workload never calls


def test_tail_percentile_leaves_ten_samples_beyond():
    p, value = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value) == (90, 90.0)
    assert run.tail_percentile([1.0] * 5) == (100, 1.0)
