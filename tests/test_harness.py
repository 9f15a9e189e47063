import json

import numpy as np
import pytest

import fredreg as fr
from fredreg.harness import ExperimentConfig, config_hash, preset


class TestExperimentConfig:
    def test_presets_encode_legend_parameters(self):
        p1 = preset("example1")
        assert (p1.signal.name, p1.epsilon, p1.n_coeff) == ("f1", 1e-4, 512)
        p2 = preset("example2")
        assert (p2.signal.name, p2.epsilon, p2.n_coeff) == ("f2", 3e-3, 512)
        p3 = preset("example3")
        assert (p3.signal.name, p3.epsilon, p3.n_coeff) == ("f3", 1e-3, 1024)
        p4 = preset("example4")
        assert (p4.signal.name, p4.epsilon, p4.n_coeff) == ("f4", 1e-4, 512)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("example9")

    def test_validation(self):
        sig = fr.SignalSpec.named("f1")
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, grid_size=64)
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, methods=("magic",))
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, dispersion_mode="rms")

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=epsilon)

    @pytest.mark.parametrize("field", ["E_override", "c1_override"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_overrides_must_be_finite_and_positive(self, field, value):
        sig = fr.SignalSpec.named("f1")
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(signal=sig, epsilon=1e-4, **{field: value})
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json_dict({"signal": sig.to_json_dict(), "epsilon": 1e-4, field: value})

    def test_valid_overrides_run(self):
        sig = fr.SignalSpec.named("f1")
        cfg = ExperimentConfig(signal=sig, epsilon=1e-4, E_override=0.5, c1_override=0.25)
        (rec,) = fr.run_experiment(cfg)
        assert rec.failures == {}
        assert rec.k_alpha > 0 and rec.k0 > 0

    def test_dispersion_modes(self):
        sig = fr.SignalSpec.named("f1")
        a = ExperimentConfig(signal=sig, epsilon=3e-3)
        assert a.dispersion() == pytest.approx(3e-3 / np.sqrt(3))
        b = ExperimentConfig(signal=sig, epsilon=3e-3, dispersion_mode="eps")
        assert b.dispersion() == 3e-3

    def test_json_roundtrip_and_hash(self):
        cfg = preset("example2", seeds=(0, 1, 2))
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert config_hash(back) == config_hash(cfg)
        other = preset("example2", seeds=(0, 1, 3))
        assert config_hash(other) != config_hash(cfg)

    def test_unknown_json_key_rejected(self):
        d = {**preset("example1").to_json_dict(), "n_coef": 64}
        with pytest.raises(ValueError, match="n_coef"):
            ExperimentConfig.from_json_dict(d)

    def test_absent_json_keys_take_field_defaults(self):
        sig = fr.SignalSpec.named("f1")
        cfg = ExperimentConfig.from_json_dict({"signal": sig.to_json_dict(), "epsilon": 1e-4})
        assert cfg == ExperimentConfig(signal=sig, epsilon=1e-4)

    def test_hash_ignores_output_dir(self):
        a = preset("example1", output_dir="/tmp/a")
        b = preset("example1", output_dir="/tmp/b")
        assert config_hash(a) == config_hash(b)


@pytest.fixture(scope="module")
def example1_records():
    cfg = preset("example1", seeds=(0, 1))
    return cfg, fr.run_experiment(cfg)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = preset("example1", seeds=(0, 1), output_dir=str(out))
    records = fr.run_experiment(cfg)
    summary = fr.summarize(records, true_support=None)
    files = fr.emit_outputs(records, summary, cfg)
    return out, cfg, files


class TestRunExperiment:
    def test_example1_record_contents(self, example1_records):
        _, records = example1_records
        rec = records[0]
        assert rec.k_alpha == 8
        assert rec.snr_db == pytest.approx(25.7, abs=1.0)
        assert rec.selection is not None
        assert rec.selection.I_k == [1, 2, 3, 4]
        assert set(rec.rel_l2) == set(fr.ALL_METHODS)
        assert all(e >= 0 and np.isfinite(e) for e in rec.rel_l2.values())

    def test_blp_equals_tikhonov_identity(self, example1_records):
        _, records = example1_records
        for rec in records:
            assert rec.rel_l2["blp"] == pytest.approx(rec.rel_l2["tikhonov_identity"], rel=1e-12)

    def test_noiseless_exactness_bandlimited(self):
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.named("f2"), epsilon=0.0, n_coeff=512, seeds=(0,),
            methods=("k_alpha", "k_beta", "f0", "bhat"),
        )
        rec = fr.run_experiment(cfg)[0]
        assert rec.selection.I_k == [3, 7, 13]
        for method in ("k_alpha", "k_beta", "f0", "bhat"):
            assert rec.rel_l2[method] < 1e-6

    def test_method_failure_is_contained(self):
        # 6-coefficient record is too short for the selection pipeline
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.named("f1"), epsilon=1e-4, n_coeff=6, seeds=(0,),
            methods=("bhat", "k_alpha"),
        )
        rec = fr.run_experiment(cfg)[0]
        assert "bhat" in rec.failures
        assert "k_alpha" in rec.rel_l2

    def test_determinism(self):
        cfg = preset("example4", seeds=(5,))
        a = fr.run_experiment(cfg)[0]
        b = fr.run_experiment(cfg)[0]
        assert a.rel_l2 == b.rel_l2
        assert a.selection.I_k == b.selection.I_k

    def test_alternate_dispersion_mode(self):
        # D_eps = eps instead of eps/sqrt(3) shrinks the cutoff: 8 -> 7
        cfg = preset("example1", seeds=(0,))
        cfg = ExperimentConfig.from_json_dict(
            {**cfg.to_json_dict(), "dispersion_mode": "eps", "methods": ["k_alpha"]}
        )
        assert fr.run_experiment(cfg)[0].k_alpha == 7

    def test_pointwise_noise_mode(self):
        # grid-noise mode: the projected coefficient noise floor drops by
        # ~sqrt(h), so far more components clear the selection threshold
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.named("f1"), epsilon=1e-4, n_coeff=128,
            seeds=(0,), methods=("bhat", "k_alpha"), noise_mode="pointwise",
        )
        rec = fr.run_experiment(cfg)[0]
        assert not rec.failures
        assert rec.selection.I_k  # selects a superset of the coefficient-mode {1,2,3,4}
        assert set(rec.selection.I_k) >= {1, 2, 3}

    def test_example4_bhat_vs_full_filter(self):
        # frozen Monte-Carlo facts: the fourth signal keeps ~24% of its energy
        # above k = 16 where eps = 1e-4 buries it, so the selective estimate
        # and the smoothed filter both plateau near 0.7 relative error and
        # neither dominates (bhat wins ~48% of seeds over 100)
        cfg = preset("example4", seeds=tuple(range(30)))
        cfg = ExperimentConfig.from_json_dict(
            {**cfg.to_json_dict(), "methods": ["tikhonov_full", "bhat"]}
        )
        records = fr.run_experiment(cfg)
        bhat = np.median([r.rel_l2["bhat"] for r in records])
        tik = np.median([r.rel_l2["tikhonov_full"] for r in records])
        assert 0.55 <= bhat <= 0.85
        assert 0.55 <= tik <= 0.85
        wins = np.mean([r.rel_l2["bhat"] < r.rel_l2["tikhonov_full"] for r in records])
        assert 0.2 <= wins <= 0.8


class TestSummarize:
    def test_single_record(self):
        cfg = preset("example1", seeds=(3,))
        records = fr.run_experiment(cfg)
        summary = fr.summarize(records)
        stats = summary["methods"]["bhat"]
        assert stats["n"] == 1
        assert stats["median"] == stats["q25"] == stats["q75"] == records[0].rel_l2["bhat"]

    def test_support_match_fraction(self):
        cfg = preset("example2", seeds=tuple(range(4)))
        records = fr.run_experiment(cfg)
        summary = fr.summarize(records, true_support=cfg.signal.support())
        sel = summary["selection"]
        assert 0.0 <= sel["exact_support_fraction"] <= 1.0
        assert sel["true_support"] == [3, 7, 13]

    def test_missing_method_column_omitted(self):
        cfg = preset("example1", seeds=(0,))
        cfg = ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "methods": ["k_alpha"]})
        summary = fr.summarize(fr.run_experiment(cfg))
        assert list(summary["methods"]) == ["k_alpha"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            fr.summarize([])


class TestEmitOutputs:
    def test_structural_files_exist_and_parse(self, emitted):
        out, _, _ = emitted
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv"):
            assert (out / name).exists()
        json.loads((out / "report.json").read_text())
        json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"]
        for rel in manifest["files"]:
            assert (out / rel).exists()

    def test_per_seed_directories(self, emitted):
        out, cfg, _ = emitted
        for seed in cfg.seeds:
            assert (out / "seeds" / str(seed) / "autocorr.csv").exists()

    def test_solutions_schema(self, emitted):
        out, cfg, _ = emitted
        lines = (out / "solutions.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["x", "f_true"]
        assert set(header[2:]) == set(fr.ALL_METHODS)
        assert len(lines) == 1 + cfg.grid_size

    def test_autocorr_schema(self, emitted):
        out, cfg, _ = emitted
        lines = (out / "autocorr.csv").read_text().splitlines()
        assert lines[0] == "n,delta,threshold0,threshold_n0"
        assert len(lines) == 1 + cfg.n_coeff

    def test_top_level_files_copy_the_first_seed(self, emitted):
        out, cfg, files = emitted
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv"):
            first = out / "seeds" / str(cfg.seeds[0]) / name
            assert (out / name).read_bytes() == first.read_bytes()
            assert files.count(out / name) == 1

    def test_stale_files_stay_out_of_the_manifest(self, tmp_path):
        (tmp_path / "seeds" / "0").mkdir(parents=True)
        (tmp_path / "stale.csv").write_text("old\n")
        (tmp_path / "seeds" / "0" / "stale.csv").write_text("old\n")
        cfg = preset("example1", seeds=(0,), output_dir=str(tmp_path))
        records = fr.run_experiment(cfg)
        fr.emit_outputs(records, fr.summarize(records), cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not [f for f in manifest["files"] if "stale" in f]
        assert len(manifest["files"]) == 10

    def test_report_excludes_wall_time(self, emitted):
        out, _, _ = emitted
        report = json.loads((out / "report.json").read_text())
        assert "wall_time_s" not in report["records"][0]

    def test_byte_identical_rerun(self, emitted, tmp_path):
        out, cfg, _ = emitted
        cfg2 = preset("example1", seeds=(0, 1), output_dir=str(tmp_path / "rerun"))
        records = fr.run_experiment(cfg2)
        fr.emit_outputs(records, fr.summarize(records, true_support=None), cfg2)
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv",
                     "report.json", "summary.json", "manifest.json"):
            assert (tmp_path / "rerun" / name).read_bytes() == (out / name).read_bytes()
