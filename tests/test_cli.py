import json

import numpy as np
import pytest

import fredreg as fr
from fredreg import cli
from fredreg.cli import main


class TestRun:
    def test_preset_run_writes_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--preset", "example1", "--seeds", "2", "--out", str(out)]) == 0
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "report.json",
                     "summary.json", "manifest.json"):
            assert (out / name).exists()
        text = capsys.readouterr().out
        assert "example1" in text and "bhat" in text

    def test_config_file_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "tiny",
            "signal": {"kind": "sine-combination", "terms": [[1.0, 2]]},
            "epsilon": 1e-4,
            "n_coeff": 64,
            "seeds": [0],
            "methods": ["k_alpha", "bhat"],
        }))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["name"] == "tiny"
        assert set(report["records"][0]["rel_l2"]) == {"k_alpha", "bhat"}

    @pytest.mark.parametrize("epsilon", [1e-3, 0.0])
    def test_runs_without_an_snr_write_strict_json(self, epsilon, tmp_path, capsys):
        # a zero signal has no signal power, a noiseless run no noise power: no finite SNR
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "signal": {"kind": "sine-combination", "terms": [[0.0, 1]]},
            "epsilon": epsilon, "n_coeff": 64, "grid_size": 129, "n_max": 16,
        }))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert "SNR n/a" in capsys.readouterr().out

        def no_constant(name):
            raise ValueError(f"{name} in JSON")

        for name in ("report.json", "summary.json", "manifest.json"):
            payload = json.loads((tmp_path / "o" / name).read_text(), parse_constant=no_constant)
            if name == "report.json":
                assert payload["records"][0]["snr_db"] is None
        assert main(["summarize", str(tmp_path / "o")]) == 0
        assert "SNR n/a" in capsys.readouterr().out

    def test_run_without_preset_or_config(self, capsys):
        assert main(["run"]) == 2

    def test_negative_base_seed_is_named(self, tmp_path, capsys):
        # the run failed inside numpy with "expected non-negative integer", naming neither the seed nor the flag
        assert main(["run", "--preset", "example1", "--base-seed", "-1", "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "fredreg run: error: base_seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    def test_run_no_out_prints_summary_only(self, capsys):
        assert main(["run", "--preset", "example1", "--seeds", "1"]) == 0
        assert "median" in capsys.readouterr().out

    def test_one_parser_per_process_keeps_no_arguments(self, tmp_path, capsys):
        # main reuses its parser: an option given to one call must not reach the next
        assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()
        out = tmp_path / "run"
        assert main(["run", "--preset", "example1", "--seeds", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", "--preset", "example1", "--seeds", "1"]) == 0
        assert "files in" not in capsys.readouterr().out


class TestAnalyze:
    def test_report_fields(self, tmp_path, capsys, es512, grid513, example1_seed0):
        ds, _, _ = example1_seed0
        csv_path = tmp_path / "coeffs.csv"
        fr.write_coeffs_csv(str(csv_path), ds.coeffs)
        assert main(["analyze", "--in", str(csv_path), "--epsilon", "1e-4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n0"] == 3
        assert payload["Q"] == [1, 2, 3]
        assert payload["I_k"] == [1, 2, 3, 4]
        assert payload["epsilon"] == 1e-4
        assert payload["noise_dispersion"] == pytest.approx(1e-4 / np.sqrt(3))
        assert set(payload) >= {"n0", "Q", "pairs", "I_k", "bound_ok", "compat_violations"}

    def test_write_report_and_autocorr(self, tmp_path, example1_seed0):
        ds, _, _ = example1_seed0
        csv_path = tmp_path / "coeffs.csv"
        fr.write_coeffs_csv(str(csv_path), ds.coeffs)
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", str(csv_path), "--epsilon", "1e-4",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n0"] == 3
        autocorr = out.with_suffix(".autocorr.csv")
        assert autocorr.read_text().splitlines()[0] == "n,delta,threshold0,threshold_n0"

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_epsilon_fails_before_writing(self, eps, tmp_path, capsys, example1_seed0):
        ds, _, _ = example1_seed0
        csv_path = tmp_path / "coeffs.csv"
        fr.write_coeffs_csv(str(csv_path), ds.coeffs)
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", str(csv_path), "--epsilon", eps, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"fredreg analyze: error: epsilon must be finite and >= 0, got {eps}")
        assert list(tmp_path.iterdir()) == [csv_path]

    @pytest.mark.parametrize("significance", ["-1", "nan"])
    def test_bad_significance_fails_before_writing(self, significance, tmp_path, capsys, example1_seed0):
        ds, _, _ = example1_seed0
        csv_path = tmp_path / "coeffs.csv"
        fr.write_coeffs_csv(str(csv_path), ds.coeffs)
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", str(csv_path), "--epsilon", "1e-4",
                     "--significance", significance, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("fredreg analyze: error: significance must be finite and > 0")
        assert list(tmp_path.iterdir()) == [csv_path]

    def test_literal_recursion_flag(self, tmp_path, capsys, example1_seed0):
        ds, _, _ = example1_seed0
        csv_path = tmp_path / "coeffs.csv"
        fr.write_coeffs_csv(str(csv_path), ds.coeffs)
        assert main(["analyze", "--in", str(csv_path), "--epsilon", "1e-4",
                     "--n0-test", "none"]) == 0
        assert json.loads(capsys.readouterr().out)["Q"] == [1, 2, 3]


class TestSummarize:
    def test_prints_table_from_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--preset", "example1", "--seeds", "2", "--out", str(out)])
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "median" in text and "k_alpha" in text

    def test_rederives_without_summary_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--preset", "example1", "--seeds", "1", "--out", str(out)])
        (out / "summary.json").unlink()
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 0
        assert "bhat" in capsys.readouterr().out

    def test_rederived_table_matches_summary_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--preset", "example2", "--seeds", "2", "--out", str(out)])
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 0
        with_summary = capsys.readouterr().out
        (out / "summary.json").unlink()
        assert main(["summarize", str(out)]) == 0
        assert capsys.readouterr().out == with_summary
        assert "selection:" in with_summary and "exact support match" in with_summary


def _record(*rows):
    return "".join(f"{row}\n" for row in ["k,g_bar_k", *rows])


# reproduction -> (the text of the input file, None for no file; argv, where FILE is that file's path;
#                  the message after "fredreg <command>: error: ", where FILE is the path)
BAD_INPUT = {
    "analyze a missing file": (
        None, ["analyze", "--in", "FILE", "--epsilon", "1e-3"], "[Errno 2] No such file or directory: 'FILE'",
    ),
    "analyze a record whose k=2 reads nan": (
        _record("1,0.5", "2,nan", *[f"{k},0.1" for k in range(3, 41)]),
        ["analyze", "--in", "FILE", "--epsilon", "1e-3"],
        "FILE, line 3: g_bar_k must be finite, got nan",
    ),
    "analyze a record of another header": (
        "n,value\n1,0.5\n", ["analyze", "--in", "FILE", "--epsilon", "1e-3"],
        "FILE: expected header 'k,g_bar_k', got 'n,value'",
    ),
    "analyze a two-row record": (
        _record("1,0.5", "2,0.25"), ["analyze", "--in", "FILE", "--epsilon", "1e-3"],
        "selection needs a record of at least 8 coefficients",
    ),
    "run no seeds": (None, ["run", "--preset", "example1", "--seeds", "0"], "seeds must be nonempty"),
    "run a config that is not JSON": (
        "{", ["run", "--config", "FILE"],
        "FILE: not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_is_one_error_line(case, tmp_path, capsys):
    # each ended in a traceback; the nan row named neither the file nor its line
    text, argv, message = BAD_INPUT[case]
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if arg == "FILE" else arg for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"fredreg {argv[0]}: error: {message.replace('FILE', str(path))}\n")
