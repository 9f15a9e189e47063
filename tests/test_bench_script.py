"""scripts/bench.py counts src/ code lines as the simplicity tally reads them, names failing tests and runs its probes.

Each RSS probe also reports the optional heavy modules its process loaded.
"""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
class A:
    """Class docstring."""

    x = """a multi-line string
    that is not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1 +
                2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, x = (2 lines), def, return (2 lines)
    assert bench.code_lines(SOURCE) == 7


SUMMARY = """\
FAILED tests/test_x.py::test_printed - AssertionError
.....F.E                                                                 [100%]
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::TestCriterion4::test_example2_exact_rate - A...
FAILED tests/test_acceptance.py::TestCriterion4::test_example4 - AssertionErr...
FAILED tests/test_a.py::test_p[x-1.5]
ERROR tests/test_b.py::test_fixture - RuntimeError: boom - twice
ERROR tests/test_c.py
3 failed, 4 passed, 2 errors in 1.00s
"""


def test_summary_ids_read_the_short_summary_lines():
    # the FAILED line before the summary header is captured output, not a result
    assert bench.summary_ids(SUMMARY) == {
        "failed_ids": [
            "tests/test_acceptance.py::TestCriterion4::test_example2_exact_rate",
            "tests/test_acceptance.py::TestCriterion4::test_example4",
            "tests/test_a.py::test_p[x-1.5]",
        ],
        "error_ids": ["tests/test_b.py::test_fixture", "tests/test_c.py"],
    }
    assert bench.summary_ids("5 passed in 0.10s\n") == {"failed_ids": [], "error_ids": []}


def test_float_cells_count_the_per_seed_floats(tmp_path):
    files = {
        "seeds/0/coefficients.csv": "k,g_bar_k\n1,0.5\n2,-1e-05\n",
        "seeds/0/solutions.csv": "x,f_true,bhat\n0.0,1.0,\n0.5,2.0,3.5\n",
        "seeds/1/autocorr.csv": "n,delta,threshold0\n0,1.0,\n1,,0.25\n2,nan,0.5\n",
        "solutions.csv": "x,f_true,bhat\n0.0,1.0,7.5\n",  # a top-level copy: not a seed's file
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # ints (k, n) are not counted, the seed-invariant x, f_true and threshold0 are left out, and empty
    # cells are skipped
    coefficients, solutions, (delta_0, delta_2) = bench.float_cells(tmp_path)
    assert coefficients == [0.5, -1e-05] and solutions == [3.5] and delta_0 == 1.0 and math.isnan(delta_2)
    count, seconds = bench.emission_floor(tmp_path)
    assert count == 5 and seconds >= 0.0


def test_window_estimator_times_both_paths_and_counts_the_lags_sent_to_the_loop(monkeypatch):
    import fredreg as fr
    from fredreg import selection

    table = bench.window_estimator(sizes=(32, 64), presets=("example2",), seeds=range(2), repeats=1)
    assert sorted(table) == ["presets", "uniform"] and sorted(table["uniform"]) == ["32", "64"]
    for row in [*table["uniform"].values(), *table["presets"].values()]:
        assert row["window"] == fr.default_max_lag(row["n_count"])
        assert row["new_us"] > 0 and row["loop_us"] > 0 and row["loop_share"] == 0.0
    assert table["presets"]["example2"]["n_count"] == 512
    # with a bound no estimate meets, every lag of the window goes to the loop, and the loop is restored
    monkeypatch.setattr(selection, "_window_tol", lambda n_count: -1.0)
    lag_delta = selection._lag_delta
    table = bench.window_estimator(sizes=(32,), presets=(), seeds=range(2), repeats=1)
    assert table["uniform"]["32"]["loop_share"] == 1.0 and selection._lag_delta is lag_delta


def test_numeric_eigensystem_probe_times_and_measures_the_workload_set_up():
    # one code for both probes: a fresh `import fredreg` and the numeric-kernel workload's eigensystem
    code = bench.RSS_PROBES["numeric_eigensystem_513"]
    assert bench.WALL_PROBES["numeric_eigensystem_513"][1:] == ["-c", code]
    assert "simpson_grid(513)), 64)" in code
    root = Path(bench.__file__).resolve().parents[1]
    assert bench.wall_time(bench.WALL_PROBES["numeric_eigensystem_513"], root) > 0.0
    mb, loaded = bench.rss_probe(code, root)
    assert mb > 0.0 and loaded == []


def test_example3_probe_measures_a_sine_combination_run():
    for name in ("example1", "example3"):
        code = bench.RSS_PROBES[f"run_experiment_{name}_100"]
        assert code.endswith(f'run_experiment(preset("{name}", seeds=range(100)))')
    mb, loaded = bench.rss_probe(code, Path(bench.__file__).resolve().parents[1])
    # the noise draws load numpy.random, which loads hashlib; without --out no autocorr.csv tail needs numpy.fft
    assert mb > 0.0 and loaded == ["hashlib", "numpy.random"]


def test_emitting_cli_probe_writes_100_seeds_and_loads_no_numpy_ma():
    code = bench.RSS_PROBES["run_example1_out_100"]
    assert 'main(["run", "--preset", "example1", "--seeds", "100", "--out", out])' in code
    mb, loaded = bench.rss_probe(code, Path(bench.__file__).resolve().parents[1])
    # autocorr.csv's tail loads numpy.fft; the summary's quartiles load no numpy.ma
    assert mb > 0.0 and loaded == ["hashlib", "numpy.fft", "numpy.random"]


def test_long_record_probe_holds_no_second_record_table():
    code = bench.RSS_PROBES["run_experiment_f1_2048_4097"]
    assert "n_coeff=2048, grid_size=4097, seeds=range(5)" in code
    mb, loaded = bench.rss_probe(code, Path(bench.__file__).resolve().parents[1])
    # the 2048 x 4097 table is 67 MB: one transient copy of it fits, two (about 160 MB) do not
    assert 67.0 < mb < 125.0 and loaded == ["hashlib", "numpy.random"]


def test_an_rss_probe_reads_its_own_peak_not_the_spawners():
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page: this process's RSS is now > 64 MB
    mb, loaded = bench.rss_probe("", Path(bench.__file__).resolve().parents[1])
    assert mb < 48.0 and loaded == []


def test_heavy_modules_are_the_listed_ones_and_scipy_public_subpackages():
    names = ["sys", "hashlib", "_hashlib", "numpy", "numpy.fft", "numpy.fft._pocketfft", "numpy.ma", "numpy.ma.core",
             "numpy.random", "scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy._lib", "scipy.special", "scipyx"]
    assert bench.heavy_modules(names) == [
        "hashlib", "numpy.fft", "numpy.ma", "numpy.random", "scipy", "scipy.sparse", "scipy.special"]
