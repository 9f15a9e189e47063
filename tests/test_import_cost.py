"""What `import fredreg`, a default run and a 513-point numeric eigensystem load.

None of them loads scipy.  The portmanteau gate's chi-square quantile comes
from a table at the default level, so scipy.special loads only for another
significance or a larger df.  numeric_eigensystem solves grids up to the
default 513 points with numpy's dense eigh, so scipy.sparse loads only on the
first Lanczos solve, for a few eigenpairs of a larger grid.

Neither `import fredreg` nor the numeric eigensystem loads hashlib (which
maps OpenSSL's libcrypto) or numpy.fft: hashlib loads on the first digest
(config_hash, a seed file's sha256), and numpy.fft on the first autocorr.csv
tail.  A run that draws noise still loads hashlib, through numpy.random.
A CLI run that emits loads no numpy.ma: the summary's median and quartiles
come from one sorted list, not np.percentile, which reaches np.unique.
The checks run in a fresh interpreter because other test modules import
these modules into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULT_RUN = """
import numpy as np
fr.run_experiment(fr.preset("example1", seeds=(0, 1, 2)))
noise = np.random.default_rng(0).normal(size=256)
for record in (noise, noise.cumsum()):  # the gate passes the first and consults the chi-square table on the second
    for mode in ("portmanteau", "none"):
        fr.build_selection(record, randomness_test=mode)
"""
# the numeric-kernel benchmark's set-up: 64 eigenpairs of the sampled kernel on 513 points
NUMERIC_513 = "fr.numeric_eigensystem(fr.sample_kernel_matrix(fr.simpson_grid(513)), 64)"
HASHLIB_OR_FFT = ("hashlib", "_hashlib", "numpy.fft")
# `fredreg run --preset example1 --seeds 3 --out D`, its printed summary discarded
CLI_RUN_OUT = """
import contextlib, io, tempfile
from fredreg.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    main(["run", "--preset", "example1", "--seeds", "3", "--out", out])
"""


def modules_after(code: str, packages: tuple[str, ...] = ("scipy",)) -> list[str]:
    """What `import fredreg as fr` and then `code` print, then the loaded modules in packages, in a fresh interpreter."""
    subpackages = tuple(p + "." for p in packages)
    probe = (f"import sys\nimport fredreg as fr\n{code}\n"
             f"print(*sorted(m for m in sys.modules if m in {packages!r} or m.startswith({subpackages!r})))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_fredreg_loads_no_stats_linalg_or_sparse():
    assert modules_after("") == []


def test_a_default_run_loads_no_scipy():
    assert modules_after(DEFAULT_RUN) == []


def test_a_chi2_level_off_the_table_loads_scipy_special_only():
    loaded = modules_after("from fredreg.selection import _chi2_critical\n_chi2_critical(0.99, 5)")
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.stats", "scipy.linalg", "scipy.sparse"))]


def test_a_default_size_numeric_eigensystem_loads_no_scipy():
    assert modules_after(NUMERIC_513) == []


def test_import_fredreg_loads_neither_hashlib_nor_numpy_fft():
    assert modules_after("", HASHLIB_OR_FFT) == []


def test_a_default_size_numeric_eigensystem_loads_neither_hashlib_nor_numpy_fft():
    assert modules_after(NUMERIC_513, HASHLIB_OR_FFT) == []


def test_config_hash_loads_hashlib_and_keeps_its_digest():
    code = "print(fr.config_hash(fr.preset('example1')))"
    digest, *loaded = modules_after(code, ("hashlib",))
    assert digest == "ca838af5d571080b56ff04ccd491a45ecf5197115e63e8dc875f90e670cbe628"
    assert loaded == ["hashlib"]


def test_a_cli_run_that_emits_loads_no_numpy_ma():
    assert modules_after(CLI_RUN_OUT, ("numpy.ma",)) == []
