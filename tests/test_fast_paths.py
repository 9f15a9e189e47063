"""Fast paths against the slow paths they replaced, bit for bit.

Each oracle below is the former implementation written out: the basis built
one index at a time, reconstruction summed one eigenfunction at a time, a
dataset synthesized from scratch (g_k projected, g and the noise series each
summed over a fresh basis build) for every seed, and the selection steps
(randomness gate, n0 recursion, Q, autocorr.csv rows) walking one lag at a
time with one scalar Bartlett standard error per lag.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import fredreg as fr
from fredreg.selection import _passes_randomness_gate

SETTINGS = settings(max_examples=30, deadline=None)

unit_points = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=80
).map(lambda xs: np.array(xs))


def sine_rows(ks, x):
    return np.vstack([np.sqrt(2.0) * np.sin(k * np.pi * x) for k in ks])


@pytest.fixture(scope="module")
def numeric_es():
    grid = fr.simpson_grid(129)
    return grid, fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), 12)


class TestBasisTable:
    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_analytic_grid_table_matches_rows(self, n):
        grid = fr.simpson_grid(513)
        es = fr.analytic_eigensystem(n)
        assert np.array_equal(es.basis_matrix(grid.points), sine_rows(range(1, n + 1), grid.points))

    @SETTINGS
    @given(x=unit_points, upto=st.integers(1, 512))
    def test_analytic_random_points(self, es512, x, upto):
        table = es512.basis_matrix(x, upto)
        assert np.array_equal(table, sine_rows(range(1, upto + 1), x))
        assert np.array_equal(es512.eigenfunction(upto, x), table[-1])

    @SETTINGS
    @given(x=unit_points, upto=st.integers(1, 12))
    def test_numeric_matches_per_row_interp(self, numeric_es, x, upto):
        grid, es = numeric_es
        nodes = es.basis_matrix(grid.points)  # np.interp returns the node values exactly
        rows = np.vstack([np.interp(x, grid.points, nodes[k - 1]) for k in range(1, upto + 1)])
        assert np.array_equal(es.basis_matrix(x, upto), rows)

    def test_eigenfunction_keeps_the_shape_of_x(self, es64):
        assert es64.eigenfunction(2, 0.25).shape == ()
        assert es64.eigenfunction(2, np.zeros((2, 3))).shape == (2, 3)


def sequential_sum(coeffs, row, size):
    out = np.zeros(size)
    for k, v in coeffs:
        out += v * row(k)
    return out


terms = st.lists(
    st.tuples(st.integers(1, 64), st.floats(-1e3, 1e3, allow_nan=False)),
    max_size=40, unique_by=lambda t: t[0],
)


class TestReconstruct:
    @SETTINGS
    @given(coeffs=terms)
    def test_analytic_term_by_term(self, es64, grid513, coeffs):
        want = sequential_sum(coeffs, lambda k: sine_rows([k], grid513.points)[0], grid513.size)
        assert np.array_equal(fr.reconstruct(coeffs, es64, grid513), want)

    @SETTINGS
    @given(coeffs=terms.map(lambda ts: [(k, v) for k, v in ts if k <= 12]))
    def test_numeric_term_by_term(self, numeric_es, coeffs):
        grid, es = numeric_es
        want = sequential_sum(coeffs, lambda k: es.eigenfunction(k, grid.points), grid.size)
        assert np.array_equal(fr.reconstruct(coeffs, es, grid), want)

    def test_index_checked(self, es64, grid513):
        with pytest.raises(IndexError):
            fr.reconstruct([(1, 1.0), (65, 1.0)], es64, grid513)


def synthesize_from_scratch(signal, es, grid, epsilon, seed, n_coeff, noise_mode):
    """The former per-seed synthesis: (g_bar, coeffs, f_vals, g_coeffs)."""
    f_vals = fr.evaluate_signal(signal, grid)
    g_coeffs = fr.forward_coeffs(f_vals, es, grid, n_coeff)
    upto = min(n_coeff, grid.size - 2)
    g_vals = g_coeffs[:upto] @ es.basis_matrix(grid.points, upto)
    rng = np.random.default_rng(seed)
    if noise_mode == "coefficient":
        u = rng.uniform(-epsilon, epsilon, n_coeff)
        return g_vals + u[:upto] @ es.basis_matrix(grid.points, upto), g_coeffs + u, f_vals, g_coeffs
    g_bar = g_vals + rng.uniform(-epsilon, epsilon, grid.size)
    return g_bar, fr.project_all(g_bar, es, grid, n_coeff), f_vals, g_coeffs


def run_cfg(name, noise_mode):
    cfg = fr.preset(name)
    return fr.ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "noise_mode": noise_mode})


# example3 records 1024 coefficients on a 513-point grid: n_coeff > grid_size - 2
CASES = [(name, mode) for name in ("example1", "example3") for mode in ("coefficient", "pointwise")]


@pytest.fixture(scope="module")
def contexts():
    return {case: fr.run_context(run_cfg(*case)) for case in CASES}


class TestRunContextDatasets:
    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_draw_matches_synthesis_from_scratch(self, contexts, case, seed):
        cfg, ctx = run_cfg(*case), contexts[case]
        data = ctx.data
        g_bar, coeffs, f_vals, g_coeffs = synthesize_from_scratch(
            cfg.signal, data.es, data.grid, cfg.epsilon, seed, cfg.n_coeff, cfg.noise_mode
        )
        ds = data.draw(cfg.epsilon, seed, cfg.noise_mode)
        assert np.array_equal(ds.g_bar, g_bar) and np.array_equal(ds.coeffs, coeffs)
        assert np.array_equal(data.f_vals, f_vals) and np.array_equal(data.g_coeffs, g_coeffs)
        lib, lib_f, lib_g = fr.synthesize_dataset(
            cfg.signal, data.es, data.grid, cfg.epsilon, seed, cfg.n_coeff, cfg.noise_mode
        )
        assert np.array_equal(lib.g_bar, g_bar) and np.array_equal(lib.coeffs, coeffs)
        assert np.array_equal(lib_f, f_vals) and np.array_equal(lib_g, g_coeffs)

    def test_records_keep_their_datasets(self):
        cfg = fr.preset("example1", seeds=(4, 5))
        records = fr.run_experiment(cfg)
        for rec in records:
            ds = rec.context.data.draw(cfg.epsilon, rec.seed)
            assert np.array_equal(rec.dataset.coeffs, ds.coeffs)
            assert rec.context is records[0].context


def former_stderr(series, n0, n):
    head = series.delta[1 : n0 + 1]
    s = float(np.nansum(head**2)) if head.size else 0.0
    return math.sqrt((1.0 + 2.0 * s) / (series.n_count - n))


def former_gate(series, top, significance, level):
    z2 = []
    exceed = False
    for n in range(1, top + 1):
        d = series.delta[n]
        if not np.isfinite(d):
            continue
        z = d / former_stderr(series, 0, n)
        z2.append(z * z)
        if abs(z) > significance:
            exceed = True
    if not exceed:
        return True
    return float(np.sum(z2)) <= float(chi2.ppf(level, len(z2)))


def former_detect_n0(series, significance, max_lag, randomness_test):
    if max_lag is None:
        max_lag = fr.default_max_lag(series.n_count)
    top = min(max_lag, series.n_count - 1)
    if randomness_test == "portmanteau":
        level = math.erf(significance / math.sqrt(2.0))
        if former_gate(series, top, significance, level):
            return 0
    nbar = 0
    while True:
        nxt = 0
        for n in range(nbar + 1, top + 1):
            d = series.delta[n]
            if not np.isfinite(d):
                continue
            if abs(d) > significance * former_stderr(series, nbar, n):
                nxt = n
                break
        if nxt == 0:
            return nbar
        nbar = nxt


def former_build_Q(series, n0, significance):
    out = []
    for n in range(1, n0 + 1):
        d = series.delta[n]
        if np.isfinite(d) and abs(d) > significance * former_stderr(series, 0, n):
            out.append(n)
    return out


def former_autocorr_csv(series, n0, significance):
    rows = ["n,delta,threshold0,threshold_n0\n"]
    for n in range(series.n_count):
        d = series.delta[n]
        dtxt = repr(float(d)) if np.isfinite(d) else ""
        t0 = repr(significance * former_stderr(series, 0, n)) if n >= 1 else ""
        tn = repr(significance * former_stderr(series, n0, n)) if n > n0 else ""
        rows.append(f"{n},{dtxt},{t0},{tn}\n")
    return "".join(rows)


@st.composite
def handmade_series(draw):
    """delta drawn directly: any scale up to 1, with undefined (NaN) lags."""
    n_count = draw(st.integers(8, 120))
    scale = draw(st.sampled_from([0.01, 0.05, 0.2, 1.0]))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_count, max_size=n_count))
    delta = scale * np.array(values)
    delta[0] = 1.0
    delta[draw(st.lists(st.integers(0, n_count - 1), max_size=n_count // 3))] = np.nan
    return fr.AutocorrSeries(delta=delta, n_count=n_count)


@st.composite
def threshold_series(draw):
    """Lags exactly on, or well off, the fully-random threshold at SIGNIFICANCE."""
    n_count = draw(st.integers(8, 120))
    factors = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=n_count, max_size=n_count))
    sigma0 = np.sqrt(1.0 / (n_count - np.arange(n_count)))
    delta = np.clip(np.array(factors) * fr.SIGNIFICANCE * sigma0, -1.0, 1.0)
    delta[0] = 1.0
    return fr.AutocorrSeries(delta=delta, n_count=n_count)


# small-integer records repeat values, so constant windows leave NaN lags
estimated_series = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=120),
    st.lists(st.integers(-2, 2).map(float), min_size=8, max_size=120),
).map(lambda g: fr.autocorr_estimate(np.array(g)))

any_series = st.one_of(handmade_series(), estimated_series)
significances = st.sampled_from([1.0, fr.SIGNIFICANCE, 2.576])


class TestBartlettBand:
    @SETTINGS
    @given(series=any_series, data=st.data())
    def test_band_matches_scalar_lags(self, series, data):
        n0 = data.draw(st.integers(0, series.n_count - 2))
        lags = np.arange(n0 + 1, series.n_count)
        band = fr.bartlett_stderr(series, n0, lags)
        assert band.tolist() == [former_stderr(series, n0, n) for n in lags]
        assert band.tolist() == [fr.bartlett_stderr(series, n0, int(n)) for n in lags]
        assert isinstance(fr.bartlett_stderr(series, n0, int(lags[0])), float)

    @SETTINGS
    @given(series=handmade_series(), data=st.data())
    def test_array_with_a_bad_lag_raises(self, series, data):
        n_count = series.n_count
        n0 = data.draw(st.integers(0, n_count - 2))
        good = data.draw(st.lists(st.integers(n0 + 1, n_count - 1), max_size=10))
        bad = data.draw(st.one_of(st.integers(-5, n0), st.integers(n_count, n_count + 5)))
        lags = np.array(good[:1] + [bad] + good[1:])
        with pytest.raises(ValueError):
            fr.bartlett_stderr(series, n0, lags)

    @SETTINGS
    @given(series=any_series, significance=significances, data=st.data())
    def test_randomness_gate(self, series, significance, data):
        top = data.draw(st.integers(0, series.n_count - 1))
        level = math.erf(significance / math.sqrt(2.0))
        got = _passes_randomness_gate(series, top, significance, level)
        assert got == former_gate(series, top, significance, level)

    @SETTINGS
    @given(
        series=any_series,
        significance=significances,
        mode=st.sampled_from(["portmanteau", "none"]),
        data=st.data(),
    )
    def test_detect_n0(self, series, significance, mode, data):
        max_lag = data.draw(st.none() | st.integers(1, series.n_count - 1))
        got = fr.detect_n0(series, significance, max_lag, mode)
        assert got == former_detect_n0(series, significance, max_lag, mode)

    @SETTINGS
    @given(series=any_series, significance=significances, data=st.data())
    def test_build_Q(self, series, significance, data):
        n0 = data.draw(st.integers(0, fr.default_max_lag(series.n_count)))
        got = fr.build_Q(series, n0, significance)
        assert got == former_build_Q(series, n0, significance)
        assert all(type(n) is int for n in got)

    @SETTINGS
    @given(series=threshold_series(), data=st.data())
    def test_lags_on_the_threshold_are_not_significant(self, series, data):
        n0 = data.draw(st.integers(0, series.n_count - 1))
        assert fr.build_Q(series, n0) == former_build_Q(series, n0, fr.SIGNIFICANCE)
        for mode in ("portmanteau", "none"):
            got = fr.detect_n0(series, randomness_test=mode)
            assert got == former_detect_n0(series, fr.SIGNIFICANCE, None, mode)

    @SETTINGS
    @given(series=any_series, significance=significances, data=st.data())
    def test_autocorr_csv_rows(self, series, significance, data, tmp_path_factory):
        n0 = data.draw(st.integers(0, series.n_count - 1))
        report = fr.SelectionReport(
            n0=n0, Q=[], n_c=0, pairs=[], I_k=[], bound_ok=True, compat_ok=True,
            compat_violations=[], series=series, significance=significance,
        )
        path = tmp_path_factory.mktemp("csv") / "autocorr.csv"
        report.write_autocorr_csv(str(path))
        assert path.read_text() == former_autocorr_csv(series, n0, significance)
