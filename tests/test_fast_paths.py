"""Fast paths against the slow paths they replaced, bit for bit.

Each oracle below is the former implementation written out: the basis built
one index at a time, reconstruction summed one eigenfunction at a time, a
dataset synthesized from scratch (g_k projected, g and the noise series each
summed over a fresh basis build) for every seed, the selection steps
(randomness gate, n0 recursion, Q, autocorr.csv rows) walking one lag at a
time with one scalar Bartlett standard error per lag, the seven spectral
methods each dividing gbar_k by lam_k on its own, and each CSV written by
its own row loop (solutions.csv from a fresh to_grid per method).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import fredreg as fr
from fredreg.harness import METHODS
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


def former_tikhonov_full(data, es, cs):
    n = min(es.count, data.n_coeff)
    lam = es.eigenvalues[:n]
    c = cs.spectrum(n)
    vals = lam * data.coeffs[:n] / (lam**2 + (cs.alpha * c) ** 2)
    return fr.RegularizedSolution(
        indices=np.arange(1, n + 1), values=vals, method="tikhonov_full",
        params={"E": cs.E, "eps": cs.eps, "alpha": cs.alpha},
    )


def former_truncated_k_alpha(data, es, cs):
    n = min(es.count, data.n_coeff)
    lam = es.eigenvalues[:n]
    c = cs.spectrum(n)
    qualifies = lam >= cs.alpha * np.abs(c)
    k_alpha = int(np.nonzero(qualifies)[0].max() + 1) if qualifies.any() else 0
    vals = data.coeffs[:k_alpha] / lam[:k_alpha]
    return fr.RegularizedSolution(
        indices=np.arange(1, k_alpha + 1), values=vals, method="truncated_k_alpha",
        params={"E": cs.E, "eps": cs.eps, "alpha": cs.alpha, "k_alpha": k_alpha},
    )


def former_tikhonov_identity(data, es, E, eps):
    n = min(es.count, data.n_coeff)
    lam = es.eigenvalues[:n]
    alpha = eps / E
    vals = lam * data.coeffs[:n] / (lam**2 + alpha**2)
    return fr.RegularizedSolution(
        indices=np.arange(1, n + 1), values=vals, method="tikhonov_identity",
        params={"E": E, "eps": eps, "alpha": alpha},
    )


def former_truncated_k_beta(data, es, E, eps):
    n = min(es.count, data.n_coeff)
    lam = es.eigenvalues[:n]
    alpha = eps / E
    qualifies = lam >= alpha
    k_beta = int(np.nonzero(qualifies)[0].max() + 1) if qualifies.any() else 0
    vals = data.coeffs[:k_beta] / lam[:k_beta]
    return fr.RegularizedSolution(
        indices=np.arange(1, k_beta + 1), values=vals, method="truncated_k_beta",
        params={"E": E, "eps": eps, "alpha": alpha, "k_beta": k_beta},
    )


def former_profile(data, es):
    n = min(es.count, data.n_coeff)
    return np.cumsum((data.coeffs[:n] / es.eigenvalues[:n]) ** 2)


def former_f0_approximation(data, es, c1):
    k0 = int(np.searchsorted(former_profile(data, es), c1, side="right"))
    vals = data.coeffs[:k0] / es.eigenvalues[:k0]
    return fr.RegularizedSolution(
        indices=np.arange(1, k0 + 1), values=vals, method="norm_budget_cutoff",
        params={"c1": c1, "k0": k0},
    )


def former_reconstruct_bhat(data, es, report):
    if report.I_k and report.I_k[-1] > es.count:
        raise IndexError("selected index exceeds eigensystem count")
    idx = np.asarray(report.I_k, dtype=int)
    vals = data.coeffs[idx - 1] / es.eigenvalues[idx - 1] if idx.size else np.empty(0)
    return fr.RegularizedSolution(
        indices=idx, values=vals, method="autocorrelation_selection",
        params={"n0": report.n0, "Q": list(report.Q), "bound_ok": report.bound_ok,
                "compat_ok": report.compat_ok},
    )


def former_classified_solution(data, es, vp):
    informative, _ = fr.classify_components(es, vp)
    keep = [k for k in informative if k <= data.n_coeff]
    idx = np.asarray(keep, dtype=int)
    vals = data.coeffs[idx - 1] / es.eigenvalues[idx - 1] if idx.size else np.empty(0)
    return fr.RegularizedSolution(
        indices=idx, values=vals, method="classified_components", params={"eps": vp.eps}
    )


def former_coeffs_csv(coeffs):
    rows = ["k,g_bar_k\n"]
    for k, c in enumerate(np.asarray(coeffs, dtype=float).tolist(), start=1):
        rows.append(f"{k},{c!r}\n")
    return "".join(rows)


def former_profile_csv(values):
    rows = ["m,M\n"]
    for m, v in enumerate(np.asarray(values).tolist(), start=1):
        rows.append(f"{m},{v!r}\n")
    return "".join(rows)


def former_solution_csv(sol):
    rows = ["k,coefficient\n"]
    for k, v in sol.coeffs:
        rows.append(f"{k},{v!r}\n")
    return "".join(rows)


def former_solutions_csv(record, solutions):
    ctx = record.context
    grid, f_vals = ctx.data.grid, ctx.data.f_vals
    columns = ["x", "f_true"] + sorted(solutions)
    grids = {name: sol.to_grid(ctx.es, grid) for name, sol in solutions.items()}
    rows = [",".join(columns) + "\n"]
    for i, x in enumerate(grid.points):
        row = [repr(float(x)), repr(float(f_vals[i]))]
        row += [repr(float(grids[name][i])) for name in sorted(solutions)]
        rows.append(",".join(row) + "\n")
    return "".join(rows)


def assert_same_solution(got, want, tmp_dir):
    assert got.indices.dtype == want.indices.dtype and np.array_equal(got.indices, want.indices)
    assert got.values.dtype == want.values.dtype and np.array_equal(got.values, want.values)
    assert got.method == want.method
    assert repr(got.params) == repr(want.params)  # same keys in the same order, same types
    path = tmp_dir / "solution.csv"
    got.write_csv(str(path))
    assert path.read_text() == former_solution_csv(want)


positive = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)


def record(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    return fr.NoisyDataset(g_bar=np.zeros(1), coeffs=coeffs, epsilon=0.0, seed=0, n_coeff=coeffs.size)


def draw_record(data, kind, numeric_es):
    """An analytic eigensystem of random size or the numeric one, and a record
    that may be shorter or longer than it."""
    if kind == "numeric":
        es = numeric_es[1]
    else:
        es = fr.analytic_eigensystem(data.draw(st.integers(1, 64), label="count"))
    n_coeff = data.draw(st.integers(1, 2 * es.count), label="n_coeff")
    scale = data.draw(st.sampled_from([1e-6, 1e-3, 1.0]), label="scale")
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_coeff, max_size=n_coeff))
    return record(scale * np.array(values)), es


def selection_report(I_k, n0=0, Q=(), bound_ok=True, compat_ok=True):
    return fr.SelectionReport(
        n0=n0, Q=list(Q), n_c=len(Q), pairs=[], I_k=list(I_k), bound_ok=bound_ok,
        compat_ok=compat_ok, compat_violations=[],
        series=fr.AutocorrSeries(delta=np.array([1.0, 0.0]), n_count=2),
    )


KINDS = ["analytic", "numeric"]


class TestTruncatedExpansion:
    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_constraint_and_identity_filters(self, numeric_es, kind, data, tmp_path_factory):
        ds, es = draw_record(data, kind, numeric_es)
        n = min(es.count, ds.n_coeff)
        steps = st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n + 3)
        c = data.draw(st.none() | steps.map(np.cumsum), label="c")
        E, eps = data.draw(positive, label="E"), data.draw(positive, label="eps")
        cs = fr.ConstraintSpec(E=E, eps=eps, c=c)
        tmp = tmp_path_factory.mktemp("sol")
        for new, former, args in [
            (fr.tikhonov_full, former_tikhonov_full, (cs,)),
            (fr.truncated_k_alpha, former_truncated_k_alpha, (cs,)),
            (fr.tikhonov_identity, former_tikhonov_identity, (E, eps)),
            (fr.truncated_k_beta, former_truncated_k_beta, (E, eps)),
        ]:
            assert_same_solution(new(ds, es, *args), former(ds, es, *args), tmp)

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_norm_budget_cutoff(self, numeric_es, kind, data, tmp_path_factory):
        ds, es = draw_record(data, kind, numeric_es)
        c1 = data.draw(st.floats(-12.0, 12.0).map(lambda e: 10.0**e), label="c1")
        assert np.array_equal(fr.cumulative_profile(ds, es).values, former_profile(ds, es))
        got = fr.f0_approximation(ds, es, c1)
        assert_same_solution(got, former_f0_approximation(ds, es, c1), tmp_path_factory.mktemp("sol"))

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_selected_components(self, numeric_es, kind, data, tmp_path_factory):
        ds, es = draw_record(data, kind, numeric_es)
        top = min(es.count, ds.n_coeff)
        I_k = sorted(data.draw(st.sets(st.integers(1, top)), label="I_k"))
        Q = data.draw(st.lists(st.integers(1, 30), max_size=4), label="Q")
        flags = data.draw(st.tuples(st.booleans(), st.booleans()), label="flags")
        report = selection_report(I_k, n0=max(Q, default=0), Q=Q, bound_ok=flags[0], compat_ok=flags[1])
        got = fr.reconstruct_bhat(ds, es, report)
        assert_same_solution(got, former_reconstruct_bhat(ds, es, report), tmp_path_factory.mktemp("sol"))

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_classified_components(self, numeric_es, kind, data, tmp_path_factory):
        ds, es = draw_record(data, kind, numeric_es)
        m = data.draw(st.integers(1, 2 * es.count), label="m")
        rho = data.draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m), label="rho")
        nu = data.draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m), label="nu")
        vp = fr.VarianceProfile(rho=rho, nu=nu, eps=data.draw(st.just(0.0) | positive, label="eps"))
        got = fr.classified_solution(ds, es, vp)
        assert_same_solution(got, former_classified_solution(ds, es, vp), tmp_path_factory.mktemp("sol"))

    def test_empty_cutoffs(self, es64, tmp_path):
        ds = record(np.full(64, 0.5))
        for new, former, args in [
            (fr.truncated_k_alpha, former_truncated_k_alpha, (fr.ConstraintSpec(E=1.0, eps=1e6),)),
            (fr.truncated_k_beta, former_truncated_k_beta, (1.0, 1e6)),
            (fr.f0_approximation, former_f0_approximation, (1e-300,)),
            (fr.reconstruct_bhat, former_reconstruct_bhat, (selection_report([]),)),
        ]:
            got = new(ds, es64, *args)
            assert got.indices.size == 0
            assert_same_solution(got, former(ds, es64, *args), tmp_path)

    def test_classified_drops_informative_indices_past_the_record(self, es64, tmp_path):
        ds = record(np.full(10, 0.5))
        vp = fr.VarianceProfile(rho=np.ones(64), nu=np.ones(64), eps=0.0)  # every k <= 64 informative
        got = fr.classified_solution(ds, es64, vp)
        assert got.indices.tolist() == list(range(1, 11))
        assert_same_solution(got, former_classified_solution(ds, es64, vp), tmp_path)

    def test_selected_index_past_the_eigensystem_raises(self, es64):
        ds = record(np.ones(80))
        with pytest.raises(IndexError):
            fr.reconstruct_bhat(ds, es64, selection_report([3, 65]))


class TestWriteTable:
    @SETTINGS
    @given(coeffs=st.lists(st.floats() | st.integers(-5, 5), max_size=60))
    def test_coefficients_csv(self, coeffs, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "coefficients.csv"
        fr.write_coeffs_csv(str(path), coeffs)
        assert path.read_text() == former_coeffs_csv(coeffs)

    @SETTINGS
    @given(steps=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60))
    def test_profile_csv(self, steps, tmp_path_factory):
        profile = fr.CumulativeProfile(values=np.cumsum(steps))
        path = tmp_path_factory.mktemp("csv") / "profile.csv"
        profile.write_csv(str(path))
        assert path.read_text() == former_profile_csv(profile.values)

    @SETTINGS
    @given(series=any_series, significance=significances)
    def test_autocorr_csv_with_n0_zero(self, series, significance, tmp_path_factory):
        report = fr.SelectionReport(
            n0=0, Q=[], n_c=0, pairs=[], I_k=[], bound_ok=True, compat_ok=True,
            compat_violations=[], series=series, significance=significance,
        )
        path = tmp_path_factory.mktemp("csv") / "autocorr.csv"
        report.write_autocorr_csv(str(path))
        assert path.read_text() == former_autocorr_csv(series, 0, significance)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        signal=st.sampled_from(fr.NAMED_SIGNALS),
        methods=st.sets(st.sampled_from(fr.ALL_METHODS), min_size=1),
        noise_mode=st.sampled_from(["coefficient", "pointwise"]),
    )
    def test_emitted_files(self, seed, signal, methods, noise_mode, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        cfg = fr.ExperimentConfig(
            signal=fr.SignalSpec.named(signal), epsilon=1e-3, n_coeff=128, grid_size=129, n_max=32,
            seeds=(seed,), methods=tuple(sorted(methods)), noise_mode=noise_mode, output_dir=str(out),
        )
        records = fr.run_experiment(cfg)
        fr.emit_outputs(records, fr.summarize(records), cfg)
        (rec,) = records
        into = out / "seeds" / str(seed)
        assert (into / "coefficients.csv").read_text() == former_coeffs_csv(rec.dataset.coeffs)
        profile = former_profile(rec.dataset, rec.context.data.es)
        assert (into / "profile.csv").read_text() == former_profile_csv(profile)
        sel = rec.selection
        if sel is not None:
            want = former_autocorr_csv(sel.series, sel.n0, sel.significance)
            assert (into / "autocorr.csv").read_text() == want
        solutions = {name: METHODS[name](rec.dataset, rec.context, rec) for name in rec.grids}
        assert sorted(solutions) == sorted(set(cfg.methods) - set(rec.failures))
        assert (into / "solutions.csv").read_text() == former_solutions_csv(rec, solutions)

    def test_none_is_an_empty_cell_and_columns_must_match(self, tmp_path):
        path = tmp_path / "t.csv"
        fr.write_table(str(path), ("a", "b"), [1, 2], [None, 0.5])
        assert path.read_text() == "a,b\n1,\n2,0.5\n"
        with pytest.raises(ValueError):
            fr.write_table(str(path), ("a", "b"), [1, 2], [0.5])
