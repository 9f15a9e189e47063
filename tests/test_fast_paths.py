"""Fast paths against the slow paths they replaced, bit for bit.

Each oracle below is the former implementation written out: the basis built
one index at a time, reconstruction summed one eigenfunction at a time, and
a dataset synthesized from scratch (g_k projected, g and the noise series
each summed over a fresh basis build) for every seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredreg as fr

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
