"""Fast paths against the slow paths they replaced, bit for bit.

Each oracle below is the former implementation written out: the basis built
one index at a time, reconstruction summed one eigenfunction at a time, a
dataset synthesized from scratch (g_k projected, or lam_k a_j / sqrt(2) for a
sine combination, g and the noise series each summed over a fresh basis
build) for every seed, the selection steps
(randomness gate, n0 recursion, Q, autocorr.csv rows) walking one lag at a
time with one scalar Bartlett standard error per lag, the seven spectral
methods each dividing gbar_k by lam_k on its own, and each CSV written by
its own row loop (solutions.csv from a fresh to_grid per method).  The
windowed selection is checked against the former all-lag path.
autocorr_estimate, one pass of window sums and one inner product per lag, is
checked against the per-lag loop (_lag_delta at every lag), which stays its
fallback and oracle: NaN exactly where the loop gives NaN, within the bound
64 N u (_window_tol) elsewhere, the loop's bytes at every lag it hands to
the loop (heavy cancellation, constant runs, subnormal scale), and the
loop-built n0, Q and pairs unless some |delta(n)| lies within that bound of
its band; also within that bound against the former unscaled loop.  The
per-lag loop is checked against the former loop centering each window by
ndarray.mean, and select_pairs' one-pass argmax against the per-lag argmax,
to the byte.  write_table is checked against the former writer formatting
one cell at a time, and expansions from rows of the run's basis table
against reconstruct evaluating each eigenfunction anew.
A run's scores, from each method's coefficients through the run's Gram form,
are checked against the grid norm of its expansion within SCORE_TOL: that
identity is exact algebra but rounds differently.  A sine combination's
closed-form f_k and exact L2 scores are checked against the Simpson
projection and the grid norms where Simpson leaves the rows orthonormal: f_k
within 1e-13 of the largest |f_k|, squared scores within SCORE_TOL.
sample_kernel_matrix, (1 - max(x, y)) min(x, y) from two outer products, is
checked against the former meshgrid and np.where formula, and the sine
evaluator, filled in place, against the former out-of-place formula, both
to the byte.
The Nystrom basis on its own nodes, its table's rows, is checked against the
per-row np.interp path, the on-node rows of it and of a run's
reconstruction eigensystem (read in place for the indices 1..K) against the
gather table[ks - 1], and every expansion sum, by both of _expansion_sum's
paths (see its docstring), against the term-by-term loop, all to the byte.
A sine-combination signal, one table summed by _expansion_sum, is checked
against the per-term loop, RegularizedSolution's one-comparison index check
against the former sort, and QuadratureGrid.norm's one reduction against
the former np.sum of weights * f**2, each to the byte.  autocorr_estimate
over every lag is checked against the per-lag loop, and autocorr.csv's delta
column against it cell for cell: past the selection window a delta cell is
blank where the loop's lag is NaN and within 64 N u of it elsewhere, with the
window's cells and every threshold cell to the byte.
csv_cells is checked against the former formula that split the repr of the
whole column, autocorr.csv against the former writer that built its delta and
threshold_n0 cells one element at a time, and the summary's median and
quartiles, from one sorted list, against np.median and one np.percentile
call per quartile, each to the byte.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import fredreg as fr
from fredreg.cli import main
from fredreg import eigensystem
from fredreg.eigensystem import _contraction_rounds_as_loop, _expansion_sum, _sine_evaluator
from fredreg.harness import METHODS, _median_iqr
from fredreg.synthesis import _sine_terms
from fredreg import selection
from fredreg.selection import (
    _admissible_bounds,
    _fixed_autocorr_cells,
    _lag_delta,
    _peak_scaled,
    _window_tol,
)

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


def node_values(es, grid):
    """psi_k on the grid's nodes through the np.interp path: the node columns of
    an evaluation on the nodes plus one point between the first two."""
    x = np.append(grid.points, 0.5 * (grid.points[0] + grid.points[1]))
    return es.basis_matrix(x)[:, :-1]


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

    @SETTINGS
    @given(x=unit_points, upto=st.integers(1, 12))
    def test_numeric_matches_per_row_interp(self, numeric_es, x, upto):
        grid, es = numeric_es
        nodes = node_values(es, grid)
        rows = np.vstack([np.interp(x, grid.points, nodes[k - 1]) for k in range(1, upto + 1)])
        assert np.array_equal(es.basis_matrix(x, upto), rows)

    @pytest.mark.parametrize("size, count", [(129, 12), (513, 64)])
    def test_numeric_nodes_gather_the_interp_values(self, size, count):
        grid = fr.simpson_grid(size)
        es = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), count)
        table = es.basis_matrix(grid.points)
        assert np.any((table == 0) & np.signbit(table))  # the table holds -0.0: signed zeros must survive
        assert table.tobytes() == node_values(es, grid).tobytes()
        for upto in (1, count // 2, count):
            assert es.basis_matrix(grid.points, upto).tobytes() == table[:upto].tobytes()

    def test_numeric_gather_returns_a_copy(self, numeric_es):
        grid, es = numeric_es
        want = es.basis_matrix(grid.points)
        es.basis_matrix(grid.points)[:] = 7.0
        assert es.basis_matrix(grid.points).tobytes() == want.tobytes()

    @SETTINGS
    @given(fp=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=2, max_size=60))
    def test_interp_at_a_knot_is_the_knot_value(self, fp):
        # the premise of the gather: np.interp returns fp[j] itself at xp[j], signed zeros included
        fp = np.array(fp)
        xp = np.linspace(0.0, 1.0, fp.size)
        assert np.interp(xp, xp, fp).tobytes() == fp.tobytes()

    def test_on_the_nodes_nothing_interpolates(self, numeric_es, monkeypatch):
        grid, es = numeric_es
        want_table = es.basis_matrix(grid.points)
        want_sum = fr.reconstruct([(3, 0.5), (1, -2.0)], es, grid)

        def refuse(*args, **kwargs):
            raise AssertionError("np.interp called on the nodes")

        monkeypatch.setattr(np, "interp", refuse)
        assert es.basis_matrix(grid.points).tobytes() == want_table.tobytes()
        assert fr.reconstruct([(3, 0.5), (1, -2.0)], es, grid).tobytes() == want_sum.tobytes()
        with pytest.raises(AssertionError, match="np.interp called"):
            es.basis_matrix(grid.points[:-1])  # off the nodes it interpolates


def index_arrays(count):
    """Index arrays in 1..count: a prefix 1..K (K >= 0), a permutation of one, repeated, or gapped indices."""
    prefix = st.integers(0, count).map(lambda k: np.arange(1, k + 1))
    permuted = st.integers(2, count).flatmap(lambda k: st.permutations(range(1, k + 1))).filter(
        lambda ks: list(ks) != sorted(ks)
    )
    repeated = st.lists(st.integers(1, count), min_size=2, max_size=2 * count).filter(lambda ks: len(set(ks)) < len(ks))
    gapped = st.lists(st.integers(1, count), min_size=1, max_size=count, unique=True).map(sorted).filter(
        lambda ks: ks != list(range(1, len(ks) + 1))
    )
    return prefix | (permuted | repeated | gapped).map(lambda ks: np.array(ks, dtype=int))


def is_prefix(ks):
    return ks.tolist() == list(range(1, ks.size + 1))


def gathered_cfg():
    return fr.ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=1e-3, n_coeff=64, grid_size=129, n_max=12)


class TestRowsInPlace:
    """On-node evaluations read the rows 1..K of their table in place; any other rows stay a gather (table[ks - 1])."""

    @staticmethod
    def assert_rows(got, table, ks, base):
        want = table[ks - 1]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if ks.size and is_prefix(ks):
            assert np.shares_memory(got, base) and not got.flags.writeable
        else:  # a gather, or no rows at all
            assert not np.shares_memory(got, base)

    @SETTINGS
    @given(data=st.data())
    def test_numeric_nodes(self, numeric_es, data):
        grid, es = numeric_es
        table = node_values(es, grid)  # the np.interp path
        ks = data.draw(index_arrays(es.count))
        whole = es.evaluator(np.arange(1, es.count + 1), grid.points)
        self.assert_rows(es.evaluator(ks, grid.points), table, ks, whole)

    @SETTINGS
    @given(data=st.data())
    def test_run_context_nodes(self, data):
        ctx = fr.run_context(gathered_cfg())
        grid, es = ctx.data.grid, ctx.es
        table = ctx.data.es.basis_matrix(grid.points, es.count)  # the record eigensystem's own evaluation
        ks = data.draw(index_arrays(es.count))
        whole = es.evaluator(np.arange(1, es.count + 1), grid.points)
        self.assert_rows(es.evaluator(ks, grid.points), table, ks, whole)

    def test_the_numeric_table_is_read_only(self, numeric_es):
        grid, es = numeric_es
        rows = es.evaluator(np.arange(1, 4), grid.points)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 7.0

    @pytest.mark.parametrize("upto", [1, 5, 12])
    def test_basis_matrix_is_a_new_writable_array(self, numeric_es, upto):
        grid, es = numeric_es
        ctx = fr.run_context(gathered_cfg())
        for on, points in ((es, grid.points), (ctx.es, ctx.data.grid.points)):
            table = on.basis_matrix(points, upto)
            assert table.flags.writeable and table.flags.owndata
            assert not np.shares_memory(table, on.evaluator(np.arange(1, upto + 1), points))


def former_sine_evaluator(ks, x):
    return np.sqrt(2.0) * np.sin(np.outer(ks * np.pi, x))


class TestSineEvaluator:
    @SETTINGS
    @given(
        ks=st.lists(st.integers(1, 4096), max_size=40).map(np.array),
        x=st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1.0]), max_size=80).map(np.array),
    )
    @example(ks=np.arange(1, 513), x=np.linspace(0.0, 1.0, 513))
    def test_fills_in_place_what_the_out_of_place_formula_gave(self, ks, x):
        got = _sine_evaluator(ks, x)
        want = former_sine_evaluator(ks, x)
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def former_sine_signal(terms, x):
    out = np.zeros_like(x)
    for a, k in terms:
        out += a * np.sin(k * np.pi * x)
    return out


class TestSineSignal:
    """evaluate_signal of a sine combination, one table summed by _expansion_sum, against the per-term loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, -1.0]), st.integers(1, 4096)),
            min_size=1, max_size=40, unique_by=lambda t: t[1],
        ),
        size=st.sampled_from([3, 5, 65, 513, 4097]),
        einsum=st.booleans(),
    )
    @example(terms=[(-2.5, 7)], size=3, einsum=True)  # one term, a negative amplitude, the least grid
    @example(terms=[(-2.5, 7)], size=4097, einsum=False)
    def test_matches_the_per_term_loop(self, terms, size, einsum):
        grid = fr.simpson_grid(size)
        exact = einsum and _contraction_rounds_as_loop()
        with mock.patch.object(eigensystem, "_contraction_rounds_as_loop", lambda: exact):
            got = fr.evaluate_signal(fr.SignalSpec.sines(terms), grid)
        assert got.tobytes() == former_sine_signal(terms, grid.points).tobytes()

    @pytest.mark.parametrize("name", ["f2", "f3"])
    @pytest.mark.parametrize("size", [3, 129, 513, 4097])
    def test_named_combinations(self, name, size):
        grid = fr.simpson_grid(size)
        want = former_sine_signal(_sine_terms(fr.SignalSpec.named(name)), grid.points)
        assert fr.evaluate_signal(fr.SignalSpec.named(name), grid).tobytes() == want.tobytes()


def former_sample_kernel(x):
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.where(Y <= X, (1.0 - X) * Y, X * (1.0 - Y))


class TestSampleKernel:
    @SETTINGS
    @given(
        n=st.integers(1, 512).map(lambda i: 2 * i + 1),
        ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda ab: abs(ab[0] - ab[1]) > 1e-3),
        whole=st.booleans(),
    )
    @example(n=1025, ends=(0.0, 1.0), whole=True)
    def test_matches_the_meshgrid_formula(self, n, ends, whole):
        grid = fr.simpson_grid(n) if whole else fr.simpson_grid(n, *sorted(ends))
        want = former_sample_kernel(grid.points)
        assert np.array_equal(fr.sample_kernel_matrix(grid).values.view(np.uint64), want.view(np.uint64))


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
        nodes = node_values(es, grid)
        want = sequential_sum(coeffs, lambda k: nodes[k - 1], grid.size)
        assert fr.reconstruct(coeffs, es, grid).tobytes() == want.tobytes()

    def test_index_checked(self, es64, grid513):
        with pytest.raises(IndexError, match="index 65 outside 1..64"):
            fr.reconstruct([(1, 1.0), (65, 1.0)], es64, grid513)
        with pytest.raises(IndexError, match="index 0 outside 1..64"):  # the first bad k is named
            fr.reconstruct([(2, 1.0), (0, 1.0), (-3, 1.0), (99, 1.0)], es64, grid513)

    def test_a_missing_value_raises(self, es64, grid513):
        # float(None) raised a bare TypeError; the real rule names the coefficient
        with pytest.raises(ValueError, match="^expansion coefficient must be finite, got None"):
            fr.reconstruct([(1, None)], es64, grid513)

    @SETTINGS
    @given(data=st.data())
    def test_to_grid_is_reconstruct_of_its_terms(self, es64, grid513, numeric_es, data):
        # analytic or Nystrom basis; sparse, out-of-order or empty indices
        grid, es = data.draw(st.sampled_from([(grid513, es64), numeric_es]))
        ks = data.draw(st.lists(st.integers(1, es.count), unique=True, max_size=es.count))
        values = data.draw(st.lists(signed_values, min_size=len(ks), max_size=len(ks)))
        sol = fr.RegularizedSolution(indices=np.array(ks, dtype=int), values=np.array(values), method="any")
        assert sol.to_grid(es, grid).tobytes() == fr.reconstruct(sol.coeffs, es, grid).tobytes()

    def test_to_grid_index_checked(self, es64, grid513):
        sol = fr.RegularizedSolution(indices=np.array([3, 70, 1, 66]), values=np.ones(4), method="any")
        with pytest.raises(IndexError, match="index 70 outside 1..64"):  # the first bad k is named
            sol.to_grid(es64, grid513)


signed_values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


class TestExpansionSum:
    """_expansion_sum on both paths: einsum (where it rounds as the loop) and the ordered reduce."""

    @staticmethod
    def loop(values, rows):
        out = np.zeros(rows.shape[1])
        for value, row in zip(values.tolist(), rows):
            out += value * row
        return out

    @staticmethod
    def summed(values, rows, einsum):
        exact = einsum and _contraction_rounds_as_loop()
        with mock.patch.object(eigensystem, "_contraction_rounds_as_loop", lambda: exact):
            return _expansion_sum(values, rows)

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(0, 130) | st.sampled_from([0, 1]),
        points=st.integers(3, 140),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([0.0, 0.2, 0.9]),
        layout=st.sampled_from(["C", "F", "reversed", "read-only"]),
        exponent=st.sampled_from([6, 300]),  # at 300 some products overflow to +-inf, and inf - inf is NaN
        einsum=st.booleans(),
    )
    @example(count=5, points=3, seed=0, zeros=0.0, layout="C", exponent=6, einsum=True)  # 3-point rows, the least grid
    @example(count=1, points=513, seed=1, zeros=0.2, layout="C", exponent=6, einsum=True)  # a single row
    @example(count=27, points=513, seed=2, zeros=0.2, layout="reversed", exponent=6, einsum=True)  # negative strides
    @example(count=64, points=1025, seed=3, zeros=0.2, layout="read-only", exponent=6, einsum=True)
    @example(count=64, points=513, seed=4, zeros=0.0, layout="C", exponent=300, einsum=True)  # inf and NaN cells
    @example(count=64, points=513, seed=4, zeros=0.2, layout="read-only", exponent=300, einsum=False)
    def test_matches_the_term_by_term_loop(self, count, points, seed, zeros, layout, exponent, einsum):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(count, points)) * 10.0 ** rng.uniform(-exponent, exponent, (count, 1))
        values = rng.normal(size=count) * 10.0 ** rng.uniform(-exponent, exponent, count)
        for a in (rows, values):  # signed zeros of both signs
            a[rng.random(a.shape) < zeros] = -0.0
            a[rng.random(a.shape) < zeros / 2] = 0.0
        if layout == "F":
            rows = np.asfortranarray(rows)
        elif layout == "reversed":
            rows, values = rows[::-1], values[::-1]
        elif layout == "read-only":
            rows.flags.writeable = values.flags.writeable = False
        before = rows.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            want = self.loop(values, rows)
            got = self.summed(values, rows, einsum)
        assert got.tobytes() == want.tobytes()
        assert rows.tobytes() == before  # the rows are read, not scaled in place

    @pytest.mark.parametrize("einsum", [True, False])
    def test_overflowing_terms_give_the_loops_inf_and_nan(self, einsum):
        values = np.array([1e300, -1e300, 1e300, 2.0])
        rows = np.array([[1e10, 1.0, -1e10], [1e10, 1.0, 3.0], [5.0, -1e300, 1.0], [1.0, 1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            want, got = self.loop(values, rows), self.summed(values, rows, einsum)
        assert np.isnan(want[0]) and np.isneginf(want[1:]).all()  # inf - inf, then -inf + finite
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("einsum", [True, False])
    def test_signed_zeros_sum_to_positive_zero(self, einsum):
        # the loop starts from +0.0, so -0.0 terms (and a one-term -0.0 expansion) sum to +0.0
        rows = np.array([[-0.0, 1.0, -0.0], [-0.0, -0.0, 2.0]])
        for k in (1, 2):
            got = self.summed(np.ones(k), rows[:k].copy(), einsum)
            assert not np.signbit(got[0]) and got[0] == 0.0
        assert self.summed(np.empty(0), np.empty((0, 5)), einsum).tobytes() == np.zeros(5).tobytes()

    def test_the_probe_refuses_a_contraction_that_fuses_multiply_and_add(self):
        def fused(subscripts, values, rows):  # out = round(value * x + out), one rounding per term, as an FMA
            out = [0.0] * rows.shape[1]
            for value, row in zip(values.tolist(), rows.tolist()):
                out = [float(Fraction(value) * Fraction(x) + Fraction(o)) for x, o in zip(row, out)]
            return np.array(out)

        assert not _contraction_rounds_as_loop(fused)
        assert _contraction_rounds_as_loop(lambda subscripts, values, rows: self.loop(values, rows))


def synthesize_from_scratch(signal, es, grid, epsilon, seed, n_coeff, noise_mode):
    """The former per-seed synthesis: (coeffs, f_vals, g_coeffs).

    A sine combination's g_k are lam_k a_j / sqrt(2) at k_j; any other signal's are projected on the grid.
    """
    f_vals = fr.evaluate_signal(signal, grid)
    if signal.support() is None:
        g_coeffs = fr.forward_coeffs(f_vals, es, grid, n_coeff)
    else:
        f_k = np.zeros(n_coeff)
        for a, k in _sine_terms(signal):
            if k <= n_coeff:
                f_k[k - 1] = a / np.sqrt(2.0)
        g_coeffs = es.eigenvalues[:n_coeff] * f_k
    rng = np.random.default_rng(seed)
    if noise_mode == "coefficient":
        return g_coeffs + rng.uniform(-epsilon, epsilon, n_coeff), f_vals, g_coeffs
    upto = min(n_coeff, grid.size - 2)
    g_bar = g_coeffs[:upto] @ es.basis_matrix(grid.points, upto) + rng.uniform(-epsilon, epsilon, grid.size)
    return fr.project_all(g_bar, es, grid, n_coeff), f_vals, g_coeffs


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
        coeffs, f_vals, g_coeffs = synthesize_from_scratch(
            cfg.signal, data.es, data.grid, cfg.epsilon, seed, cfg.n_coeff, cfg.noise_mode
        )
        ds = fr.add_noise(data, cfg.epsilon, seed, cfg.noise_mode)
        assert np.array_equal(ds.coeffs, coeffs)
        assert np.array_equal(data.f_vals, f_vals) and np.array_equal(data.g_coeffs, g_coeffs)
        lib, lib_f, lib_g = fr.synthesize_dataset(
            cfg.signal, data.es, data.grid, cfg.epsilon, seed, cfg.n_coeff, cfg.noise_mode
        )
        assert np.array_equal(lib.coeffs, coeffs)
        assert np.array_equal(lib_f, f_vals) and np.array_equal(lib_g, g_coeffs)

    def test_records_keep_their_datasets(self, tmp_path):
        cfg = fr.preset("example1", seeds=(4, 5), output_dir=str(tmp_path))
        records = fr.run_experiment(cfg)
        ctx = fr.run_context(cfg)
        for rec in records:
            emitted = fr.read_coeffs_csv(str(tmp_path / "seeds" / str(rec.seed) / "coefficients.csv"))
            assert np.array_equal(emitted, fr.add_noise(ctx.data, cfg.epsilon, rec.seed).coeffs)


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


# preset records (preset, noise seed) whose one-pass estimate strays furthest from the loop, at its
# last lags (example1 lag 510, example3 lag 1022): 2.6e-13, 1.5e-13 and 1.8e-13 on x86-64 with
# OpenBLAS's AVX-512 kernels, under the bound 64 N u (3.6e-12 at N = 512)
ONE_PASS_TAIL_RECORDS = [("example1", 1648), ("example1", 296), ("example3", 692)]


def preset_record(contexts, name, seed):
    cfg, ctx = contexts[name]
    return fr.add_noise(ctx.data, cfg.epsilon, seed, cfg.noise_mode).coeffs


def loop_tail(g, head):
    """The loop's series with `head`, the estimate the report reads, in place of its first lags.

    Past the head the loop is the oracle: autocorr.csv's cells are within
    64 N u of it (3.6e-12 at N = 512).
    """
    delta = lag_loop(g)
    delta[: head.size] = head
    return fr.AutocorrSeries(delta=delta, n_count=g.size)


def assert_autocorr_csv(text, want, exact_lags):
    """autocorr.csv text against the loop's table `want`.

    Every cell of lags 0..exact_lags-1 and every n, threshold0 and
    threshold_n0 cell are equal to the byte.  Past them a delta cell is blank
    exactly where the loop's is, and any other is within 64 N u of it.
    """
    got_rows = [line.split(",") for line in text.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert text.endswith("\n") and len(got_rows) == len(want_rows) and got_rows[0] == want_rows[0]
    tol = _window_tol(len(want_rows) - 1)
    for n, (got, exp) in enumerate(zip(got_rows[1:], want_rows[1:])):
        if n < exact_lags:
            assert got == exp, n
            continue
        assert [got[0], got[2], got[3]] == [exp[0], exp[2], exp[3]], n
        assert (got[1] == "") == (exp[1] == ""), n
        if exp[1]:
            assert abs(float(got[1]) - float(exp[1])) <= tol, (n, got[1], exp[1])


def assert_gate(series, significance, max_lag):
    """detect_n0's portmanteau gate against former_gate: 0 where it passes, else the bare walk's n0."""
    top = min(max_lag or fr.default_max_lag(series.n_count), series.n_count - 1)
    level = math.erf(significance / math.sqrt(2.0))
    walk = fr.detect_n0(series, significance, max_lag, "none")
    want = 0 if former_gate(series, top, significance, level) else walk
    assert fr.detect_n0(series, significance, max_lag, "portmanteau") == want


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
coeff_records = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=120),
    st.lists(st.integers(-2, 2).map(float), min_size=8, max_size=120),
).map(np.array)
estimated_series = coeff_records.map(fr.autocorr_estimate)

any_series = st.one_of(handmade_series(), estimated_series)
significances = st.sampled_from([1.0, fr.SIGNIFICANCE, 2.576])


def walk_series(n_count, seed):
    return fr.autocorr_estimate(np.random.default_rng(seed).normal(size=n_count).cumsum())


def gapped_series():
    """Hits at lags 2, 6 and 10, undefined lags before the first (1) and between them (3, 4, 8)."""
    delta = np.full(40, 0.01)
    delta[0] = 1.0
    delta[[2, 6]], delta[10] = 0.7, 0.8
    delta[[1, 3, 4, 8]] = np.nan
    return fr.AutocorrSeries(delta=delta, n_count=40)


# (series, max_lag): walks scanned to N-1 and stopped at top; undefined lags
# before and between hits; tops of 1 and 2, where the walk can reach top
RECURSION_CASES = [
    *[(walk_series(n_count, seed), n_count - 1) for n_count in (16, 64, 200) for seed in range(3)],
    (walk_series(64, 0), 3),
    (gapped_series(), None),
    (gapped_series(), 2),
    *[(series, top) for series in (walk_series(16, 1), walk_series(64, 2), gapped_series()) for top in (1, 2)],
]


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
        max_lag = data.draw(st.integers(1, series.n_count - 1))
        assert_gate(series, significance, max_lag)

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

    @pytest.mark.parametrize("significance", [1.0, fr.SIGNIFICANCE, 2.576])
    @pytest.mark.parametrize("case", range(len(RECURSION_CASES)))
    def test_recursion_cases(self, case, significance):
        series, max_lag = RECURSION_CASES[case]
        assert_gate(series, significance, max_lag)
        for mode in ("portmanteau", "none"):
            got = fr.detect_n0(series, significance, max_lag, mode)
            assert got == former_detect_n0(series, significance, max_lag, mode), mode

    def test_recursion_cases_reach_what_they_name(self):
        # the walk promotes each lag up to top, where the next step scans no lag
        assert fr.detect_n0(walk_series(64, 0), max_lag=3, randomness_test="none") == 3
        assert fr.detect_n0(walk_series(16, 1), max_lag=1, randomness_test="none") == 1
        # the walk steps over undefined lags: 2, then 6 past 3 and 4, then 10 past 8 where its band allows
        assert [fr.detect_n0(gapped_series(), z, None, "none") for z in (1.0, fr.SIGNIFICANCE, 2.576)] == [10, 10, 6]
        assert fr.detect_n0(gapped_series(), max_lag=2, randomness_test="none") == 2

    @staticmethod
    def check_autocorr_csv_rows(g, last_lag, n0, significance, path):
        window = fr.autocorr_estimate(g, last_lag)
        report = fr.SelectionReport(n0=n0, Q=[], pairs=[], series=window, significance=significance)
        report.write_autocorr_csv(str(path), g)
        # the file's head: the report's window and, past it, the lags up to n0 that its bands read
        exact_lags = max(window.delta.size, n0 + 1)
        want = former_autocorr_csv(loop_tail(g, fr.autocorr_estimate(g, exact_lags - 1).delta), n0, significance)
        assert_autocorr_csv(path.read_text(), want, exact_lags)

    @SETTINGS
    @given(g=coeff_records, significance=significances, data=st.data())
    def test_autocorr_csv_rows(self, g, significance, data, tmp_path_factory):
        n0 = data.draw(st.integers(0, g.size - 1))
        last_lag = data.draw(st.integers(0, g.size - 1))
        self.check_autocorr_csv_rows(g, last_lag, n0, significance, tmp_path_factory.mktemp("csv") / "autocorr.csv")

    @pytest.mark.parametrize("last_lag, n0", [(None, 0), (None, 3), (5, 40)])
    @pytest.mark.parametrize("name, seed", ONE_PASS_TAIL_RECORDS)
    def test_autocorr_csv_rows_where_the_one_pass_tail_strays(
        self, preset_contexts, name, seed, last_lag, n0, tmp_path
    ):
        g = preset_record(preset_contexts, name, seed)
        last_lag = fr.default_max_lag(g.size) if last_lag is None else last_lag
        self.check_autocorr_csv_rows(g, last_lag, n0, fr.SIGNIFICANCE, tmp_path / "autocorr.csv")


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


def former_solutions_csv(ctx, solutions):
    grid, f_vals = ctx.data.grid, ctx.data.f_vals
    columns = ["x", "f_true"] + sorted(solutions)
    grids = {name: sol.to_grid(ctx.es, grid) for name, sol in solutions.items()}
    rows = [",".join(columns) + "\n"]
    for i, x in enumerate(grid.points):
        row = [repr(float(x)), repr(float(f_vals[i]))]
        row += [repr(float(grids[name][i])) for name in sorted(solutions)]
        rows.append(",".join(row) + "\n")
    return "".join(rows)


def assert_same_solution(got, want):
    assert got.indices.dtype == want.indices.dtype and np.array_equal(got.indices, want.indices)
    assert got.values.dtype == want.values.dtype and np.array_equal(got.values, want.values)
    assert got.method == want.method
    assert repr(got.params) == repr(want.params)  # same keys in the same order, same types


positive = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)


def record(coeffs):
    return fr.NoisyDataset(coeffs=coeffs)


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


def selection_report(pairs, n0=0, Q=()):
    return fr.SelectionReport(
        n0=n0, Q=list(Q), pairs=list(pairs), series=fr.AutocorrSeries(delta=np.array([1.0, 0.0]), n_count=2)
    )


KINDS = ["analytic", "numeric"]


class TestTruncatedExpansion:
    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_constraint_and_identity_filters(self, numeric_es, kind, data):
        ds, es = draw_record(data, kind, numeric_es)
        n = min(es.count, ds.n_coeff)
        steps = st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n + 3)
        c = data.draw(st.none() | steps.map(np.cumsum), label="c")
        E, eps = data.draw(positive, label="E"), data.draw(positive, label="eps")
        cs = fr.ConstraintSpec(E=E, eps=eps, c=c)
        for new, former, args in [
            (fr.tikhonov_full, former_tikhonov_full, (cs,)),
            (fr.truncated_k_alpha, former_truncated_k_alpha, (cs,)),
            (fr.tikhonov_identity, former_tikhonov_identity, (E, eps)),
            (fr.truncated_k_beta, former_truncated_k_beta, (E, eps)),
        ]:
            assert_same_solution(new(ds, es, *args), former(ds, es, *args))

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_norm_budget_cutoff(self, numeric_es, kind, data):
        ds, es = draw_record(data, kind, numeric_es)
        c1 = data.draw(st.floats(-12.0, 12.0).map(lambda e: 10.0**e), label="c1")
        assert np.array_equal(fr.cumulative_profile(ds, es).values, former_profile(ds, es))
        got = fr.f0_approximation(ds, es, c1)
        assert_same_solution(got, former_f0_approximation(ds, es, c1))

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_selected_components(self, numeric_es, kind, data):
        ds, es = draw_record(data, kind, numeric_es)
        top = min(es.count, ds.n_coeff)
        # pairs (a, b), a < b <= top: I_k is their members; Q drawn apart, so either flag can fail
        pairs = data.draw(st.lists(st.tuples(st.integers(1, top), st.integers(1, top)), max_size=4), label="pairs")
        pairs = [(a, b) for a, b in pairs if a < b]
        Q = data.draw(st.lists(st.integers(1, 30), max_size=4), label="Q")
        report = selection_report(pairs, n0=max(Q, default=0), Q=Q)
        got = fr.reconstruct_bhat(ds, es, report)
        assert_same_solution(got, former_reconstruct_bhat(ds, es, report))

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(data=st.data())
    def test_classified_components(self, numeric_es, kind, data):
        ds, es = draw_record(data, kind, numeric_es)
        m = data.draw(st.integers(1, 2 * es.count), label="m")
        rho = data.draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m), label="rho")
        nu = data.draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m), label="nu")
        vp = fr.VarianceProfile(rho=rho, nu=nu, eps=data.draw(st.just(0.0) | positive, label="eps"))
        got = fr.classified_solution(ds, es, vp)
        assert_same_solution(got, former_classified_solution(ds, es, vp))

    def test_empty_cutoffs(self, es64):
        ds = record(np.full(64, 0.5))
        for new, former, args in [
            (fr.truncated_k_alpha, former_truncated_k_alpha, (fr.ConstraintSpec(E=1.0, eps=1e6),)),
            (fr.truncated_k_beta, former_truncated_k_beta, (1.0, 1e6)),
            (fr.f0_approximation, former_f0_approximation, (1e-300,)),
            (fr.reconstruct_bhat, former_reconstruct_bhat, (selection_report([]),)),
        ]:
            got = new(ds, es64, *args)
            assert got.indices.size == 0
            assert_same_solution(got, former(ds, es64, *args))

    def test_classified_drops_informative_indices_past_the_record(self, es64):
        ds = record(np.full(10, 0.5))
        vp = fr.VarianceProfile(rho=np.ones(64), nu=np.ones(64), eps=0.0)  # every k <= 64 informative
        got = fr.classified_solution(ds, es64, vp)
        assert got.indices.tolist() == list(range(1, 11))
        assert_same_solution(got, former_classified_solution(ds, es64, vp))

    def test_selected_index_past_the_eigensystem_raises(self, es64):
        ds = record(np.ones(80))
        with pytest.raises(IndexError):
            fr.reconstruct_bhat(ds, es64, selection_report([(3, 65)], n0=62, Q=[62]))


def former_indices_valid(idx):
    """The former RegularizedSolution check: sort every index, then look for one < 1 or two equal neighbours."""
    if not idx.size:
        return True
    ordered = np.sort(idx, axis=None)
    return not (ordered[0] < 1 or np.any(ordered[1:] == ordered[:-1]))


class TestSolutionIndices:
    """RegularizedSolution accepts increasing 1-d indices >= 1 by one comparison, and sorts any others."""

    @settings(max_examples=200, deadline=None)
    @given(
        ks=st.lists(st.integers(-3, 70), max_size=40)
        | st.lists(st.integers(1, 70), max_size=40, unique=True).map(sorted),
        rows=st.sampled_from([0, 1, 2]),  # 0: 1-d, else that many rows of a 2-d array
        dtype=st.sampled_from([np.int64, np.int32, np.uint16]),
    )
    @example(ks=[2, 1, 3], rows=0, dtype=np.int64)  # unsorted
    @example(ks=[1, 2, 2], rows=0, dtype=np.int64)  # a repeat
    @example(ks=[0, 1, 2], rows=0, dtype=np.int64)
    @example(ks=[-1, 1, 2], rows=0, dtype=np.int64)
    @example(ks=[1, 2, 3, 4], rows=2, dtype=np.int64)  # increasing, but 2-d
    @example(ks=[3, 1, 2, 3], rows=2, dtype=np.int64)  # a repeat across the rows of a 2-d array
    def test_accepts_and_refuses_as_the_sort(self, ks, rows, dtype):
        if dtype is np.uint16:
            ks = [k for k in ks if k >= 0]
        if rows and len(ks) % rows:
            ks = ks[: len(ks) - len(ks) % rows]
        idx = np.array(ks, dtype=dtype)
        if rows:
            idx = idx.reshape(rows, -1)
        valid = former_indices_valid(idx)
        if valid:
            sol = fr.RegularizedSolution(indices=idx, values=np.ones(idx.shape), method="any")
            assert sol.indices.tobytes() == idx.astype(int).tobytes() and sol.indices.shape == idx.shape
        else:
            with pytest.raises(ValueError, match="^coefficient indices must be distinct and >= 1$"):
                fr.RegularizedSolution(indices=idx, values=np.ones(idx.shape), method="any")


def former_norm(grid, f):
    """The former QuadratureGrid.norm, whose plain sum of squares was np.sum(weights * f**2)."""
    f = np.asarray(f)
    with np.errstate(over="ignore"):
        sq = float(np.sum(grid.weights * f**2))
    if 2.0**-960 <= sq < math.inf:
        return math.sqrt(sq)
    exp = math.frexp(float(np.max(np.abs(f))))[1]
    return math.ldexp(float(np.sqrt(np.sum(grid.weights * np.ldexp(f, -exp) ** 2))), exp)


class TestGridNorm:
    """QuadratureGrid.norm's one add.reduce against the former np.sum of weights * f**2."""

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.sampled_from([3, 5, 65, 513, 4097]),
        rows=st.sampled_from([0, 1, 3]),  # 0: one function, else a (rows, size) stack
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-200, 200),  # past +-150 the squares overflow or go subnormal: the rescaled branch
        special=st.sampled_from([None, -0.0, math.inf, -math.inf, math.nan]),
        integer=st.booleans(),
    )
    def test_matches_the_former_sum(self, size, rows, seed, exponent, special, integer):
        grid = fr.simpson_grid(size)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(rows, size) if rows else size)
        if integer:
            f = np.rint(f * 1000).astype(int)
        else:
            f *= 10.0**exponent
            if special is not None:
                f.flat[rng.integers(f.size)] = special
        self.check(grid, f)

    @pytest.mark.parametrize("f", [[1e155, math.inf, 1e155], [1e155, -math.inf, 1e155], [1e155, math.nan, 1e155]])
    def test_a_non_finite_value_beside_overflowing_squares(self, f):
        # the rescaled branch squared f again, with inf's exponent 0, outside the first pass's errstate
        self.check(fr.simpson_grid(3), np.array(f))

    @staticmethod
    def check(grid, f):
        with np.errstate(over="ignore", invalid="ignore"):  # the former sum warns where a square overflows
            want = former_norm(grid, f)
        assert repr(grid.norm(f)) == repr(want)  # the same float, NaN included, and no warning


def former_write_table(header, *columns):
    """Bytes of the former writer: one repr per cell, one write per row."""
    rows = zip(*(np.asarray(col).tolist() for col in columns), strict=True)
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join("" if v is None else repr(v) for v in row) + "\n")
    return "".join(lines).encode()


def former_row_writer(header, *columns):
    """Bytes of the writer before the one join: a str-cell or csv_cells column each, one f-string per row."""
    cells = [
        col if isinstance(col, (list, tuple)) and col and isinstance(col[0], str) else fr.csv_cells(col, i)
        for i, col in enumerate(columns)
    ]
    lines = [",".join(header) + "\n"]
    lines.extend(f"{','.join(row)}\n" for row in zip(*cells, strict=True))
    return "".join(lines).encode()


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -1e300]


@st.composite
def table_columns(draw):
    """Equal-length columns of every kind the CSV writers pass."""
    rows = draw(st.integers(0, 40))
    cells = st.floats() | st.sampled_from(EDGE_FLOATS)
    kinds = {
        "range": st.just(range(rows)),
        "ints": st.lists(st.integers(-(2**40), 2**40), min_size=rows, max_size=rows).map(np.array),
        "floats": st.lists(cells, min_size=rows, max_size=rows).map(np.array),
        "with_none": st.lists(st.none() | cells, min_size=rows, max_size=rows),
        "all_none": st.just([None] * rows),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5))
    return [draw(kinds[name]) for name in names]


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
    @given(g=coeff_records, significance=significances)
    def test_autocorr_csv_with_n0_zero(self, g, significance, tmp_path_factory):
        series = fr.autocorr_estimate(g)
        report = fr.SelectionReport(n0=0, Q=[], pairs=[], series=series, significance=significance)
        path = tmp_path_factory.mktemp("csv") / "autocorr.csv"
        report.write_autocorr_csv(str(path), g)
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
        ctx = fr.run_context(cfg)
        ds = fr.add_noise(ctx.data, cfg.epsilon, seed, cfg.noise_mode)
        into = out / "seeds" / str(seed)
        assert (into / "coefficients.csv").read_text() == former_coeffs_csv(ds.coeffs)
        profile = former_profile(ds, ctx.data.es)
        assert (into / "profile.csv").read_text() == former_profile_csv(profile)
        sel = rec.selection
        if sel is not None:
            want = former_autocorr_csv(fr.autocorr_estimate(ds.coeffs), sel.n0, sel.significance)
            assert_autocorr_csv((into / "autocorr.csv").read_text(), want, sel.max_lag + 1)
        solutions = {name: METHODS[name](ds, ctx, rec) for name in cfg.methods if name not in rec.failures}
        assert sorted(solutions) == sorted(rec.rel_l2)
        assert (into / "solutions.csv").read_text() == former_solutions_csv(ctx, solutions)

    def test_none_is_an_empty_cell_and_columns_must_match(self, tmp_path):
        path = tmp_path / "t.csv"
        fr.write_table(str(path), ("a", "b"), [1, 2], [None, 0.5])
        assert path.read_text() == "a,b\n1,\n2,0.5\n"
        with pytest.raises(ValueError):
            fr.write_table(str(path), ("a", "b"), [1, 2], [0.5])

    @SETTINGS
    @given(columns=table_columns())
    def test_matches_the_per_cell_writer(self, columns, tmp_path_factory):
        header = [f"c{i}" for i in range(len(columns))]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        fr.write_table(str(path), header, *columns)
        assert path.read_bytes() == former_write_table(header, *columns)

    @SETTINGS
    @given(columns=table_columns(), data=st.data())
    def test_preformatted_cells_are_written_verbatim(self, columns, data, tmp_path_factory):
        header = [f"c{i}" for i in range(len(columns))]
        kinds = [data.draw(st.sampled_from([None, list, tuple])) for _ in columns]
        given_cells = [col if kind is None else kind(fr.csv_cells(col)) for col, kind in zip(columns, kinds)]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        fr.write_table(str(path), header, *given_cells)
        assert path.read_bytes() == former_write_table(header, *columns)

    @SETTINGS
    @given(columns=table_columns(), data=st.data())
    def test_matches_the_row_generator_writer(self, columns, data, tmp_path_factory):
        header = [f"c{i}" for i in range(len(columns))]
        kinds = [data.draw(st.sampled_from([None, list, tuple])) for _ in columns]
        given_cells = [col if kind is None else kind(fr.csv_cells(col)) for col, kind in zip(columns, kinds)]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        fr.write_table(str(path), header, *given_cells)
        assert path.read_bytes() == former_row_writer(header, *given_cells)

    @pytest.mark.parametrize("columns", [([None],), ([None, None], [None, None]), (("", ""),), ([],)])
    def test_rows_of_empty_cells_keep_their_lines(self, columns, tmp_path):
        path = tmp_path / "t.csv"
        header = [f"c{i}" for i in range(len(columns))]
        fr.write_table(str(path), header, *columns)
        assert path.read_bytes() == former_row_writer(header, *columns)

    def test_edge_cells_and_zero_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = (range(len(EDGE_FLOATS)), np.array(EDGE_FLOATS), [None] * len(EDGE_FLOATS),
                   [None if i % 2 else v for i, v in enumerate(EDGE_FLOATS)])
        fr.write_table(str(path), ("a", "b", "c", "d"), *columns)
        assert path.read_bytes() == former_write_table(("a", "b", "c", "d"), *columns)
        assert path.read_text().splitlines()[4] == "3,-0.0,,"
        for empty in [(), ([], np.empty(0)), (range(0), [])]:
            fr.write_table(str(path), ("a", "b"), *empty)
            assert path.read_text() == "a,b\n" == former_write_table(("a", "b"), *empty).decode()

    @pytest.mark.parametrize("lengths", [(3, 2), (0, 1), (2, 2, 3)])
    def test_unequal_columns_raise(self, lengths, tmp_path):
        with pytest.raises(ValueError):
            fr.write_table(str(tmp_path / "t.csv"), ("a", "b", "c"), *(np.ones(n) for n in lengths))

    @pytest.mark.parametrize("bad", [np.ones((2, 2)), np.float64(1.0), [[1.0], [2.0]]])
    def test_a_column_that_is_not_1d_raises(self, bad, tmp_path):
        with pytest.raises(ValueError, match="column 1 must be 1-D"):
            fr.write_table(str(tmp_path / "t.csv"), ("a", "b"), [1, 2], bad)


def former_autocorr_estimate(coeffs, last_lag=None, rescale=True):
    """The former lag loop: each window centered by ndarray.mean, inner
    products by @; rescale=False is the loop before the power-of-two rescale.

    Returns (delta, tiny): tiny marks the lags whose window sums of squares
    fell below 2**-960, where products may have lost digits in the
    subnormals; autocorr_estimate rescales those windows, so only the other
    lags must keep their bits.
    """
    g = np.asarray(coeffs, dtype=float).ravel()
    n_count = g.size
    last_lag = n_count - 1 if last_lag is None else last_lag
    if rescale:
        g = np.ldexp(g, -math.frexp(float(np.max(np.abs(g))))[1])
    delta = np.full(min(last_lag, n_count - 1) + 1, np.nan)
    tiny = np.zeros(delta.size, dtype=bool)
    for n in range(delta.size):
        m = n_count - n
        if m < 2:
            continue
        xc = g[:m] - g[:m].mean()
        yc = g[n:] - g[n:].mean()
        sxx, syy = float(xc @ xc), float(yc @ yc)
        tiny[n] = min(sxx, syy) < 2.0**-960
        den = math.sqrt(sxx) * math.sqrt(syy)
        if den <= 0:
            continue
        delta[n] = float(xc @ yc) / den
    np.clip(delta, -1.0, 1.0, out=delta)
    if np.isfinite(delta[0]):
        delta[0] = 1.0
    return delta, tiny


def lag_loop(coeffs, last_lag=None):
    """The per-lag loop autocorr_estimate ran before it summed windows: every lag from _lag_delta."""
    g = _peak_scaled(np.asarray(coeffs, dtype=float))
    top = g.size - 1 if last_lag is None else min(last_lag, g.size - 1)
    delta = np.array([_lag_delta(g, n) for n in range(top + 1)])
    np.clip(delta, -1.0, 1.0, out=delta)
    if np.isfinite(delta[0]):
        delta[0] = 1.0
    return delta


def assert_within_the_bound(got, want, n_count=None):
    """NaN exactly where the loop's delta is NaN, and within the window bound 64 N u elsewhere."""
    tol = _window_tol(got.size if n_count is None else n_count)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
    defined = ~np.isnan(want)
    assert np.max(np.abs(got - want)[defined], initial=0.0) <= tol


def former_build_selection(coeffs, significance, max_lag, randomness_test):
    """Every lag estimated, then the same steps: (all-lag series, selection fields)."""
    series = fr.autocorr_estimate(coeffs)
    n0 = fr.detect_n0(series, significance, max_lag, randomness_test)
    Q = fr.build_Q(series, n0, significance)
    pairs = fr.select_pairs(coeffs, Q)
    members = set()
    for a, b in pairs:
        members.add(a)
        members.add(b)
    I_k = sorted(members)
    lower, upper = _admissible_bounds(len(Q))
    violations = [(a, b) for i, a in enumerate(I_k) for b in I_k[i + 1 :] if (b - a) not in set(Q)]
    fields = {
        "n0": n0, "Q": Q, "pairs": pairs, "I_k": I_k,
        "bound_ok": bool(lower - 1e-9 <= len(I_k) <= upper), "compat_violations": violations,
    }
    return series, fields


@st.composite
def selection_records(draw):
    """Noise, repeated small integers, constant runs (NaN lags inside the
    window) and random walks (n0 at the window edge for small windows)."""
    n = draw(st.integers(8, 160))
    kind = draw(st.sampled_from(["floats", "integers", "constant_run", "walk"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    if kind == "integers":
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "walk":
        return rng.normal(size=n).cumsum()
    g = np.full(n, draw(st.floats(-5.0, 5.0)))
    t = draw(st.integers(1, 4))
    if draw(st.booleans()):
        g[:t] = rng.normal(size=t)
    else:
        g[-t:] = rng.normal(size=t)
    return g


@st.composite
def lag_records(draw):
    """Noise, small integers, constant runs, a large offset and subnormal scale."""
    n = draw(st.integers(2, 200))
    kind = draw(st.sampled_from(["noise", "integers", "constant_run", "offset", "subnormal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integers":
        return rng.integers(-2, 3, n).astype(float)
    if kind == "constant_run":
        g = np.full(n, draw(st.floats(-5.0, 5.0)))
        t = draw(st.integers(1, n))
        g[:t] = rng.normal(size=t)
        return g[::-1] if draw(st.booleans()) else g
    noise = rng.normal(size=n)
    return {"noise": noise, "offset": 1e8 + noise, "subnormal": 1e-310 * noise}[kind]


class TestLagWindowSelection:
    def check(self, g, significance, max_lag, mode, path):
        report = fr.build_selection(g, significance, max_lag, mode)
        series, want = former_build_selection(g, significance, max_lag, mode)
        assert {name: getattr(report, name) for name in want} == want
        window = report.series.delta
        assert window.size == report.max_lag + 1 <= g.size
        assert np.array_equal(window, series.delta[: window.size], equal_nan=True)
        report.write_autocorr_csv(str(path), g)
        want = former_autocorr_csv(loop_tail(g, window), report.n0, significance)
        assert_autocorr_csv(path.read_text(), want, report.max_lag + 1)
        return report

    @settings(max_examples=80, deadline=None)
    @given(
        g=selection_records(),
        significance=significances,
        mode=st.sampled_from(["portmanteau", "none"]),
        data=st.data(),
    )
    def test_matches_the_all_lag_path(self, g, significance, mode, data, tmp_path_factory):
        max_lag = data.draw(st.none() | st.integers(1, 12) | st.integers(g.size - 2, g.size + 5))
        self.check(g, significance, max_lag, mode, tmp_path_factory.mktemp("csv") / "autocorr.csv")

    @pytest.mark.parametrize("mode", ["portmanteau", "none"])
    @pytest.mark.parametrize("max_lag", [3, 5])
    def test_n0_at_the_window_edge(self, mode, max_lag, tmp_path):
        g = np.random.default_rng(0).normal(size=64).cumsum()
        report = self.check(g, fr.SIGNIFICANCE, max_lag, mode, tmp_path / "autocorr.csv")
        assert report.n0 == report.max_lag == max_lag

    @pytest.mark.parametrize("mode", ["portmanteau", "none"])
    def test_nan_lags_inside_the_window(self, mode, tmp_path):
        g = np.array([0.3, -1.2, 0.7] + [2.0] * 61)
        report = self.check(g, fr.SIGNIFICANCE, None, mode, tmp_path / "autocorr.csv")
        assert np.isnan(report.series.delta[3:]).all() and report.series.delta.size == 19

    def test_analyze_writes_every_lag(self, example1_seed0, tmp_path):
        ds, _, _ = example1_seed0
        fr.write_coeffs_csv(str(tmp_path / "coeffs.csv"), ds.coeffs)
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", str(tmp_path / "coeffs.csv"), "--epsilon", "1e-4", "--out", str(out)]) == 0
        series, want = former_build_selection(ds.coeffs, fr.SIGNIFICANCE, None, "portmanteau")
        csv = out.with_suffix(".autocorr.csv").read_text()
        assert series.delta.size == 512
        max_lag = fr.default_max_lag(512)
        want_csv = former_autocorr_csv(loop_tail(ds.coeffs, series.delta[: max_lag + 1]), want["n0"], fr.SIGNIFICANCE)
        assert_autocorr_csv(csv, want_csv, max_lag + 1)

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 200), exponent=st.integers(-8, 8))
    def test_rescaled_record_keeps_the_bits(self, seed, size, exponent):
        g = np.random.default_rng(seed).uniform(-1.0, 1.0, size) * 10.0**exponent
        want, tiny = former_autocorr_estimate(g, rescale=False)
        assert not tiny.any()
        assert_within_the_bound(fr.autocorr_estimate(g).delta, want)

    @settings(max_examples=60, deadline=None)
    @given(g=lag_records(), data=st.data())
    def test_lag_loop_matches_the_mean_loop(self, g, data):
        last_lag = data.draw(st.sampled_from([None, 0, fr.default_max_lag(g.size), g.size + 5]))
        got = fr.autocorr_estimate(g, last_lag).delta
        want, tiny = former_autocorr_estimate(g, last_lag)
        assert np.array_equal(lag_loop(g, last_lag)[~tiny], want[~tiny], equal_nan=True)
        assert_within_the_bound(got[~tiny], want[~tiny], g.size)

    @pytest.mark.parametrize("scale", [1.0, 1.5, 1e-6, 1e6])
    def test_windows_with_subnormal_products_keep_their_digits(self, scale):
        # lag 1 pairs (0,..,0,t) with (0,..,t,1024): both centered windows point the same
        # way, but t^2 ~ 1e-317 after the record's rescale, so the former loop read 0.99999988
        g = scale * np.array([0.0] * 6 + [1.617691314167889e-155, 1024.0])
        _, tiny = former_autocorr_estimate(g)
        assert tiny[1] and fr.autocorr_estimate(g).delta[1] == 1.0


@pytest.fixture(scope="module")
def preset_contexts():
    return {name: (fr.preset(name), fr.run_context(fr.preset(name))) for name in fr.PRESETS}


@st.composite
def every_lag_records(draw, contexts):
    """Synthesized preset records, large offsets, a leading block, constant runs, subnormal scale."""
    kind = draw(st.sampled_from(["preset", "offset", "block", "constant_run", "subnormal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "preset":
        return preset_record(contexts, draw(st.sampled_from(fr.PRESETS)), seed)
    rng = np.random.default_rng(seed)
    n = draw(st.integers(8, 2049))
    noise = rng.normal(size=n)
    if kind == "offset":
        return 10.0 ** draw(st.integers(0, 8)) * draw(st.sampled_from([1.0, -1.0])) + noise
    if kind == "block":
        noise[: draw(st.integers(1, n - 1))] *= 1e6
        return noise
    if kind == "constant_run":
        g = np.full(n, draw(st.floats(-5.0, 5.0)))
        t = draw(st.integers(1, n))
        g[:t] = noise[:t]
        return g[::-1] if draw(st.booleans()) else g
    return 2.0**-1074 * rng.integers(-3, 4, n).astype(float)


class TestAllLagEstimate:
    """autocorr_estimate over every lag, which autocorr.csv holds, against the per-lag loop."""

    @staticmethod
    def check_against_the_loop(g):
        want = lag_loop(g)  # the loop over every lag
        former, tiny = former_autocorr_estimate(g)
        assert np.array_equal(want[~tiny], former[~tiny], equal_nan=True)
        assert_within_the_bound(fr.autocorr_estimate(g).delta, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_loop(self, preset_contexts, data):
        self.check_against_the_loop(data.draw(every_lag_records(preset_contexts)))

    def test_matches_the_loop_on_a_short_record_with_a_large_offset(self):
        # 3.9e-15 from the loop against the bound 5.7e-14; the former rFFT tail read 9.2e-13 here
        self.check_against_the_loop(1e8 + np.random.default_rng(52).normal(size=8))

    @staticmethod
    def check_autocorr_csv(g, path):
        report = fr.build_selection(g)
        report.write_autocorr_csv(str(path), g)
        text = path.read_text()
        want = former_autocorr_csv(loop_tail(g, report.series.delta), report.n0, report.significance)
        assert_autocorr_csv(text, want, report.max_lag + 1)
        # every delta cell is the estimate's, blank where it is undefined
        want_delta = ["" if math.isnan(d) else repr(d) for d in fr.autocorr_estimate(g).delta.tolist()]
        assert [row.split(",")[1] for row in text.splitlines()[1:]] == want_delta

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_autocorr_csv(self, preset_contexts, data, tmp_path_factory):
        g = data.draw(every_lag_records(preset_contexts))
        self.check_autocorr_csv(g, tmp_path_factory.mktemp("csv") / "autocorr.csv")

    @pytest.mark.parametrize("name, seed", ONE_PASS_TAIL_RECORDS)
    def test_autocorr_csv_where_the_one_pass_tail_strays(self, preset_contexts, name, seed, tmp_path):
        g = preset_record(preset_contexts, name, seed)
        self.check_against_the_loop(g)
        self.check_autocorr_csv(g, tmp_path / "autocorr.csv")

    @pytest.mark.parametrize("g", [np.full(40, 2.5), np.r_[1.0, np.zeros(30)], np.r_[np.zeros(20), 1e-300, 1.0]])
    def test_degenerate_windows_come_from_the_loop(self, g):
        assert np.array_equal(fr.autocorr_estimate(g).delta, lag_loop(g), equal_nan=True)


def former_select_pairs(coeffs, Q):
    """The former per-lag argmax: one product array and one np.argmax per lag."""
    g = np.asarray(coeffs, dtype=float)
    pairs = []
    for n in sorted(Q):
        k_star = int(np.argmax(np.abs(g[: g.size - n] * g[n:]))) + 1
        pairs.append((k_star, k_star + n))
    return pairs


def near_a_band(series, significance, max_lag, tol):
    """Whether some comparison of the selection could turn on a change of at most tol in each delta(n).

    That is |delta(n)| within tol of significance * sigma(n; nbar) for some
    nbar < n in the scan window, or the portmanteau statistic within what
    such a change moves it of its critical value.
    """
    n_count = series.n_count
    top = min(max_lag or fr.default_max_lag(n_count), n_count - 1)
    delta = series.delta
    size = np.abs(delta[1 : top + 1])
    lags = np.arange(1, top + 1)
    for nbar in range(top):
        band = significance * fr.bartlett_stderr(series, nbar, lags[nbar:])
        if np.any(np.abs(size[nbar:] - band) <= 4 * tol):
            return True
    defined = np.isfinite(size)
    root_dof = np.sqrt(n_count - lags[defined])
    z = size[defined] * root_dof
    crit = selection._chi2_critical(selection._coverage(significance), z.size)
    return bool(abs(float(np.sum(z * z)) - crit) <= 4 * tol * float(np.sum((2 * z + 1) * root_dof)))


class TestWindowSums:
    """The window's lags from window sums and one inner product per lag, against the per-lag loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        g=selection_records(),
        significance=significances,
        mode=st.sampled_from(["portmanteau", "none"]),
        data=st.data(),
    )
    def test_selection_matches_the_loop_pipeline(self, g, significance, mode, data):
        max_lag = data.draw(st.none() | st.integers(1, 12) | st.integers(g.size - 2, g.size + 5))
        report = fr.build_selection(g, significance, max_lag, mode)
        top = report.max_lag
        loop = fr.AutocorrSeries(delta=lag_loop(g, top), n_count=g.size)
        assert_within_the_bound(report.series.delta, loop.delta)
        n0 = fr.detect_n0(loop, significance, max_lag, mode)
        Q = fr.build_Q(loop, n0, significance)
        want = (n0, Q, former_select_pairs(g, Q))
        if (report.n0, report.Q, report.pairs) != want:
            assert near_a_band(loop, significance, max_lag, _window_tol(g.size)), (report, want)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_preset_selections_match_the_loop_pipeline(self, preset_contexts, data):
        cfg, ctx = preset_contexts[data.draw(st.sampled_from(fr.PRESETS))]
        g = fr.add_noise(ctx.data, cfg.epsilon, data.draw(st.integers(0, 2**32 - 1)), cfg.noise_mode).coeffs
        report = fr.build_selection(g)
        loop = fr.AutocorrSeries(delta=lag_loop(g, report.max_lag), n_count=g.size)
        assert_within_the_bound(report.series.delta, loop.delta)
        n0 = fr.detect_n0(loop)
        Q = fr.build_Q(loop, n0)
        if (report.n0, report.Q, report.pairs) != (n0, Q, former_select_pairs(g, Q)):
            assert near_a_band(loop, fr.SIGNIFICANCE, None, _window_tol(g.size))

    @pytest.mark.parametrize(
        "kind", ["one_plus_tiny_noise", "constant_head", "constant_tail", "subnormal_ints", "subnormal_noise", "spike"]
    )
    @pytest.mark.parametrize("n_count", [8, 64, 512])
    def test_heavy_cancellation_falls_back_to_the_loop(self, kind, n_count, monkeypatch):
        rng = np.random.default_rng(n_count)
        noise = rng.normal(size=n_count)
        g = {
            "one_plus_tiny_noise": 1.0 + 1e-9 * noise,
            "constant_head": np.r_[np.full(n_count - 3, 0.1), noise[:3]],
            "constant_tail": np.r_[noise[:3], np.full(n_count - 3, 0.1)],
            "subnormal_ints": 2.0**-1074 * rng.integers(-3, 4, n_count).astype(float),
            "subnormal_noise": 1e-310 * noise,
            "spike": np.r_[np.zeros(n_count - 2), 1.617691314167889e-155, 1024.0],
        }[kind]
        fell = []

        def recording(record, n):
            fell.append(n)
            return _lag_delta(record, n)

        monkeypatch.setattr(selection, "_lag_delta", recording)
        got = fr.autocorr_estimate(g).delta
        monkeypatch.undo()
        want = lag_loop(g)
        assert np.array_equal(got[fell], want[fell], equal_nan=True)
        assert_within_the_bound(got, want)
        # the last lag (m < 2) and every lag the loop leaves undefined come from the loop
        assert n_count - 1 in fell and set(np.flatnonzero(np.isnan(want)).tolist()) <= set(fell)
        if kind in ("constant_head", "constant_tail", "spike"):  # windows with no spread
            assert len(fell) >= n_count - 3

    def test_few_lags_go_to_the_loop(self, preset_contexts, monkeypatch):
        records = {
            name: [fr.add_noise(ctx.data, cfg.epsilon, seed, cfg.noise_mode).coeffs for seed in range(5)]
            for name, (cfg, ctx) in preset_contexts.items()
        }
        for n_count in (32, 64, 512, 1024, 4096):
            records[f"uniform {n_count}"] = [np.random.default_rng(s).uniform(-1.0, 1.0, n_count) for s in range(5)]
        fell = []
        monkeypatch.setattr(selection, "_lag_delta", lambda record, n: fell.append(n) or _lag_delta(record, n))
        for name, gs in records.items():
            fell.clear()
            window = fr.default_max_lag(gs[0].size)
            for g in gs:
                fr.autocorr_estimate(g, window)
            assert len(fell) <= 0.01 * len(gs) * (window + 1), name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_select_pairs_matches_the_per_lag_argmax(self, data):
        n_count = data.draw(st.integers(2, 300))
        kind = data.draw(st.sampled_from(["noise", "ties", "zeros", "tiny"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = {
            "noise": rng.normal(size=n_count),
            "ties": rng.integers(-2, 3, n_count).astype(float),
            "zeros": np.where(rng.random(n_count) < 0.8, 0.0, rng.normal(size=n_count)),
            "tiny": 1e-170 * rng.normal(size=n_count),
        }[kind]
        lag = st.integers(1, n_count - 1)
        Q = data.draw(st.lists(lag | lag.map(np.int64), max_size=40))
        assert fr.select_pairs(g, Q) == former_select_pairs(g, Q)

    @pytest.mark.parametrize("cells", [1, 300, 5000])
    def test_select_pairs_takes_a_long_table_in_blocks_of_rows(self, cells, monkeypatch):
        monkeypatch.setattr(selection, "_TABLE_CELLS", cells)
        rng = np.random.default_rng(cells)
        for g in (rng.normal(size=400), rng.integers(-2, 3, 400).astype(float)):
            Q = list(range(1, 400, 3)) + [5, 5, 399]
            assert fr.select_pairs(g, Q) == former_select_pairs(g, Q)


SCORE_TOL = 1e-13
# run_context refuses a nonzero signal whose ||f||^2 underflows, so no drawn amplitude is that small
amplitudes = st.floats(-50, 50).filter(lambda a: not 0 < abs(a) < 1e-150)


def sine_terms(top):
    return st.lists(st.tuples(amplitudes, st.integers(1, top)), min_size=1, max_size=4, unique_by=lambda t: t[1])


@st.composite
def grid_form_configs(draw):
    """Configs whose signal is projected on the grid: f1, f4, or a sine combination's samples on the grid."""
    grid_size = draw(st.sampled_from([65, 129]))
    grid = fr.simpson_grid(grid_size)
    signal = draw(st.one_of(
        st.sampled_from(["f1", "f4"]).map(fr.SignalSpec.named),
        sine_terms(40).map(lambda terms: fr.SignalSpec.tabulated(fr.evaluate_signal(fr.SignalSpec.sines(terms), grid))),
    ))
    return fr.ExperimentConfig(
        signal=signal,
        epsilon=draw(st.sampled_from([0.0, 1e-4, 1e-3, 3e-3])),
        n_coeff=draw(st.integers(8, 64)),
        grid_size=grid_size,
        n_max=draw(st.integers(4, 64)),  # 2 n_max >= grid_size - 1 on grid 65 from n_max = 32: rows not orthonormal
        seeds=draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2, unique=True).map(tuple)),
        noise_mode=draw(st.sampled_from(["coefficient", "pointwise"])),
    )


@st.composite
def orthonormal_sine_configs(draw):
    """Sine combinations with max k_j + n_coeff < grid_size - 1, and 2 k_j and 2 n_max below it too.

    Simpson couples psi_i and psi_j only where i + j or i - j is a nonzero
    multiple of grid_size - 1, so in this range the grid projection, the grid
    norm of f and that of every expansion are the exact ones up to rounding.
    """
    grid_size = draw(st.sampled_from([65, 129, 513]))
    half = (grid_size - 2) // 2
    n_coeff = draw(st.integers(1, grid_size - 3))
    terms = draw(sine_terms(min(half, grid_size - 2 - n_coeff)))
    return fr.ExperimentConfig(
        signal=fr.SignalSpec.sines(terms),
        epsilon=draw(st.sampled_from([0.0, 1e-4, 1e-3, 3e-3])),
        n_coeff=n_coeff,
        grid_size=grid_size,
        n_max=draw(st.integers(1, min(n_coeff, half))),
        seeds=(draw(st.integers(0, 2**32 - 1)),),
        noise_mode=draw(st.sampled_from(["coefficient", "pointwise"])),
    )


class TestScoringTable:
    @SETTINGS
    @given(
        count=st.integers(1, 80), extra=st.integers(0, 40), grid_size=st.sampled_from([65, 129, 513]),
        data=st.data(),
    )
    def test_table_rows_sum_like_reconstruct(self, count, extra, grid_size, data):
        cfg = fr.ExperimentConfig(
            signal=fr.SignalSpec.named("f1"), epsilon=1e-3, n_coeff=count + extra, grid_size=grid_size, n_max=count,
        )
        ctx = fr.run_context(cfg)
        grid = ctx.data.grid
        # unique indices in drawn order: sparse, out of order, possibly empty
        ks = data.draw(st.lists(st.integers(1, count), unique=True, max_size=count))
        values = data.draw(st.lists(signed_values, min_size=len(ks), max_size=len(ks)))
        sol = fr.RegularizedSolution(indices=np.array(ks, dtype=int), values=np.array(values), method="any")
        want = sequential_sum(sol.coeffs, lambda k: sine_rows([k], grid.points)[0], grid.size)
        assert sol.to_grid(ctx.es, grid).tobytes() == want.tobytes()
        assert fr.reconstruct(sol.coeffs, fr.analytic_eigensystem(count), grid).tobytes() == want.tobytes()

    @SETTINGS
    @given(data=st.data())
    def test_numeric_table_rows_sum_like_reconstruct(self, numeric_es, data):
        grid, es = numeric_es
        ks = data.draw(st.lists(st.integers(1, es.count), unique=True, max_size=es.count))
        values = data.draw(st.lists(signed_values, min_size=len(ks), max_size=len(ks)))
        sol = fr.RegularizedSolution(indices=np.array(ks, dtype=int), values=np.array(values), method="any")
        nodes = node_values(es, grid)
        want = sequential_sum(sol.coeffs, lambda k: nodes[k - 1], grid.size)
        assert sol.to_grid(es, grid).tobytes() == want.tobytes()
        assert fr.reconstruct(sol.coeffs, es, grid).tobytes() == want.tobytes()

    def test_scoring_names_an_index_past_the_basis(self):
        ctx = fr.run_context(fr.preset("example1"))
        sol = fr.RegularizedSolution(indices=np.array([1, ctx.es.count + 1]), values=np.ones(2), method="any")
        with pytest.raises(IndexError, match=f"eigenpair index {ctx.es.count + 1} outside 1..{ctx.es.count}"):
            sol.to_grid(ctx.es, ctx.data.grid)

    @settings(max_examples=40, deadline=None)
    @given(cfg=grid_form_configs())
    # rows not orthonormal and f0 equal to f up to rounding: the form's terms cancel to about -4e-16
    @example(cfg=fr.ExperimentConfig(
        signal=fr.SignalSpec.tabulated(fr.evaluate_signal(fr.SignalSpec.sines([(5.0, 28)]), fr.simpson_grid(65))),
        epsilon=0.0, n_coeff=36, grid_size=65, n_max=36, methods=("f0",),
    ))
    def test_run_scores_from_its_table(self, cfg):
        # oracle: the norm on the grid of each method's expansion; the coefficient-space form
        # rounds differently, so squared errors agree to SCORE_TOL (absolute up to 1, relative beyond)
        records = fr.run_experiment(cfg)
        ctx = fr.run_context(cfg)
        grid = ctx.data.grid
        for rec in records:
            ds = fr.add_noise(ctx.data, cfg.epsilon, rec.seed, cfg.noise_mode)
            assert sorted([*rec.rel_l2, *rec.failures]) == sorted(cfg.methods)
            for name, err in rec.rel_l2.items():
                values = METHODS[name](ds, ctx, rec).to_grid(ctx.es, grid)
                oracle = grid.norm(values - ctx.data.f_vals) / ctx.f_norm
                assert abs(err**2 - oracle**2) <= SCORE_TOL * max(1.0, oracle**2)

    @settings(max_examples=40, deadline=None)
    @given(cfg=orthonormal_sine_configs())
    @example(cfg=fr.ExperimentConfig(signal=fr.SignalSpec.named("f2"), epsilon=3e-3, n_coeff=256, n_max=64))
    @example(cfg=fr.ExperimentConfig(signal=fr.SignalSpec.named("f3"), epsilon=1e-3, n_coeff=256, n_max=64))
    def test_sine_combinations_agree_with_the_grid_path(self, cfg):
        # oracle: the Simpson projection of f on the psi_k table, and each expansion's grid norm
        # against the grid norm of f, where Simpson leaves the rows orthonormal
        ctx = fr.run_context(cfg)
        data, grid = ctx.data, ctx.data.grid
        f_k = data.g_coeffs / data.es.eigenvalues
        scale = max(abs(a) for a, _ in _sine_terms(cfg.signal)) / np.sqrt(2.0)  # max |f_k| over every k
        assert np.max(np.abs(f_k - fr.project_all(data.f_vals, data.es, grid))) <= 1e-13 * scale
        f_norm = grid.norm(data.f_vals) or 1.0  # the zero signal's errors are absolute
        for rec in fr.run_experiment(cfg):
            ds = fr.add_noise(data, cfg.epsilon, rec.seed, cfg.noise_mode)
            assert sorted([*rec.rel_l2, *rec.failures]) == sorted(cfg.methods)
            for name, err in rec.rel_l2.items():
                oracle = grid.norm(METHODS[name](ds, ctx, rec).to_grid(ctx.es, grid) - data.f_vals) / f_norm
                assert abs(err**2 - oracle**2) <= SCORE_TOL * max(1.0, oracle**2)

    @pytest.mark.parametrize("name", fr.PRESETS)
    def test_the_empty_expansion_scores_exactly_one(self, name, monkeypatch):
        empty = fr.RegularizedSolution(indices=np.array([], dtype=int), values=np.array([]), method="empty")
        monkeypatch.setitem(METHODS, "k_beta", lambda ds, ctx, rec: empty)
        records = fr.run_experiment(fr.preset(name, seeds=range(3)))
        assert [rec.rel_l2["k_beta"] for rec in records] == [1.0] * 3

    def test_a_run_without_output_dir_expands_nothing_on_the_grid(self, monkeypatch, tmp_path):
        def refuse(self, es, grid):
            raise AssertionError("to_grid called")

        monkeypatch.setattr(fr.RegularizedSolution, "to_grid", refuse)
        for name in fr.PRESETS:
            for rec in fr.run_experiment(fr.preset(name, seeds=(0, 1))):
                assert sorted(rec.rel_l2) == sorted(fr.ALL_METHODS)
        # solutions.csv still takes the grid values from to_grid
        with pytest.raises(AssertionError, match="to_grid called"):
            fr.run_experiment(fr.preset("example1", output_dir=str(tmp_path)))


def former_csv_cells(column):
    """The former formula: the repr of the whole column as a list, cut at each ", "."""
    col = np.asarray(column)
    return repr(col.tolist())[1:-1].replace("None", "").split(", ") if col.size else []


def comprehension_autocorr_csv(report, record):
    """Text of the writer whose delta and threshold_n0 cells came from per-element comprehensions."""
    n_count, n0, significance = record.size, report.n0, report.significance
    series = fr.autocorr_estimate(record)
    n_cells, threshold0 = _fixed_autocorr_cells(n_count, significance)
    band = significance * fr.bartlett_stderr(series, n0, np.arange(n0 + 1, n_count))
    threshold_n0 = [None] * (n0 + 1) + band.tolist()
    delta = [d if math.isfinite(d) else None for d in series.delta.tolist()]
    rows = zip(n_cells, former_csv_cells(delta), threshold0, former_csv_cells(threshold_n0), strict=True)
    return "\n".join(["n,delta,threshold0,threshold_n0", *map(",".join, rows), ""])


class TestEmissionCells:
    @SETTINGS
    @given(column=st.one_of(
        st.lists(st.integers(-(2**62), 2**62), max_size=40).map(np.array),
        st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), max_size=40).map(np.array),
        st.lists(st.none() | st.floats() | st.sampled_from(EDGE_FLOATS), max_size=40),
    ))
    @example(column=np.array(EDGE_FLOATS))
    @example(column=[None, *EDGE_FLOATS, None])
    def test_csv_cells_match_the_split_repr(self, column):
        assert fr.csv_cells(column) == former_csv_cells(column)

    def test_numpy_scalars_beside_none_are_their_python_values(self):
        assert fr.csv_cells([np.float64(0.1), None, 2]) == ["0.1", "", "2"]
        column = [np.float32(0.1), np.int64(-3), None, np.float64(5e-324), np.float64(np.nan)]
        assert fr.csv_cells(column) == fr.csv_cells([float(np.float32(0.1)), -3, None, 5e-324, math.nan])

    @SETTINGS
    @given(g=selection_records(), significance=significances, data=st.data())
    def test_autocorr_csv_matches_the_comprehension_writer(self, g, significance, data, tmp_path_factory):
        # constant runs and repeated integers leave undefined lags; n0 at 0 or at the window's end
        last_lag = data.draw(st.integers(1, g.size - 1), label="last_lag")
        series = fr.autocorr_estimate(g, last_lag)
        n0 = data.draw(st.sampled_from([0, last_lag]), label="n0")
        report = fr.SelectionReport(n0=n0, Q=[], pairs=[], series=series, significance=significance)
        path = tmp_path_factory.mktemp("csv") / "autocorr.csv"
        text = report.write_autocorr_csv(str(path), g)
        assert text == path.read_text() == comprehension_autocorr_csv(report, g)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324]), min_size=1, max_size=300))
    @example(values=[-0.0])  # one value: both quartiles take the last from index -1, where _lerp keeps its sign
    @example(values=[0.1])
    @example(values=[0.7, 0.1])
    @example(values=[-0.0, -0.0])  # the median sums from +0.0; q25 rounds to +0.0 and q75 keeps -0.0
    @example(values=[0.3, 0.1, 0.2])
    @example(values=[0.1, 0.2, 0.2, 0.2, 0.9])  # ties
    @example(values=[1.0, 1.0, 3.0, 3.0])
    @example(values=[1e300, -1e300, 1e300, 5e-324])
    def test_summary_quartiles_match_one_call_each(self, values):
        arr = np.asarray(values, dtype=float)
        want = [arr.size, float(np.median(arr)), float(np.percentile(arr, 25)), float(np.percentile(arr, 75))]
        got = _median_iqr(values)
        got = [got["n"], got["median"], got["q25"], got["q75"]]
        assert got == want
        # bit for bit, signs included, unless 0.0 and -0.0 both occur: the partition that one call
        # shares between both quartiles can order those equal values differently.  A run's errors
        # are >= +0.0 and its cutoffs integers, so no summary of a run holds both
        if not (np.any(np.signbit(arr) & (arr == 0)) and np.any(~np.signbit(arr) & (arr == 0))):
            assert list(map(float.hex, got[1:])) == list(map(float.hex, want[1:]))
