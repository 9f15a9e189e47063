import dataclasses
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredreg as fr
from fredreg import EigenDecompositionError


class TestSampleKernel:
    # simpson_grid(5) has the points 0, 0.25, 0.5, 0.75, 1
    def test_diagonal(self):
        assert fr.sample_kernel_matrix(fr.simpson_grid(5)).values[2, 2] == pytest.approx(0.25)

    def test_upper_branch(self):
        assert fr.sample_kernel_matrix(fr.simpson_grid(5)).values[1, 3] == pytest.approx(0.0625)

    def test_boundary_zero(self):
        vals = fr.sample_kernel_matrix(fr.simpson_grid(65)).values
        assert not vals[:, 0].any() and not vals[:, -1].any()

    def test_symmetry(self):
        vals = fr.sample_kernel_matrix(fr.simpson_grid(65)).values
        assert np.array_equal(vals, vals.T)

    def test_domain_error(self):
        for a, b in ((0.0, 2.0), (-0.1, 1.0)):
            with pytest.raises(ValueError, match=r"defined on \[0, 1\]"):
                fr.sample_kernel_matrix(fr.simpson_grid(5, a=a, b=b))


class TestQuadratureGrid:
    def test_weights_sum(self, grid513):
        assert abs(grid513.weights.sum() - 1.0) <= 1e-12

    def test_needs_odd_size(self):
        with pytest.raises(ValueError):
            fr.simpson_grid(512)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            fr.simpson_grid(1)

    def test_polynomial_exactness(self):
        # Simpson integrates cubics exactly
        g = fr.simpson_grid(65)
        x = g.points
        assert np.sum(g.weights * x**3) == pytest.approx(0.25, abs=1e-14)

    def test_rejects_decreasing_points(self):
        with pytest.raises(ValueError):
            fr.QuadratureGrid(points=np.array([0.0, 0.5, 0.4]), weights=np.full(3, 1 / 3), a=0, b=1)

    @pytest.mark.parametrize(
        "value", [True, "0", float("nan"), float("inf"), 10**400], ids=["True", "'0'", "nan", "inf", "10**400"]
    )
    @pytest.mark.parametrize("bound", ["a", "b"])
    def test_bounds_are_finite_real_numbers(self, bound, value):
        # a = nan passed every check on the points and weights; True read as 1
        grid = fr.simpson_grid(5)
        bounds = {"a": 0.0, "b": 1.0, bound: value}
        with pytest.raises(ValueError, match=f"^{bound} must be finite, got"):
            fr.QuadratureGrid(points=grid.points, weights=grid.weights, **bounds)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["points", "weights"])
    def test_float_arrays_must_be_finite(self, field, bad):
        # a NaN weight built: NaN fails the "> 1e-12" sum check, so nothing refused it
        grid = fr.simpson_grid(5)
        arrays = {"points": grid.points.copy(), "weights": grid.weights.copy()}
        arrays[field][3] = bad
        name = {"points": "grid points", "weights": "quadrature weights"}[field]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {bad!r} at index 3")):
            fr.QuadratureGrid(a=0.0, b=1.0, **arrays)

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.sampled_from([5, 65, 129, 513]), seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-140, 140), zeros=st.booleans(),
    )
    def test_norm_keeps_the_bits_of_the_plain_sum(self, size, seed, exponent, zeros):
        # oracle: the former norm, which squares and sums with no rescale
        g = fr.simpson_grid(size)
        f = np.random.default_rng(seed).normal(size=size) * 10.0**exponent
        if zeros:
            f[::3] = 0.0
        want = float(np.sqrt(np.sum(g.weights * f**2)))
        assert g.norm(f) == want

    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e-170, 1e-300])
    def test_norm_of_a_large_or_tiny_function(self, scale):
        # the plain sum of squares overflows or underflows at these magnitudes; oracle: exact rationals
        g = fr.simpson_grid(65)
        f = scale * (np.sin(np.pi * g.points) + 2.0)
        exact_sq = sum(Fraction(w) * Fraction(x) ** 2 for w, x in zip(g.weights.tolist(), f.tolist()))
        with localcontext() as ctx:
            ctx.prec = 40
            want = float((Decimal(exact_sq.numerator) / Decimal(exact_sq.denominator)).sqrt())
        assert g.norm(f) == pytest.approx(want, rel=4e-16, abs=0.0)

    def test_norm_of_zero_and_of_non_finite_values(self):
        g = fr.simpson_grid(65)
        assert g.norm(np.zeros(65)) == 0.0
        assert g.norm(np.full(65, np.inf)) == np.inf
        assert np.isnan(g.norm(np.full(65, np.nan)))


class TestAnalyticEigensystem:
    def test_first_eigenvalue(self, es64):
        assert es64.eigenvalues[0] == pytest.approx(1.0 / np.pi**2, rel=1e-14)

    def test_eigenvalue_13(self, es64):
        assert es64.eigenvalues[12] == pytest.approx(1.0 / (169 * np.pi**2), rel=1e-14)

    def test_eigenfunction_midpoint(self, es64):
        assert es64.basis_matrix(np.array([0.5]), 1)[0, 0] == pytest.approx(np.sqrt(2.0))

    def test_orthonormality_upto_40(self, es512, grid513):
        basis = es512.basis_matrix(grid513.points, 40)
        gram = (basis * grid513.weights) @ basis.T
        npt.assert_allclose(gram, np.eye(40), atol=1e-8)

    def test_index_errors(self, es64):
        for upto in (0, 65):
            with pytest.raises(IndexError):
                es64.basis_matrix(np.array([0.5]), upto)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            fr.analytic_eigensystem(0)

    def test_count_is_the_eigenvalue_count(self, es64):
        assert [f.name for f in dataclasses.fields(es64)] == ["eigenvalues", "evaluator"]
        assert es64.count == es64.eigenvalues.size == 64

    @pytest.mark.parametrize(
        "eigenvalues, index", [([math.inf, 1.0, 0.5], 0), ([2.0, 1.0, math.nan], 2), ([2.0, 1.0, -0.5], 2)]
    )
    def test_float_array_eigenvalues_must_be_finite_and_nonnegative(self, es64, eigenvalues, index):
        # [inf, 1.0, 0.5] built, and a NaN passed both the sign and the order check
        message = f"eigenvalues must be finite and >= 0, got {eigenvalues[index]!r} at index {index}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fr.EigenSystem(eigenvalues=np.array(eigenvalues), evaluator=es64.evaluator)

    def test_rejects_two_dimensional_eigenvalues(self, es64):
        with pytest.raises(ValueError, match="1-d array"):
            fr.EigenSystem(eigenvalues=es64.eigenvalues[:4].reshape(2, 2), evaluator=es64.evaluator)


class TestProjectReconstruct:
    def test_orthonormality_projection(self, es64, grid513):
        psi2 = es64.basis_matrix(grid513.points, 2)[1]
        coeffs = fr.project_all(psi2, es64, grid513, 5)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-8)
        assert coeffs[4] == pytest.approx(0.0, abs=1e-8)

    def test_parabola_against_closed_form(self, es64, grid513):
        # int_0^1 x(1-x) sqrt(2) sin(pi x) dx = 4 sqrt(2) / pi^3
        f = grid513.points * (1 - grid513.points)
        expected = 4.0 * np.sqrt(2.0) / np.pi**3
        assert fr.project_all(f, es64, grid513, 1)[0] == pytest.approx(expected, abs=1e-8)

    def test_single_basis_function(self, es64, grid513):
        out = fr.reconstruct([(1, 1.0)], es64, grid513)
        npt.assert_allclose(out, np.sqrt(2) * np.sin(np.pi * grid513.points), atol=1e-14)

    def test_empty_expansion_is_zero(self, es64, grid513):
        assert not fr.reconstruct([], es64, grid513).any()

    def test_project_reconstruct_roundtrip(self, es64, grid513):
        basis = es64.basis_matrix(grid513.points, 4)
        f = basis[0] + 0.5 * basis[3]
        coeffs = list(enumerate(fr.project_all(f, es64, grid513, 8), start=1))
        back = fr.reconstruct(coeffs, es64, grid513)
        assert grid513.norm(back - f) < 1e-8

    def test_parseval(self, es64, grid513):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8)
        f = amps @ es64.basis_matrix(grid513.points, 8)
        coeffs = fr.project_all(f, es64, grid513, 8)
        assert np.sum(coeffs**2) == pytest.approx(grid513.norm(f) ** 2, abs=1e-8)

    def test_out_of_range_reconstruct(self, es64, grid513):
        with pytest.raises(IndexError):
            fr.reconstruct([(65, 1.0)], es64, grid513)


class TestTabulatedKernel:
    def test_operator_consistency(self, es64, grid513):
        kern = fr.sample_kernel_matrix(grid513)
        basis = es64.basis_matrix(grid513.points, 20)
        for k in (1, 5, 11, 20):
            psi = basis[k - 1]
            applied = kern.values @ (grid513.weights * psi)  # quadrature of int K(x, y) psi(y) dy
            assert grid513.norm(applied - es64.eigenvalues[k - 1] * psi) < 1e-6

    def test_asymmetry_rejected(self, grid513):
        vals = fr.sample_kernel_matrix(grid513).values.copy()
        vals[3, 5] += 1e-6
        with pytest.raises(ValueError):
            fr.TabulatedKernel(values=vals, grid=grid513)


@pytest.fixture
def solver_calls(monkeypatch):
    """Names of the solvers numeric_eigensystem calls: numpy's dense "eigh" or scipy's Lanczos "eigsh"."""
    import scipy.sparse.linalg

    calls = []
    for module, name in ((np.linalg, "eigh"), (scipy.sparse.linalg, "eigsh")):

        def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


# (grid size, n_max) of every numeric eigensystem the suite builds, with the solver each takes, and
# the n_max <= npts // 8 edge at 1025 points; 4097 points is test_eigenvalues_relative_error_k10's
SUITE_SOLVES = [
    (129, 12, "eigh"), (129, 20, "eigh"), (401, 8, "eigh"), (513, 2, "eigh"), (513, 3, "eigh"),
    (513, 64, "eigh"), (1025, 5, "eigsh"), (1025, 128, "eigsh"), (1025, 129, "eigh"),
]


class TestNumericEigensystem:
    @pytest.mark.parametrize("npts, n_max, solver", SUITE_SOLVES)
    def test_solver_dispatch(self, npts, n_max, solver, monkeypatch):
        # dense up to the default grid; Lanczos only for n_max <= npts // 8 on a larger one.
        # Each stub fails as its solver can, and both failures read as EigenDecompositionError
        import scipy.sparse.linalg

        calls = []

        def failing(name, error):
            def solve(*args, **kwargs):
                calls.append(name)
                raise error

            return solve

        monkeypatch.setattr(np.linalg, "eigh", failing("eigh", np.linalg.LinAlgError("stub")))
        no_convergence = scipy.sparse.linalg.ArpackNoConvergence("stub", [], [])
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing("eigsh", no_convergence))
        kernel = fr.sample_kernel_matrix(fr.simpson_grid(npts))
        message = "eigendecomposition failed: " + ("stub" if solver == "eigh" else "ARPACK error -1: stub")
        with pytest.raises(EigenDecompositionError, match=f"^{message}$"):
            fr.numeric_eigensystem(kernel, n_max)
        assert calls == [solver]

    def test_dense_eigh_matches_lanczos_at_513(self, solver_calls):
        # the workload's 513 points and 64 pairs, against the Lanczos solve that served them before
        import scipy.sparse.linalg

        grid = fr.simpson_grid(513)
        kernel = fr.sample_kernel_matrix(grid)
        nes = fr.numeric_eigensystem(kernel, 64)
        assert solver_calls == ["eigh"]
        sw = np.sqrt(grid.weights)
        vals, vecs = scipy.sparse.linalg.eigsh(sw[:, None] * kernel.values * sw, k=64, which="LA", v0=np.ones(513))
        order = np.argsort(vals)[::-1]
        funcs = (vecs[:, order] / sw[:, None]).T
        for row in funcs:  # the sign rule: the first nonzero grid value is positive
            row *= np.sign(row[np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0]])
        assert np.max(np.abs(nes.eigenvalues / vals[order] - 1.0)) <= 1e-12
        assert np.max(np.abs(nes.basis_matrix(grid.points) - funcs)) <= 1e-9

    def test_first_eigenvalue_401(self):
        grid = fr.simpson_grid(401)
        nes = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), 8)
        assert abs(nes.eigenvalues[0] - 1.0 / np.pi**2) < 1e-6

    def test_eigenfunction_3_sign_fixed(self):
        grid = fr.simpson_grid(1025)
        nes = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), 5)
        truth = np.sqrt(2) * np.sin(3 * np.pi * grid.points)
        assert grid.norm(nes.basis_matrix(grid.points, 3)[2] - truth) < 1e-5

    def test_eigenvalues_relative_error_k10(self, solver_calls):
        # the kernel slope jump across the diagonal biases Nystrom eigenvalues
        # by ~h^2/9, so the 1e-5 relative target needs a fine grid, where Lanczos
        # takes a tenth of a dense solve's time
        grid = fr.simpson_grid(4097)
        nes = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), 10)
        assert solver_calls == ["eigsh"]
        ks = np.arange(1, 11)
        rel = np.abs(nes.eigenvalues - 1.0 / (ks * np.pi) ** 2) * (ks * np.pi) ** 2
        assert rel.max() < 1e-5

    def test_rank_deficiency_flagged(self, grid513):
        psi1 = np.sqrt(2) * np.sin(np.pi * grid513.points)
        vals = np.outer(psi1, psi1)  # rank one
        kern = fr.TabulatedKernel(values=vals, grid=grid513)
        with pytest.raises(EigenDecompositionError):
            fr.numeric_eigensystem(kern, 2)

    def test_repeated_eigenvalue_flagged(self, grid513):
        psi1 = np.sqrt(2) * np.sin(np.pi * grid513.points)
        psi2 = np.sqrt(2) * np.sin(2 * np.pi * grid513.points)
        vals = np.outer(psi1, psi1) + np.outer(psi2, psi2)  # eigenvalues 1, 1
        kern = fr.TabulatedKernel(values=vals, grid=grid513)
        with pytest.raises(EigenDecompositionError):
            fr.numeric_eigensystem(kern, 2)

    def test_dense_branch(self, solver_calls):
        # 129 points, within the default grid size, take numpy's dense eigh, not Lanczos
        grid = fr.simpson_grid(129)
        nes = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), 20)
        assert solver_calls == ["eigh"] and nes.count == 20
        # within the Nystrom bias ~(k pi h)^2 / 9 of the kernel's slope jump
        ks = np.arange(1, 21)
        bias = (ks * np.pi / 128) ** 2 / 9
        rel = np.abs(nes.eigenvalues * (ks * np.pi) ** 2 - 1.0)
        assert np.all(rel < 1.1 * bias)
        # sign rule: each eigenfunction's first nonzero grid value is positive
        rows = nes.basis_matrix(grid.points)
        for row in rows:
            assert row[np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0]] > 0
        truth = np.sqrt(2) * np.sin(np.outer(ks * np.pi, grid.points))
        assert max(grid.norm(r - t) for r, t in zip(rows, truth)) < 0.05
        psi1 = np.sqrt(2) * np.sin(np.pi * grid.points)
        rank_one = fr.TabulatedKernel(values=np.outer(psi1, psi1), grid=grid)
        with pytest.raises(EigenDecompositionError, match="smallest eigenvalue"):
            fr.numeric_eigensystem(rank_one, 20)
        assert solver_calls == ["eigh", "eigh"]

    @pytest.mark.parametrize("n_max", [True, 2.0, np.float64(3.0), 0, 66])
    def test_bad_n_max_named(self, n_max):
        # True gave a 1-pair system; 2.0 and np.float64(3.0) raised a bare TypeError (slice indices)
        kernel = fr.sample_kernel_matrix(fr.simpson_grid(65))
        with pytest.raises(ValueError, match=re.escape(f"n_max must be an integer in 1..65, got {n_max!r}")):
            fr.numeric_eigensystem(kernel, n_max)

    def test_a_numpy_integer_n_max_is_accepted(self):
        kernel = fr.sample_kernel_matrix(fr.simpson_grid(65))
        assert fr.numeric_eigensystem(kernel, np.int64(3)).count == 3

    def test_matches_analytic_at_513(self, grid513):
        nes = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid513), 3)
        assert nes.eigenvalues[0] == pytest.approx(1 / np.pi**2, rel=1e-4)

