import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredreg as fr
from fredreg import CumulativeProfile


def dataset_from_coeffs(es, grid, coeffs, epsilon=0.0):
    coeffs = np.asarray(coeffs, dtype=float)
    return fr.NoisyDataset(
        g_bar=coeffs @ es.basis_matrix(grid.points, coeffs.size),
        coeffs=coeffs, epsilon=epsilon, seed=0, n_coeff=coeffs.size,
    )


class TestCumulativeProfile:
    def test_unit_summands(self, grid513):
        es = fr.analytic_eigensystem(6)
        coeffs = np.zeros(6)
        coeffs[:3] = es.eigenvalues[:3]  # gbar_k = lam_k for k <= 3
        ds = dataset_from_coeffs(es, grid513, coeffs)
        profile = fr.cumulative_profile(ds, es)
        npt.assert_allclose(profile.values, [1, 2, 3, 3, 3, 3], atol=1e-14)

    def test_parseval_plateau_for_eigenfunction(self, grid513):
        es = fr.analytic_eigensystem(8)
        coeffs = np.zeros(8)
        coeffs[0] = es.eigenvalue(1)  # g = A psi_1
        ds = dataset_from_coeffs(es, grid513, coeffs)
        profile = fr.cumulative_profile(ds, es)
        npt.assert_allclose(profile.values, np.ones(8), atol=1e-14)

    def test_monotone_and_total(self, es512, grid513):
        ds, _, _ = fr.synthesize_dataset(fr.SignalSpec.named("f1"), es512, grid513, 1e-4, 1, 512)
        profile = fr.cumulative_profile(ds, es512)
        assert np.all(np.diff(profile.values) >= 0)
        total = np.sum((ds.coeffs / es512.eigenvalues) ** 2)
        assert profile.values[-1] == pytest.approx(total, rel=1e-12)

    def test_example1_plateau_near_signal_norm(self, es512, grid513, example1_seed0):
        ds, f_vals, _ = example1_seed0
        c1 = grid513.norm(f_vals) ** 2
        profile = fr.cumulative_profile(ds, es512)
        plateaus = fr.detect_plateau(profile, window=3, flatness=0.05)
        assert plateaus, "expected at least one flat stretch"
        start, end, level = plateaus[0]
        # first flat stretch sits inside the rough 4..10 range at the level of
        # ||f||^2; later spurious plateaus from noise growth are expected
        assert 3 <= start <= 5 and end >= 8
        assert level == pytest.approx(c1, rel=0.05)

    def test_csv(self, tmp_path):
        profile = CumulativeProfile(values=np.array([1.0, 2.5]))
        path = tmp_path / "profile.csv"
        profile.write_csv(str(path))
        assert path.read_text() == "m,M\n1,1.0\n2,2.5\n"


class TestK0Cutoff:
    def test_direct_definition(self, grid513):
        es = fr.analytic_eigensystem(6)
        coeffs = np.zeros(6)
        coeffs[:3] = es.eigenvalues[:3]
        ds = dataset_from_coeffs(es, grid513, coeffs)
        assert fr.k0_cutoff(ds, es, 2.5) == 2

    def test_budget_never_exceeded(self, grid513):
        es = fr.analytic_eigensystem(6)
        ds = dataset_from_coeffs(es, grid513, es.eigenvalues * 0.1)
        assert fr.k0_cutoff(ds, es, 1e6) == 6

    def test_zero_when_first_term_over(self, grid513):
        es = fr.analytic_eigensystem(4)
        ds = dataset_from_coeffs(es, grid513, es.eigenvalues)
        assert fr.k0_cutoff(ds, es, 0.5) == 0

    def test_monotone_in_budget(self, es512, grid513, example1_seed0):
        ds, _, _ = example1_seed0
        cuts = [fr.k0_cutoff(ds, es512, c1) for c1 in (0.01, 0.05, 0.148, 0.2, 1.0)]
        assert cuts == sorted(cuts)

    def test_example1_k0_distribution(self, es512, grid513):
        # k0 concentrates in [3, 10]: the k=4 noise cross-term tips M over
        # C1 on roughly a third of seeds, the rest land in the 4..10 stretch
        f = fr.evaluate_signal(fr.SignalSpec.named("f1"), grid513)
        c1 = grid513.norm(f) ** 2
        k0s = []
        for seed in range(100):
            ds, _, _ = fr.synthesize_dataset(fr.SignalSpec.named("f1"), es512, grid513, 1e-4, seed, 512)
            k0s.append(fr.k0_cutoff(ds, es512, c1))
        k0s = np.asarray(k0s)
        assert np.mean((k0s >= 3) & (k0s <= 10)) >= 0.95
        assert np.mean((k0s >= 4) & (k0s <= 10)) >= 0.5


class TestF0Approximation:
    def test_noiseless_span_recovery(self, grid513):
        es = fr.analytic_eigensystem(16)
        rng = np.random.default_rng(5)
        f_coeffs = np.zeros(16)
        f_coeffs[:5] = rng.normal(size=5)
        g_coeffs = es.eigenvalues * f_coeffs
        ds = dataset_from_coeffs(es, grid513, g_coeffs)
        f_vals = f_coeffs @ es.basis_matrix(grid513.points, 16)
        sol = fr.f0_approximation(ds, es, c1=float(np.sum(f_coeffs**2)))
        assert grid513.norm(sol.to_grid(es, grid513) - f_vals) < 1e-8

    def test_zero_cutoff_gives_zero_solution(self, grid513):
        es = fr.analytic_eigensystem(4)
        ds = dataset_from_coeffs(es, grid513, es.eigenvalues)
        sol = fr.f0_approximation(ds, es, 0.5)
        assert sol.indices.size == 0
        assert not sol.to_grid(es, grid513).any()

    def test_error_decreases_with_noise(self, es512, grid513):
        # noise-trend check on a small seed batch
        f = fr.evaluate_signal(fr.SignalSpec.named("f1"), grid513)
        c1 = grid513.norm(f) ** 2
        medians = []
        for eps in (1e-3, 1e-4, 1e-5):
            errs = []
            for seed in range(10):
                ds, f_vals, _ = fr.synthesize_dataset(
                    fr.SignalSpec.named("f1"), es512, grid513, eps, seed, 512
                )
                sol = fr.f0_approximation(ds, es512, c1)
                errs.append(grid513.norm(sol.to_grid(es512, grid513) - f_vals) / grid513.norm(f_vals))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestDetectPlateau:
    def test_hand_example(self):
        profile = CumulativeProfile(values=np.array([1, 2, 3, 3.01, 3.02, 9.0]))
        out = fr.detect_plateau(profile, window=3, flatness=0.02)
        assert len(out) == 1
        start, end, level = out[0]
        assert (start, end) == (3, 5)
        assert level == pytest.approx(3.01)

    def test_exponential_has_no_plateau(self):
        profile = CumulativeProfile(values=2.0 ** np.arange(12))
        assert fr.detect_plateau(profile, window=3, flatness=0.01) == []

    def test_constant_is_single_full_plateau(self):
        profile = CumulativeProfile(values=np.full(9, 4.0))
        out = fr.detect_plateau(profile, window=3, flatness=0.01)
        assert out == [(1, 9, 4.0)]

    def test_parameter_validation(self):
        profile = CumulativeProfile(values=np.arange(1.0, 5.0))
        with pytest.raises(ValueError):
            fr.detect_plateau(profile, window=1, flatness=0.05)
        with pytest.raises(ValueError):
            fr.detect_plateau(profile, window=3, flatness=0.0)

    def test_subnormal_start_is_not_flat_and_silent(self):
        # 1 / 5e-324 overflows to inf: the range reads as not flat, without a RuntimeWarning
        profile = CumulativeProfile(values=[5e-324, 5e-324, 1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fr.detect_plateau(profile, window=3, flatness=0.05) == [(3, 5, 1.0)]

    @settings(max_examples=80)
    @given(
        steps=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=24),
        flatness=st.floats(0.01, 0.5),
        window=st.integers(2, 5),
    )
    def test_matches_brute_force(self, steps, flatness, window):
        values = np.cumsum(np.asarray(steps))
        if np.any(values <= 0):
            values = values - values.min() + 0.1
        profile = CumulativeProfile(values=values)
        got = fr.detect_plateau(profile, window=window, flatness=flatness)

        def is_flat(lo, hi):
            seg = values[lo : hi + 1]
            return seg.max() <= (1 + flatness) * seg.min()

        n = values.size
        brute = []
        for lo in range(n):
            for hi in range(lo + window - 1, n):
                if is_flat(lo, hi):
                    bigger = (lo > 0 and is_flat(lo - 1, hi)) or (hi + 1 < n and is_flat(lo, hi + 1))
                    if not bigger:
                        brute.append((lo + 1, hi + 1))
        assert [(s, e) for s, e, _ in got] == brute
