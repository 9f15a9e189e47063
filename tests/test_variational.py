import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredreg as fr
from fredreg.variational import ConstraintSpec, VarianceProfile

NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def small_setup():
    grid = fr.simpson_grid(129)
    es = fr.analytic_eigensystem(16)
    rng = np.random.default_rng(42)
    ds = fr.NoisyDataset(rng.normal(scale=1e-3, size=16) + es.eigenvalues)
    return grid, es, ds


class TestConstraintSpec:
    def test_default_spectrum_is_k(self):
        cs = ConstraintSpec(E=1.0, eps=0.1)
        npt.assert_array_equal(cs.spectrum(5), [1, 2, 3, 4, 5])

    def test_nonpositive_E_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec(E=0.0, eps=0.1)

    @pytest.mark.parametrize("E", [NAN, INF])
    def test_non_finite_E_rejected(self, E):
        with pytest.raises(ValueError, match=f"bound E must be finite and > 0, got {E!r}"):
            ConstraintSpec(E=E, eps=0.1)

    @pytest.mark.parametrize("eps", [NAN, INF])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=f"bound eps must be finite and >= 0, got {eps!r}"):
            ConstraintSpec(E=1.0, eps=eps)

    def test_constant_spectrum_warns_but_works(self):
        with pytest.warns(UserWarning):
            cs = ConstraintSpec(E=1.0, eps=0.1, c=np.ones(8))
        npt.assert_array_equal(cs.spectrum(8), np.ones(8))


class TestTikhonovFull:
    def test_noiseless_is_unfiltered_expansion(self, small_setup):
        grid, es, ds = small_setup
        sol = fr.tikhonov_full(ds, es, ConstraintSpec(E=2.0, eps=0.0))
        npt.assert_allclose(sol.values, ds.coeffs / es.eigenvalues, rtol=1e-14)

    def test_balanced_point_halves(self, small_setup):
        grid, es, ds = small_setup
        # with lam_k = (eps/E) c_k the filter gives gbar_k / (2 lam_k)
        k = 3
        alpha = es.eigenvalues[k - 1] / k
        sol = fr.tikhonov_full(ds, es, ConstraintSpec(E=1.0, eps=alpha))
        assert sol.values[k - 1] == pytest.approx(ds.coeffs[k - 1] / (2 * es.eigenvalues[k - 1]))

    def test_filter_factor_in_unit_interval(self, small_setup):
        grid, es, ds = small_setup
        sol = fr.tikhonov_full(ds, es, ConstraintSpec(E=1.0, eps=3e-4))
        factors = es.eigenvalues * sol.values / ds.coeffs
        assert np.all(factors > 0) and np.all(factors <= 1)


class TestTruncations:
    def test_k_alpha_example1(self, es512, grid513):
        f = fr.evaluate_signal(fr.SignalSpec.named("f1"), grid513)
        ds, _, _ = fr.synthesize_dataset(fr.SignalSpec.named("f1"), es512, grid513, 1e-4, 0, 512)
        cs = ConstraintSpec(E=grid513.norm(f), eps=fr.noise_dispersion(1e-4))
        sol = fr.truncated_k_alpha(ds, es512, cs)
        assert sol.params["k_alpha"] == 8

    def test_k_alpha_example2(self, es512, grid513):
        f = fr.evaluate_signal(fr.SignalSpec.named("f2"), grid513)
        ds, _, _ = fr.synthesize_dataset(fr.SignalSpec.named("f2"), es512, grid513, 3e-3, 0, 512)
        cs = ConstraintSpec(E=grid513.norm(f), eps=fr.noise_dispersion(3e-3))
        sol = fr.truncated_k_alpha(ds, es512, cs)
        assert sol.params["k_alpha"] == 9

    def test_total_truncation_is_empty(self, small_setup):
        grid, es, ds = small_setup
        sol = fr.truncated_k_alpha(ds, es, ConstraintSpec(E=1e-9, eps=1e3))
        assert sol.indices.size == 0
        assert not sol.to_grid(es, grid).any()

    def test_k_beta_arithmetic(self, es512, grid513):
        # lam_k = 1/(k pi)^2 >= eps/E = 1/(100 pi^2) iff k^2 <= 100
        ds, _, _ = fr.synthesize_dataset(fr.SignalSpec.named("f1"), es512, grid513, 0.0, 0, 512)
        sol = fr.truncated_k_beta(ds, es512, E=1.0, eps=1.0 / (100 * np.pi**2))
        assert sol.params["k_beta"] == 10

    def test_k_beta_empty_when_eps_large(self, small_setup):
        grid, es, ds = small_setup
        sol = fr.truncated_k_beta(ds, es, E=1.0, eps=1.0)
        assert sol.indices.size == 0

    def test_k_alpha_constant_c_equals_k_beta(self, small_setup):
        grid, es, ds = small_setup
        with pytest.warns(UserWarning):
            cs = ConstraintSpec(E=0.7, eps=3e-3, c=np.ones(16))
        a = fr.truncated_k_alpha(ds, es, cs)
        b = fr.truncated_k_beta(ds, es, E=0.7, eps=3e-3)
        npt.assert_array_equal(a.indices, b.indices)
        npt.assert_array_equal(a.values, b.values)

    def test_k_alpha_monotone_in_eps_and_E(self, small_setup):
        grid, es, ds = small_setup
        kas = [
            fr.truncated_k_alpha(ds, es, ConstraintSpec(E=1.0, eps=e)).params["k_alpha"]
            for e in (1e-5, 1e-4, 1e-3, 1e-2)
        ]
        assert kas == sorted(kas, reverse=True)
        kas_E = [
            fr.truncated_k_alpha(ds, es, ConstraintSpec(E=E, eps=1e-3)).params["k_alpha"]
            for E in (0.1, 1.0, 10.0)
        ]
        assert kas_E == sorted(kas_E)

    def test_k_beta_monotone_in_eps_and_E(self, small_setup):
        grid, es, ds = small_setup
        kbs = [
            fr.truncated_k_beta(ds, es, E=1.0, eps=e).params["k_beta"]
            for e in (1e-5, 1e-4, 1e-3, 1e-2)
        ]
        assert kbs == sorted(kbs, reverse=True)
        kbs_E = [
            fr.truncated_k_beta(ds, es, E=E, eps=1e-3).params["k_beta"]
            for E in (0.1, 1.0, 10.0)
        ]
        assert kbs_E == sorted(kbs_E)

    @pytest.mark.parametrize("ks", [[600], [1, 513, 2], np.array([3, 1024])], ids=repr)
    def test_index_past_the_record_names_it_and_the_record_length(self, ks):
        # a 1024-pair eigensystem over a 512-coefficient record gave numpy's bare "index 599 is out of bounds"
        es, ds = fr.analytic_eigensystem(1024), fr.NoisyDataset(np.ones(512))
        with pytest.raises(IndexError, match=rf"^coefficient index {max(ks)} outside 1\.\.512 of the record$"):
            fr.truncated_expansion(ds, es, ks, "any", {})
        sol = fr.truncated_expansion(ds, es, [1, 512], "any", {})  # the record's last index is in range
        npt.assert_array_equal(sol.values, 1.0 / es.eigenvalues[[0, 511]])


class TestTikhonovIdentity:
    def test_noiseless(self, small_setup):
        grid, es, ds = small_setup
        sol = fr.tikhonov_identity(ds, es, E=1.0, eps=0.0)
        npt.assert_allclose(sol.values, ds.coeffs / es.eigenvalues, rtol=1e-14)

    def test_equals_tikhonov_full_with_unit_c(self, small_setup):
        grid, es, ds = small_setup
        with pytest.warns(UserWarning):
            cs = ConstraintSpec(E=0.5, eps=2e-3, c=np.ones(16))
        a = fr.tikhonov_full(ds, es, cs)
        b = fr.tikhonov_identity(ds, es, E=0.5, eps=2e-3)
        npt.assert_array_equal(a.values, b.values)

    def test_single_coefficient_hand_case(self):
        es = fr.analytic_eigensystem(1)
        lam = es.eigenvalues[0]
        ds = fr.NoisyDataset(np.array([lam]))
        sol = fr.tikhonov_identity(ds, es, E=1.0, eps=lam)
        assert sol.values[0] == pytest.approx(0.5)

    def test_bad_bound(self, small_setup):
        grid, es, ds = small_setup
        with pytest.raises(ValueError):
            fr.tikhonov_identity(ds, es, E=-1.0, eps=0.1)

    # each returned a plausible solution: NaN or raw coefficients, k_beta = 0 or every index
    @pytest.mark.parametrize("method", [fr.tikhonov_identity, fr.truncated_k_beta])
    @pytest.mark.parametrize(
        "E, eps, named",
        [(NAN, 1e-3, "E"), (INF, 1e-3, "E"), (1.0, NAN, "eps"), (1.0, INF, "eps"), (1.0, -1e-3, "eps")],
    )
    def test_bounds_checked_by_constraint_spec(self, small_setup, method, E, eps, named):
        grid, es, ds = small_setup
        with pytest.raises(ValueError, match=f"bound {named} must be finite"):
            method(ds, es, E, eps)


class TestBestLinearEstimate:
    def test_reduces_to_identity_filter(self, small_setup):
        grid, es, ds = small_setup
        E, eps = 0.8, 4e-3
        vp = VarianceProfile(rho=np.full(16, E), nu=np.ones(16), eps=eps)
        a = fr.best_linear_estimate(ds, es, vp)
        b = fr.tikhonov_identity(ds, es, E=E, eps=eps)
        npt.assert_allclose(a.values, b.values, rtol=1e-15)

    def test_noiseless_limit(self, small_setup):
        grid, es, ds = small_setup
        vp = VarianceProfile(rho=np.ones(16), nu=np.ones(16), eps=0.0)
        sol = fr.best_linear_estimate(ds, es, vp)
        npt.assert_allclose(sol.values, ds.coeffs / es.eigenvalues, rtol=1e-14)

    def test_zero_prior_kills_component(self, small_setup):
        grid, es, ds = small_setup
        rho = np.ones(16)
        rho[4] = 0.0
        sol = fr.best_linear_estimate(ds, es, VarianceProfile(rho=rho, nu=np.ones(16), eps=1e-3))
        assert sol.values[4] == 0.0

    @pytest.mark.parametrize("eps", [NAN, INF, -1.0])
    def test_eps_must_be_finite_and_nonnegative(self, eps):
        # eps = nan gave all-zero coefficients, eps = -1 the eps = +1 answer
        with pytest.raises(ValueError, match=f"eps must be finite and >= 0, got {eps!r}"):
            VarianceProfile(rho=np.ones(16), nu=np.ones(16), eps=eps)

    def test_singular_noise_rejected(self, small_setup):
        grid, es, ds = small_setup
        nu = np.ones(16)
        nu[2] = 0.0
        with pytest.raises(ValueError):
            fr.best_linear_estimate(ds, es, VarianceProfile(rho=np.ones(16), nu=nu, eps=1e-3))


class TestInformationContent:
    def test_boundary_half_log2(self):
        # lam rho = eps nu sits exactly at half a bit
        assert fr.information_content(0.5, 0.4, 1.0, 0.2) == pytest.approx(0.5 * np.log(2))

    def test_zero_prior_no_information(self):
        assert fr.information_content(0.5, 0.0, 1.0, 0.2) == 0.0

    def test_sqrt3_ratio_gives_log2(self):
        # lam rho / (eps nu) = sqrt(3): J = 0.5 ln 4 = ln 2
        assert fr.information_content(np.sqrt(3.0), 1.0, 1.0, 1.0) == pytest.approx(np.log(2))

    def test_correlation_ratio(self):
        r2 = fr.correlation_ratio(1.0, 1.0, 1.0, 1.0)
        assert r2 == pytest.approx(0.5)
        with pytest.raises(ValueError):
            fr.information_content(0.5, 1.0, 0.0, 1.0)


class TestClassifyComponents:
    def test_noiseless_all_informative(self, es64):
        vp = VarianceProfile(rho=np.ones(64), nu=np.ones(64), eps=0.0)
        informative, noisy = fr.classify_components(es64, vp)
        assert informative == list(range(1, 65)) and noisy == []

    def test_k_beta_equivalence(self, es512):
        vp = VarianceProfile(
            rho=np.ones(512), nu=np.ones(512), eps=1.0 / (100 * np.pi**2)
        )
        informative, _ = fr.classify_components(es512, vp)
        assert informative == list(range(1, 11))

    def test_boundary_inclusive(self, grid513):
        es = fr.analytic_eigensystem(3)
        eps = es.eigenvalues[1]  # lam_2 rho = eps nu exactly
        vp = VarianceProfile(rho=np.ones(3), nu=np.ones(3), eps=eps)
        informative, noisy = fr.classify_components(es, vp)
        assert 2 in informative and 3 in noisy

    def test_scale_invariance(self, es64):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.5, 2.0, 64)
        nu = rng.uniform(0.5, 2.0, 64)
        base = fr.classify_components(es64, VarianceProfile(rho=rho, nu=nu, eps=1e-3))
        for c in (1e-6, 0.37, 1e4):
            scaled = fr.classify_components(
                es64, VarianceProfile(rho=c * rho, nu=nu, eps=c * 1e-3)
            )
            assert scaled == base

    def test_classified_solution(self, small_setup):
        grid, es, ds = small_setup
        eps = es.eigenvalues[4]
        vp = VarianceProfile(rho=np.ones(16), nu=np.ones(16), eps=eps)
        sol = fr.classified_solution(ds, es, vp)
        assert sol.indices.tolist() == [1, 2, 3, 4, 5]
        npt.assert_allclose(sol.values, ds.coeffs[:5] / es.eigenvalues[:5], rtol=1e-14)


class TestRegularizedSolution:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            fr.RegularizedSolution(indices=[1, 1], values=[0.5, 0.5], method="x")

    @settings(max_examples=200, deadline=None)
    @given(indices=st.lists(st.integers(-3, 80), max_size=64) | st.lists(st.integers(-3, 80), max_size=64, unique=True))
    def test_index_rule_matches_np_unique(self, indices):
        # oracle: the former check, np.unique against the count
        idx = np.array(indices, dtype=int)
        refused = bool(idx.size) and (bool(np.any(idx < 1)) or np.unique(idx).size != idx.size)
        values = np.ones(idx.size)
        if refused:
            with pytest.raises(ValueError, match="coefficient indices must be distinct and >= 1"):
                fr.RegularizedSolution(indices=idx, values=values, method="x")
        else:
            assert fr.RegularizedSolution(indices=idx, values=values, method="x").indices.tolist() == indices


@settings(max_examples=60)
@given(
    eps=st.floats(1e-8, 1.0),
    E=st.floats(1e-3, 1e3),
    scale=st.floats(1e-3, 1e3),
)
def test_filter_factor_bounds_property(eps, E, scale):
    """The spectral filter never amplifies: 0 < lam_k coeff_k / gbar_k <= 1."""
    es = fr.analytic_eigensystem(8)
    rng = np.random.default_rng(0)
    coeffs = scale * rng.normal(size=8)
    coeffs[coeffs == 0] = scale
    ds = fr.NoisyDataset(coeffs)
    for sol in (
        fr.tikhonov_full(ds, es, ConstraintSpec(E=E, eps=eps)),
        fr.tikhonov_identity(ds, es, E=E, eps=eps),
    ):
        factors = es.eigenvalues * sol.values / coeffs
        assert np.all(factors > 0)
        assert np.all(factors <= 1.0 + 1e-12)
