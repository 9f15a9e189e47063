import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

import fredreg as fr


class TestSignalSpec:
    def test_named_signals(self, grid513):
        for name in ("f1", "f2", "f3", "f4"):
            vals = fr.evaluate_signal(fr.SignalSpec.named(name), grid513)
            assert np.all(np.isfinite(vals))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            fr.SignalSpec.named("f9")

    def test_sine_combination_matches_f2(self, grid513):
        spec = fr.SignalSpec.sines([(5, 3), (10, 7), (15, 13)])
        npt.assert_allclose(
            fr.evaluate_signal(spec, grid513),
            fr.evaluate_signal(fr.SignalSpec.named("f2"), grid513),
            atol=1e-14,
        )

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            fr.SignalSpec.sines([(1.0, 3), (2.0, 3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tabulated_values_must_be_finite(self, bad):
        values = np.linspace(0.0, 1.0, 65)
        values[3] = bad
        values[7] = np.nan
        with pytest.raises(ValueError, match=f"tabulated signal value 3 is {bad}; values must be finite"):
            fr.SignalSpec.tabulated(values)
        with pytest.raises(ValueError, match="tabulated signal value 3 is"):
            fr.SignalSpec.from_json_dict({"kind": "grid-tabulated", "values": values.tolist()})

    def test_support(self):
        assert fr.SignalSpec.named("f2").support() == (3, 7, 13)
        assert fr.SignalSpec.named("f1").support() is None
        assert fr.SignalSpec.sines([(2.0, 9), (1.0, 4)]).support() == (4, 9)

    @pytest.mark.parametrize("size", [65, 129, 513, 4097])
    def test_named_sine_combinations_equal_their_closed_forms(self, size):
        # oracle: f2 and f3 as closed-form expressions, independent of the library's term table
        grid = fr.simpson_grid(size)
        x = grid.points
        f2 = 5 * np.sin(3 * np.pi * x) + 10 * np.sin(7 * np.pi * x) + 15 * np.sin(13 * np.pi * x)
        f3 = np.zeros_like(x)
        f3_amplitudes = (17.0, 23.0, 27.0, 33.0, 43.0, 55.0, 68.0, 70.0, 77.0, 81.0)
        f3_indices = (5, 9, 13, 17, 18, 23, 24, 25, 31, 33)
        for a, k in zip(f3_amplitudes, f3_indices):
            f3 += a * np.sin(k * np.pi * x)
        for name, closed_form, support in (("f2", f2, (3, 7, 13)), ("f3", f3, f3_indices)):
            spec = fr.SignalSpec.named(name)
            # bytes, so sign bits of zeros count too
            assert fr.evaluate_signal(spec, grid).tobytes() == closed_form.tobytes()
            assert spec.support() == support
        assert fr.SignalSpec.named("f4").support() is None
        assert fr.SignalSpec.tabulated(f2).support() is None

    def test_json_roundtrip(self):
        spec = fr.SignalSpec.sines([(5, 3), (10, 7)])
        back = fr.SignalSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert back == spec


def forward_g(signal, es, grid):
    """g = Af on the grid, computed spectrally over all of es: project f, scale by lam_k, sum."""
    ctx = fr.signal_context(signal, es, grid, es.count)
    upto = min(es.count, grid.size - 2)
    return ctx.g_coeffs[:upto] @ ctx.basis[:upto]


class TestForwardApply:
    def test_eigenfunction_maps_to_scaled_self(self, es64, grid513):
        psi1 = es64.basis_matrix(grid513.points, 1)[0]
        g = forward_g(fr.SignalSpec.tabulated(psi1), es64, grid513)
        npt.assert_allclose(g, es64.eigenvalues[0] * psi1, atol=1e-12)
        mid = g[grid513.size // 2]
        assert mid == pytest.approx(np.sqrt(2) / np.pi**2, abs=1e-12)

    def test_zero_maps_to_zero(self, es64, grid513):
        g = forward_g(fr.SignalSpec.tabulated(np.zeros(grid513.size)), es64, grid513)
        assert not g.any()

    def test_f2_coefficient_13_closed_form(self, es64, grid513):
        f = fr.evaluate_signal(fr.SignalSpec.named("f2"), grid513)
        g_k = fr.forward_coeffs(f, es64, grid513)
        expected = (15 / np.sqrt(2)) / (169 * np.pi**2)
        assert g_k[12] == pytest.approx(expected, abs=1e-10)

    def test_f2_against_direct_kernel_quadrature(self, es64):
        # independent route: apply the tabulated kernel row-by-row; the kernel
        # slope jump across the diagonal costs ~h^2 * amplitude, so the 1e-6
        # comparison needs a fine grid for a signal of amplitude ~30
        grid = fr.simpson_grid(4097)
        f = fr.evaluate_signal(fr.SignalSpec.named("f2"), grid)
        direct = fr.sample_kernel_matrix(grid).values @ (grid.weights * f)
        spectral = forward_g(fr.SignalSpec.named("f2"), es64, grid)
        assert grid.norm(direct - spectral) < 1e-6
        g13 = fr.project_all(direct, es64, grid, 13)[12]
        assert g13 == pytest.approx((15 / np.sqrt(2)) / (169 * np.pi**2), abs=1e-6)


def precomputed(g, es, grid, n_coeff):
    """A signal context for the record g on the grid: g_k by projection, the psi_k table on first read."""
    return fr.SignalContext(
        grid=grid, es=es, f_vals=np.zeros(grid.size), g_coeffs=fr.project_all(g, es, grid, n_coeff),
    )


class TestAddNoise:
    def test_noiseless_limit(self, es64, grid513):
        f = fr.evaluate_signal(fr.SignalSpec.named("f1"), grid513)
        g = forward_g(fr.SignalSpec.named("f1"), es64, grid513)
        ds = fr.add_noise(precomputed(g, es64, grid513, 40), 0.0, seed=3)
        npt.assert_allclose(ds.coeffs, fr.forward_coeffs(f, es64, grid513, 40), atol=1e-15)

    def test_same_seed_identical(self, es64, grid513):
        g = forward_g(fr.SignalSpec.named("f1"), es64, grid513)
        a = fr.add_noise(precomputed(g, es64, grid513, 40), 1e-4, seed=11)
        b = fr.add_noise(precomputed(g, es64, grid513, 40), 1e-4, seed=11)
        npt.assert_array_equal(a.coeffs, b.coeffs)
        c = fr.add_noise(precomputed(g, es64, grid513, 40), 1e-4, seed=12)
        assert np.any(c.coeffs != a.coeffs)

    def test_coefficient_mode_bound(self, es512, grid513):
        eps = 3e-3
        ds, _, g_coeffs = fr.synthesize_dataset(
            fr.SignalSpec.named("f2"), es512, grid513, eps, 7, 512
        )
        assert np.max(np.abs(ds.coeffs - g_coeffs)) <= eps

    def test_coefficient_noise_bound_sqrt2(self, es512, grid513):
        # both injection modes satisfy |gbar_k - g_k| <= sqrt(2) eps
        eps = 1e-3
        f = fr.evaluate_signal(fr.SignalSpec.named("f4"), grid513)
        g = forward_g(fr.SignalSpec.named("f4"), es512, grid513)
        g_k = fr.forward_coeffs(f, es512, grid513, 256)
        for mode in ("coefficient", "pointwise"):
            ds = fr.add_noise(precomputed(g, es512, grid513, 256), eps, seed=2, noise_mode=mode)
            assert np.max(np.abs(ds.coeffs - g_k)) <= np.sqrt(2) * eps

    def test_unknown_mode(self, es64, grid513):
        with pytest.raises(ValueError):
            fr.add_noise(precomputed(np.zeros(513), es64, grid513, 64), 1e-4, 0, noise_mode="spectral")

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_epsilon_rejected(self, es64, grid513, eps):
        g = np.zeros(513)
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            fr.add_noise(precomputed(g, es64, grid513, 40), eps, 0)


class TestSignalContext:
    def test_fields_are_the_seed_invariant_tables(self, es64, grid513):
        ctx = fr.signal_context(fr.SignalSpec.named("f1"), es64, grid513, 40)
        fields = ["grid", "es", "f_vals", "g_coeffs", "_exact_terms"]  # the psi_k table is a property
        assert [f.name for f in dataclasses.fields(ctx)] == fields
        assert not hasattr(ctx, "draw") and ctx._exact_terms is None

    def test_a_sine_combination_takes_closed_form_coefficients(self, es512, grid513):
        ctx = fr.signal_context(fr.SignalSpec.sines([(5.0, 3), (-2.0, 40)]), es512, grid513, 32)
        f_k = np.zeros(32)
        f_k[2] = 5.0 / np.sqrt(2.0)
        assert ctx.g_coeffs.tobytes() == (es512.eigenvalues[:32] * f_k).tobytes()
        assert ctx._exact_terms == ((5.0, 3), (-2.0, 40))  # the terms the scores are taken from

    def test_other_eigensystems_project_on_the_grid(self):
        grid = fr.simpson_grid(129)
        nes = fr.numeric_eigensystem(fr.sample_kernel_matrix(grid), 12)
        signal = fr.SignalSpec.named("f2")
        ctx = fr.signal_context(signal, nes, grid, 12)
        want = fr.forward_coeffs(fr.evaluate_signal(signal, grid), nes, grid, 12)
        assert ctx.g_coeffs.tobytes() == want.tobytes() and ctx._exact_terms is None

    @pytest.mark.parametrize("name", ["f1", "f2"])
    def test_a_record_past_the_eigensystem_raises(self, es64, grid513, name):
        with pytest.raises(IndexError, match="eigenpair index 65 outside 1..64"):
            fr.signal_context(fr.SignalSpec.named(name), es64, grid513, 65)


class TestNoisyDataset:
    @pytest.mark.parametrize("field", ["coeffs"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, field, bad):
        values = {field: np.zeros(8)}
        values[field][3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            fr.NoisyDataset(**values)

    def test_two_dimensional_record_rejected(self):
        with pytest.raises(ValueError, match=re.escape("must be 1-D, got shape (2, 4)")):
            fr.NoisyDataset(coeffs=np.zeros((2, 4)))

    def test_record_is_its_coefficients(self):
        ds = fr.NoisyDataset(coeffs=[1, 2, 3])
        assert [f.name for f in dataclasses.fields(ds)] == ["coeffs"]
        assert ds.coeffs.dtype == float and ds.n_coeff == 3


class TestSnr:
    def test_unit_ratio_is_zero_db(self):
        eps = 0.3
        g = np.full(100, eps / np.sqrt(3.0))
        assert fr.snr_db(g, eps) == pytest.approx(0.0, abs=1e-12)

    def test_example1_legend(self, es512, grid513):
        f = fr.evaluate_signal(fr.SignalSpec.named("f1"), grid513)
        g_k = fr.forward_coeffs(f, es512, grid513, 512)
        assert fr.snr_db(g_k, 1e-4) == pytest.approx(25.7, abs=1.0)

    def test_example2_legend(self, es512, grid513):
        f = fr.evaluate_signal(fr.SignalSpec.named("f2"), grid513)
        g_k = fr.forward_coeffs(f, es512, grid513, 512)
        assert fr.snr_db(g_k, 3e-3) == pytest.approx(0.54, abs=1.0)

    def test_monotone_in_power_and_eps(self):
        g = np.ones(32)
        assert fr.snr_db(2 * g, 0.1) > fr.snr_db(g, 0.1)
        assert fr.snr_db(g, 0.05) > fr.snr_db(g, 0.1)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            fr.snr_db(np.ones(4), 0.0)

    @pytest.mark.parametrize(
        "g, epsilon",
        [([1.0, 2.0], 1e-170), ([1.0, 2.0], 5e-324), ([1.0, 2.0], 1e-160), ([1e-150], 1e150),
         ([1.0, 1.0], 1e160)],
        ids=["variance-zero", "variance-zero-subnormal-eps", "ratio-overflows", "ratio-underflows",
             "variance-overflows"],
    )
    def test_no_finite_ratio_rejected(self, g, epsilon):
        # a ValueError, never a RuntimeWarning and an infinite SNR
        with pytest.raises(ValueError, match=re.escape(f"no finite ratio at epsilon = {epsilon!r}")):
            fr.snr_db(np.array(g), epsilon)

    def test_zero_record_rejected(self):
        # all zero, or squares that underflow: log10(0) would warn and give -inf
        for g in (np.zeros(4), np.full(4, 1e-200)):
            with pytest.raises(ValueError, match="nonzero power"):
                fr.snr_db(g, 1e-3)


class TestNoiseDispersion:
    def test_values(self):
        assert fr.noise_dispersion(0.0) == 0.0
        assert fr.noise_dispersion(1e-4) == pytest.approx(5.7735e-5, rel=1e-4)
        assert fr.noise_dispersion(3e-3) == pytest.approx(1.7321e-3, rel=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fr.noise_dispersion(-1.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            fr.noise_dispersion(eps)


class TestSerialization:
    @pytest.mark.parametrize("rows", [["3,1.0", "1,2.0", "2,3.0"], ["1,1.0", "2,2.0", "4,3.0"], ["0,1.0"]])
    def test_coeffs_csv_k_must_run_from_one_in_order(self, tmp_path, rows):
        path = tmp_path / "c.csv"
        path.write_text("k,g_bar_k\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="expected k="):
            fr.read_coeffs_csv(str(path))

    @pytest.mark.parametrize("row", ["2.0,0.25", "1,0.5,9", "1,", "1 0.5"])
    def test_coeffs_csv_names_the_file_and_line_of_a_malformed_row(self, tmp_path, row):
        # each raised a bare ValueError that named neither: invalid literal for int(), could not convert
        # '0.5,9' or '' to float, not enough values to unpack
        path = tmp_path / "c.csv"
        path.write_text(f"k,g_bar_k\n1,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: expected a row 'k,g_bar_k'")) as info:
            fr.read_coeffs_csv(str(path))
        assert str(info.value).endswith(f"got {row!r}")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_coeffs_csv_names_the_file_and_line_of_a_non_finite_value(self, tmp_path, cell):
        # float() read each as a value, and the record reached the selection, which named neither
        path = tmp_path / "c.csv"
        path.write_text(f"k,g_bar_k\n1,0.5\n2,{cell}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: g_bar_k must be finite, got {float(cell)!r}")):
            fr.read_coeffs_csv(str(path))

    def test_coeffs_csv_roundtrip(self, tmp_path):
        coeffs = np.array([1.5, -2.25, 3.125e-7])
        path = tmp_path / "c.csv"
        fr.write_coeffs_csv(str(path), coeffs)
        assert path.read_text().splitlines()[0] == "k,g_bar_k"
        npt.assert_array_equal(fr.read_coeffs_csv(str(path)), coeffs)
