"""Acceptance suite: one test per acceptance criterion, printed pass/fail.

Run with -s to see the per-criterion lines.  Everything is seeded, so every
quantity asserted here is deterministic.

Two selection-reproduction legs encode single-realization reference targets
that are not the modal outcome under the documented noise model; they are
asserted as stated and fail with an explanation in their docstrings
(test_example2_exact_rate, test_example4).
"""

import time

import numpy as np
import pytest

import fredreg as fr
from fredreg.harness import _modal, preset
from fredreg.selection import _admissible_bounds

SEEDS_100 = tuple(range(100))


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def preset_runs():
    """100-seed harness runs of the four reference experiments."""
    runs = {}
    for name in ("example1", "example2", "example3", "example4"):
        cfg = preset(name, seeds=SEEDS_100)
        cfg = fr.ExperimentConfig.from_json_dict(
            {**cfg.to_json_dict(), "methods": ["k_alpha", "tikhonov_full", "bhat"]}
        )
        t0 = time.perf_counter()
        records = fr.run_experiment(cfg)
        runs[name] = (cfg, records, time.perf_counter() - t0)
    return runs


def modal(items):
    """The modal value and its hit count, from summarize's fraction."""
    value, fraction = _modal(items)
    return value, round(fraction * len(items))


class TestCriterion1:
    def test_analytic_eigensystem(self, es512, grid513):
        t0 = time.perf_counter()
        ks = np.arange(1, 41)
        np.testing.assert_allclose(
            es512.eigenvalues[:40], 1.0 / (ks**2 * np.pi**2), rtol=1e-14
        )
        basis = es512.basis_matrix(grid513.points, 40)
        gram = (basis * grid513.weights) @ basis.T
        defect = np.abs(gram - np.eye(40)).max()
        elapsed = time.perf_counter() - t0
        report(f"criterion 1 eigensystem: gram defect {defect:.2e}, {elapsed:.2f}s -> "
               + ("PASS" if defect < 1e-8 and elapsed < 1.0 else "FAIL"))
        assert defect < 1e-8
        assert elapsed < 1.0


class TestCriterion2:
    @pytest.mark.parametrize(
        "name,expected",
        [("example1", 25.7), ("example2", 0.54), ("example3", 9.79), ("example4", 4.6)],
    )
    def test_snr_reproduction(self, name, expected):
        t0 = time.perf_counter()
        cfg = preset(name, seeds=(0,))
        grid = fr.simpson_grid(cfg.grid_size)
        es = fr.analytic_eigensystem(cfg.n_coeff)
        f = fr.evaluate_signal(cfg.signal, grid)
        got = fr.snr_db(fr.forward_coeffs(f, es, grid, cfg.n_coeff), cfg.epsilon)
        elapsed = time.perf_counter() - t0
        ok = abs(got - expected) <= 1.0 and elapsed < 1.0
        report(f"criterion 2 SNR {name}: {got:.2f} dB vs {expected} +/- 1, "
               f"{elapsed:.2f}s -> " + ("PASS" if ok else "FAIL"))
        assert got == pytest.approx(expected, abs=1.0)
        assert elapsed < 1.0


class TestCriterion3:
    @pytest.mark.parametrize("name,expected", [("example1", 8), ("example2", 9)])
    def test_variational_cutoff(self, preset_runs, name, expected):
        _, records, _ = preset_runs[name]
        got = {r.k_alpha for r in records}
        report(f"criterion 3 k_alpha {name}: {sorted(got)} vs {expected} "
               f"(dispersion eps/sqrt3) -> " + ("PASS" if got == {expected} else "FAIL"))
        assert got == {expected}


class TestCriterion4:
    def _stats(self, records):
        selections = [r.selection for r in records]
        return {
            "I": [tuple(s.I_k) for s in selections],
            "Q": [tuple(s.Q) for s in selections],
            "n0": [s.n0 for s in selections],
        }

    def test_example1(self, preset_runs):
        cfg, records, elapsed = preset_runs["example1"]
        s = self._stats(records)
        checks = {"n0": (3, s["n0"]), "Q": ((1, 2, 3), s["Q"]), "I_k": ((1, 2, 3, 4), s["I"])}
        ok = True
        for label, (target, values) in checks.items():
            mode, hits = modal(values)
            ok &= mode == target and hits >= 50
            report(f"criterion 4 example1 {label}: modal {mode} x{hits}/100 vs {target}")
        report(f"criterion 4 example1 ({elapsed:.0f}s) -> " + ("PASS" if ok else "FAIL"))
        assert ok
        assert elapsed < 120

    def test_example2_modal(self, preset_runs):
        _, records, elapsed = preset_runs["example2"]
        mode, hits = modal(self._stats(records)["I"])
        ok = mode == (3, 7, 13)
        report(f"criterion 4 example2 modal I_k: {mode} x{hits}/100 -> "
               + ("PASS" if ok else "FAIL"))
        assert ok
        assert elapsed < 120

    def test_example2_exact_rate(self, preset_runs):
        """Expected red: {3,7,13} is modal but cannot reach a 50% exact rate.

        Beyond the real lag 10, every scanned lag has ~3-4% probability of a
        spurious exceedance of the 1.96 sigma(n; nbar) threshold, and any
        absorbed lag adds a junk pair to the selection.  Over the ~17
        remaining lags of the scan window that caps the exact-match rate
        near 27%; the reference experiment's own description notes that even
        lag 6 is "not always detected".
        """
        _, records, _ = preset_runs["example2"]
        hits = sum(1 for s in self._stats(records)["I"] if s == (3, 7, 13))
        report(f"criterion 4 example2 exact rate: {hits}/100 (needs >= 50) -> "
               + ("PASS" if hits >= 50 else "FAIL (known limitation, see docstring)"))
        assert hits >= 50, "exact-match rate below 50%: known-unattainable leg"

    def test_example3(self, preset_runs):
        _, records, elapsed = preset_runs["example3"]
        target = (5, 9, 13, 17, 18, 23, 24, 25, 31, 33)
        values = self._stats(records)["I"]
        mode, hits = modal(values)
        ok = mode == target and hits >= 50
        report(f"criterion 4 example3 I_k: modal x{hits}/100 vs paper set "
               f"({elapsed:.0f}s) -> " + ("PASS" if ok else "FAIL"))
        assert ok
        assert elapsed < 120

    def test_example4(self, preset_runs):
        """Expected red: the reference targets are a single-realization draw.

        The target lag set {1,2,3,5,7,8,9} requires lags 5, 7 and 9 whose
        deterministic autocorrelations are 0.005, 0.046 and 0.033 against a
        0.087 significance threshold, and the target index set includes
        k = 9 whose noiseless coefficient is 0.1 sigma of the noise (it can
        only win the lag-5 argmax through a favorable noise draw).  No
        majority of seeds can reproduce that; the modal outcome keeps the
        strong components {1,3,4,(11,12)}.
        """
        _, records, _ = preset_runs["example4"]
        s = self._stats(records)
        q_mode, q_hits = modal(s["Q"])
        i_mode, i_hits = modal(s["I"])
        q_ok = q_mode == (1, 2, 3, 5, 7, 8, 9) and q_hits >= 50
        i_ok = i_mode == (1, 3, 4, 9, 11, 12) and i_hits >= 50
        report(f"criterion 4 example4: modal Q {q_mode} x{q_hits}, modal I {i_mode} "
               f"x{i_hits} -> " + ("PASS" if q_ok and i_ok else "FAIL (known limitation, see docstring)"))
        assert q_ok and i_ok, "example4 selection targets: known-unattainable leg"


class TestCriterion5:
    @pytest.mark.parametrize("name", ["example2", "example3"])
    def test_bhat_beats_k_alpha(self, preset_runs, name):
        _, records, elapsed = preset_runs[name]
        assert not any(r.failures for r in records)
        bhat = np.median([r.rel_l2["bhat"] for r in records])
        kalpha = np.median([r.rel_l2["k_alpha"] for r in records])
        ok = bhat < kalpha and elapsed < 120
        report(f"criterion 5 {name}: median bhat {bhat:.4f} < k_alpha {kalpha:.4f}, "
               f"{elapsed:.0f}s -> " + ("PASS" if ok else "FAIL"))
        assert bhat < kalpha
        assert elapsed < 120


class TestCriterion6:
    def test_null_false_positive_control(self, es512, grid513):
        zero = fr.SignalSpec.tabulated(np.zeros(513))
        empty = 0
        for seed in range(200):
            ds, _, _ = fr.synthesize_dataset(zero, es512, grid513, 1e-4, seed, 512)
            empty += not fr.build_selection(ds).I_k
        report(f"criterion 6 null control: zero estimate on {empty}/200 "
               f"(needs >= 180) -> " + ("PASS" if empty >= 180 else "FAIL"))
        assert empty >= 180


class TestCriterion7:
    @pytest.mark.parametrize("lag", [5, 20])
    def test_bartlett_variance_oracle(self, lag):
        n, reps = 512, 2000
        rng = np.random.default_rng(1234)
        records = rng.uniform(-1.0, 1.0, size=(reps, n))
        xs = records[:, : n - lag]
        ys = records[:, lag:]
        xc = xs - xs.mean(axis=1, keepdims=True)
        yc = ys - ys.mean(axis=1, keepdims=True)
        delta = np.sum(xc * yc, axis=1) / np.sqrt(
            np.sum(xc**2, axis=1) * np.sum(yc**2, axis=1)
        )
        mc_var = float(np.var(delta))
        target = 1.0 / (n - lag)
        rel = abs(mc_var - target) / target
        report(f"criterion 7 Bartlett lag {lag}: MC var {mc_var:.3e} vs 1/(N-n) "
               f"{target:.3e}, rel dev {rel:.1%} -> " + ("PASS" if rel < 0.15 else "FAIL"))
        assert rel < 0.15


class TestCriterion8:
    def test_error_trends_decreasing_in_eps(self):
        medians = {"f0": [], "tikhonov_full": [], "bhat": []}
        for eps in (1e-3, 1e-4, 1e-5):
            cfg = fr.ExperimentConfig(
                signal=fr.SignalSpec.named("f1"), epsilon=eps, n_coeff=512,
                seeds=tuple(range(20)), methods=("tikhonov_full", "f0", "bhat"),
            )
            records = fr.run_experiment(cfg)
            for method in medians:
                medians[method].append(
                    float(np.median([r.rel_l2[method] for r in records]))
                )
        ok = True
        for method, vals in medians.items():
            decreasing = vals[0] > vals[1] > vals[2]
            ok &= decreasing
            report(f"criterion 8 {method}: medians {[f'{v:.4f}' for v in vals]} "
                   f"for eps 1e-3,1e-4,1e-5 -> " + ("PASS" if decreasing else "FAIL"))
        assert ok


class TestCriterion9:
    def test_invariant_suites(self, es512, grid513, example1_seed0):
        ds, f_vals, _ = example1_seed0
        failures = []

        # Parseval
        f = es512.basis_matrix(grid513.points, 8).T @ np.arange(1.0, 9.0)
        coeffs = fr.project_all(f, es512, grid513, 8)
        if abs(np.sum(coeffs**2) - grid513.norm(f) ** 2) > 1e-8:
            failures.append("parseval")

        # delta(0) = 1 and |delta(n)| <= 1
        series = fr.autocorr_estimate(ds.coeffs)
        finite = series.delta[np.isfinite(series.delta)]
        if series.delta[0] != 1.0 or np.max(np.abs(finite)) > 1.0 + 1e-12:
            failures.append("autocorr bounds")

        # M(m) monotone, M(N) total
        profile = fr.cumulative_profile(ds, es512)
        total = np.sum((ds.coeffs / es512.eigenvalues) ** 2)
        if np.any(np.diff(profile.values) < 0) or abs(profile.values[-1] - total) > 1e-9 * total:
            failures.append("profile monotonicity")

        # selection pipeline scale invariance
        base = fr.build_selection(ds.coeffs)
        scaled = fr.build_selection(1e3 * ds.coeffs)
        if (base.n0, base.Q, base.pairs, base.I_k) != (scaled.n0, scaled.Q, scaled.pairs, scaled.I_k):
            failures.append("scale invariance")

        # filter factors in (0, 1]
        sol = fr.tikhonov_full(ds, es512, fr.ConstraintSpec(E=1.0, eps=1e-4))
        factors = es512.eigenvalues * sol.values / ds.coeffs
        if not (np.all(factors > 0) and np.all(factors <= 1.0 + 1e-12)):
            failures.append("filter factors")

        # combinatorial bound on supports with distinct pairwise differences
        rng = np.random.default_rng(99)
        for _ in range(200):
            support = sorted(rng.choice(np.arange(1, 40), size=rng.integers(1, 7), replace=False))
            diffs = {b - a for i, a in enumerate(support) for b in support[i + 1 :]}
            if len(diffs) != len(support) * (len(support) - 1) // 2:
                continue
            lower, upper = _admissible_bounds(len(diffs))
            if not (lower - 1e-9 <= len(support) <= upper):
                failures.append(f"combinatorial bound at {support}")
                break

        report("criterion 9 invariants: " + ("PASS" if not failures else f"FAIL {failures}"))
        assert not failures
