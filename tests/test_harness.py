import dataclasses
import gc
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredreg as fr
from fredreg import harness
from fredreg.harness import ExperimentConfig, config_hash, preset

NAN, INF = float("nan"), float("inf")


class TestExperimentConfig:
    def test_presets_encode_legend_parameters(self):
        p1 = preset("example1")
        assert (p1.signal.name, p1.epsilon, p1.n_coeff) == ("f1", 1e-4, 512)
        p2 = preset("example2")
        assert (p2.signal.name, p2.epsilon, p2.n_coeff) == ("f2", 3e-3, 512)
        p3 = preset("example3")
        assert (p3.signal.name, p3.epsilon, p3.n_coeff) == ("f3", 1e-3, 1024)
        p4 = preset("example4")
        assert (p4.signal.name, p4.epsilon, p4.n_coeff) == ("f4", 1e-4, 512)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("example9")

    def test_validation(self):
        sig = fr.SignalSpec.named("f1")
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, grid_size=64)
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, methods=("magic",))
        with pytest.raises(ValueError):
            ExperimentConfig(signal=sig, epsilon=1e-4, dispersion_mode="rms")

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3"])
    def test_seeds_must_be_integers(self, seed):
        # int(1.7) ran seed 1 under the name of a seed that was never asked for
        with pytest.raises(ValueError, match=re.escape(f"seeds[1] must be an integer >= 0, got {seed!r}")):
            ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=1e-4, seeds=(0, seed))

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_seeds_must_be_nonnegative(self, seed):
        # preset("example1", seeds=(-1,)) built, and run_experiment then failed inside numpy naming no seed
        with pytest.raises(ValueError, match=re.escape(f"seeds[1] must be an integer >= 0, got {seed!r}")):
            preset("example1", seeds=(0, seed))

    def test_numpy_integer_seeds_run_as_ints(self):
        cfg = ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=1e-4, seeds=tuple(np.arange(2)))
        assert cfg.seeds == (0, 1) and all(type(s) is int for s in cfg.seeds)

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"seeds": (0, 0)}, "seeds must be distinct, got 0 more than once"),
            ({"seeds": (3, np.int64(1), 1)}, "seeds must be distinct, got 1 more than once"),
            ({"methods": ("bhat", "k_alpha", "bhat")}, "methods must be distinct, got 'bhat' more than once"),
            ({"methods": ()}, "methods must be nonempty"),
        ],
    )
    def test_seeds_and_methods_must_be_distinct_and_methods_nonempty(self, arguments, message):
        # seeds=(0, 0) wrote a manifest of 14 files, 10 distinct, and summarized n_seeds 2 from one draw;
        # ("bhat", "bhat") ran the selection twice under a hash apart from ("bhat",); () summarized no method
        with pytest.raises(ValueError, match=re.escape(message)):
            _config(**arguments)
        with pytest.raises(ValueError, match=re.escape(message)):
            _json_config(**{name: list(values) for name, values in arguments.items()})

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-170, 1e-160, 2.5e-154, 1e160])
    def test_epsilon_must_have_a_normal_noise_variance(self, epsilon):
        # eps^2/3 zero or subnormal gave snr_db a division by zero (an inf SNR
        # that failed only at emission); past about 1.3e154 it overflowed
        sig = fr.SignalSpec.named("f1")
        with pytest.raises(ValueError, match=re.escape(f"epsilon = {epsilon!r} is out of range")):
            ExperimentConfig(signal=sig, epsilon=epsilon)
        with pytest.raises(ValueError, match=re.escape(f"epsilon = {epsilon!r} is out of range")):
            ExperimentConfig.from_json_dict({"signal": sig.to_json_dict(), "epsilon": epsilon})

    def test_smallest_normal_noise_variance_runs(self):
        (rec,) = fr.run_experiment(ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=2.6e-154))
        assert rec.failures == {}
        assert np.isfinite(rec.snr_db)

    @pytest.mark.parametrize("field", ["E_override", "c1_override"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_overrides_must_be_finite_and_positive(self, field, value):
        sig = fr.SignalSpec.named("f1")
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(signal=sig, epsilon=1e-4, **{field: value})
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json_dict({"signal": sig.to_json_dict(), "epsilon": 1e-4, field: value})

    def test_valid_overrides_run(self):
        sig = fr.SignalSpec.named("f1")
        cfg = ExperimentConfig(signal=sig, epsilon=1e-4, E_override=0.5, c1_override=0.25)
        (rec,) = fr.run_experiment(cfg)
        assert rec.failures == {}
        assert rec.k_alpha > 0 and rec.k0 > 0

    def test_dispersion_modes(self):
        sig = fr.SignalSpec.named("f1")
        a = ExperimentConfig(signal=sig, epsilon=3e-3)
        assert a.dispersion() == pytest.approx(3e-3 / np.sqrt(3))
        b = ExperimentConfig(signal=sig, epsilon=3e-3, dispersion_mode="eps")
        assert b.dispersion() == 3e-3

    def test_json_roundtrip_and_hash(self):
        cfg = preset("example2", seeds=(0, 1, 2))
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert config_hash(back) == config_hash(cfg)
        other = preset("example2", seeds=(0, 1, 3))
        assert config_hash(other) != config_hash(cfg)

    def test_unknown_json_key_rejected(self):
        d = {**preset("example1").to_json_dict(), "n_coef": 64}
        with pytest.raises(ValueError, match="n_coef"):
            ExperimentConfig.from_json_dict(d)

    def test_absent_json_keys_take_field_defaults(self):
        sig = fr.SignalSpec.named("f1")
        cfg = ExperimentConfig.from_json_dict({"signal": sig.to_json_dict(), "epsilon": 1e-4})
        assert cfg == ExperimentConfig(signal=sig, epsilon=1e-4)

    def test_hash_ignores_output_dir(self):
        a = preset("example1", output_dir="/tmp/a")
        b = preset("example1", output_dir="/tmp/b")
        assert config_hash(a) == config_hash(b)


def _config(**arguments):
    kwargs = {"epsilon": 1e-3, "n_coeff": 128, "grid_size": 129, **arguments}
    return ExperimentConfig(signal=fr.SignalSpec.named("f2"), **kwargs)


def _json_config(**arguments):
    return ExperimentConfig.from_json_dict({**_config().to_json_dict(), **arguments})


def _fingerprint(built):
    """What a build yields, comparable across the int and the np.int64 (or float and np.float64) it was given."""
    if isinstance(built, ExperimentConfig):
        return config_hash(built)
    if isinstance(built, (fr.SignalSpec, fr.SelectionReport)):
        return json.dumps(built.to_json_dict())
    if isinstance(built, fr.EigenSystem):
        return built.eigenvalues.tobytes()
    if isinstance(built, fr.SignalContext):
        return built.g_coeffs.tobytes()
    if isinstance(built, fr.NoisyDataset):
        return built.coeffs.tobytes()
    if isinstance(built, fr.RegularizedSolution):
        return built.indices.tobytes() + built.values.tobytes()
    if isinstance(built, fr.ConstraintSpec):
        c = None if built.c is None else built.c.tolist()
        return json.dumps([built.E, built.eps, built.alpha, c])  # as a run's params dict serializes them
    if isinstance(built, fr.VarianceProfile):
        return built.rho.tobytes() + built.nu.tobytes() + json.dumps(built.eps).encode()
    if isinstance(built, fr.AutocorrSeries):
        return built.delta.tobytes() + json.dumps(built.n_count).encode()
    if isinstance(built, fr.QuadratureGrid):
        return built.points.tobytes() + built.weights.tobytes() + json.dumps([built.a, built.b]).encode()
    if isinstance(built, np.ndarray):
        return built.tobytes()
    return json.dumps(built)  # a float, an int, None, or lists and tuples of them


ES128, GRID129 = fr.analytic_eigensystem(128), fr.simpson_grid(129)
CTX128 = fr.signal_context(fr.SignalSpec.named("f1"), ES128, GRID129, 128)
DATA128 = fr.add_noise(CTX128, 1e-3, 0)
KERNEL129 = fr.sample_kernel_matrix(GRID129)
SERIES128 = fr.autocorr_estimate(DATA128.coeffs)
PROFILE128 = fr.cumulative_profile(DATA128, ES128)
PROFILE_FOR_128 = fr.VarianceProfile(rho=np.ones(128), nu=np.ones(128), eps=1e-3)
F1 = fr.SignalSpec.named("f1")


def _sines(term):
    return fr.SignalSpec(kind="sine-combination", terms=((1.0, 2), term))


def _json_sines(term):
    return fr.SignalSpec.from_json_dict({"kind": "sine-combination", "terms": [[1.0, 2], list(term)]})


def _weighted_grid(weight):
    """A 3-node grid on [0, 2] whose first weight is the argument; the last absorbs a finite real one."""
    last = 1.0 - weight if isinstance(weight, float) and math.isfinite(weight) else 1.0  # np.float64 is a float
    return fr.QuadratureGrid(points=[0.0, 0.5, 1.0], weights=[weight, 1.0, last], a=0.0, b=2.0)


# "callable(parameter)" -> (build from one integer argument, the pattern its ValueError must match to name it)
INTEGER_ARGUMENTS = {
    "analytic_eigensystem(n_max)": (fr.analytic_eigensystem, r"^n_max must"),
    "numeric_eigensystem(n_max)": (lambda v: fr.numeric_eigensystem(KERNEL129, v), r"^n_max must"),
    "simpson_grid(n)": (fr.simpson_grid, r"^n must"),
    "EigenSystem.basis_matrix(upto)": (lambda v: ES128.basis_matrix(GRID129.points, v), r"^upto must"),
    "project_all(upto)": (lambda v: fr.project_all(CTX128.f_vals, ES128, GRID129, v), r"^upto must"),
    "forward_coeffs(upto)": (lambda v: fr.forward_coeffs(CTX128.f_vals, ES128, GRID129, v), r"^upto must"),
    "reconstruct(coeffs)": (lambda v: fr.reconstruct([(1, 1.0), (v, 0.5)], ES128, GRID129), r"^eigenpair index must"),
    "ExperimentConfig(n_coeff)": (lambda v: _config(n_coeff=v), r"^n_coeff must"),
    "ExperimentConfig(n_max)": (lambda v: _config(n_max=v), r"^n_max must"),
    "ExperimentConfig(grid_size)": (lambda v: _config(grid_size=v), r"^grid_size must"),
    "ExperimentConfig(seeds)": (lambda v: _config(seeds=(1, v)), r"^seeds\[1\] must"),
    "ExperimentConfig.from_json_dict(n_coeff)": (lambda v: _json_config(n_coeff=v), r"^n_coeff must"),
    "ExperimentConfig.from_json_dict(n_max)": (lambda v: _json_config(n_max=v), r"^n_max must"),
    "ExperimentConfig.from_json_dict(grid_size)": (lambda v: _json_config(grid_size=v), r"^grid_size must"),
    "ExperimentConfig.from_json_dict(seeds)": (lambda v: _json_config(seeds=[1, v]), r"^seeds\[1\] must"),
    "ExperimentConfig.seed_range(base_seed)": (lambda v: ExperimentConfig.seed_range(v, 2), r"^base_seed must"),
    "ExperimentConfig.seed_range(count)": (lambda v: ExperimentConfig.seed_range(0, v), r"^count must"),
    "preset(seeds)": (lambda v: preset("example1", seeds=(1, v)), r"^seeds\[1\] must"),
    "SignalSpec(terms)": (lambda v: _sines((0.5, v)), r"^sine index must"),
    "SignalSpec.sines(terms)": (lambda v: fr.SignalSpec.sines([(1.0, 2), (0.5, v)]), r"^sine index must"),
    "SignalSpec.from_json_dict(terms)": (lambda v: _json_sines((0.5, v)), r"^sine index must"),
    "signal_context(n_coeff)": (lambda v: fr.signal_context(F1, ES128, GRID129, v), r"^n_coeff must"),
    "add_noise(seed)": (lambda v: fr.add_noise(CTX128, 1e-3, v), r"^seed must"),
    "synthesize_dataset(seed)": (lambda v: fr.synthesize_dataset(F1, ES128, GRID129, 1e-3, v, 128)[0], r"^seed must"),
    "synthesize_dataset(n_coeff)": (
        lambda v: fr.synthesize_dataset(F1, ES128, GRID129, 1e-3, 0, v)[0], r"^n_coeff must",
    ),
    "ConstraintSpec.spectrum(n)": (lambda v: fr.ConstraintSpec(E=1.0, eps=1e-3).spectrum(v), r"^n must"),
    "VarianceProfile.check_covers(n)": (PROFILE_FOR_128.check_covers, r"^n must"),
    "truncated_expansion(ks)": (
        lambda v: fr.truncated_expansion(DATA128, ES128, [1, v], "any", {}), r"^eigenpair index must",
    ),
    # 0 and -1 are integers, which the distinct-and->=-1 check refuses under the name "coefficient indices"
    "RegularizedSolution(indices)": (
        lambda v: fr.RegularizedSolution(indices=[v, 70], values=[0.5, 0.25], method="any"),
        r"^(eigenpair index|coefficient indices) must",
    ),
    "detect_plateau(window)": (lambda v: fr.detect_plateau(PROFILE128, v), r"^window must"),
    "AutocorrSeries(n_count)": (lambda v: fr.AutocorrSeries(delta=np.array([1.0, 0.5]), n_count=v), r"^n_count must"),
    "autocorr_estimate(last_lag)": (lambda v: fr.autocorr_estimate(DATA128.coeffs, v), r"^last_lag must"),
    "bartlett_stderr(n0)": (lambda v: fr.bartlett_stderr(SERIES128, v, 100), r"^n0 must"),
    "bartlett_stderr(n)": (lambda v: fr.bartlett_stderr(SERIES128, 2, v), r"^lag n must"),
    "default_max_lag(n_count)": (fr.default_max_lag, r"^n_count must"),
    "detect_n0(max_lag)": (lambda v: fr.detect_n0(SERIES128, max_lag=v), r"^max_lag must"),
    "build_Q(n0)": (lambda v: fr.build_Q(SERIES128, v), r"^n0 must"),
    "select_pairs(Q)": (lambda v: fr.select_pairs(DATA128.coeffs, [1, v]), r"^each lag in Q must"),
    "build_selection(max_lag)": (lambda v: fr.build_selection(DATA128, max_lag=v), r"^max_lag must"),
    "SelectionReport(n0)": (lambda v: fr.SelectionReport(n0=v, Q=[], pairs=[], series=SERIES128), r"^n0 must"),
}
# arguments whose least value is 0, not 1 (the seed rows list seed 1 first, since a repeated seed is refused)
ZERO_IS_VALID = {
    "ExperimentConfig(seeds)", "ExperimentConfig.from_json_dict(seeds)", "ExperimentConfig.seed_range(base_seed)",
    "ExperimentConfig.seed_range(count)", "preset(seeds)", "add_noise(seed)", "synthesize_dataset(seed)",
    "ConstraintSpec.spectrum(n)", "VarianceProfile.check_covers(n)", "autocorr_estimate(last_lag)",
    "bartlett_stderr(n0)", "build_Q(n0)", "SelectionReport(n0)",
}
# eigenpair indices: an integer outside 1..count raises EigenSystem's IndexError, which names it
INDEX_ARGUMENTS = {
    "EigenSystem.basis_matrix(upto)", "project_all(upto)", "forward_coeffs(upto)", "reconstruct(coeffs)",
    "truncated_expansion(ks)",
}


@pytest.mark.parametrize("value", [True, 2.5, np.float64(3.0), 64.5, 0, -1, NAN, INF, -INF], ids=repr)
@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_bools_floats_and_small_values(case, value):
    # analytic_eigensystem(True) gave 1 pair and (2.5) 3; from_json_dict read 64.5 as 64; sines read 2.7 as 2;
    # signal_context(True) built a 1-row record, add_noise drew seed 1 for True, truncated_expansion and
    # reconstruct kept index 1 for 1.5, basis_matrix gave 3 rows for upto=2.5 and 1 for True, spectrum(2.5)
    # 3 entries, bartlett_stderr took n0=True and window=2.5 was accepted; RegularizedSolution built [1, 2] from
    # indices [1.5, 2.7] and from [True, 2]
    build, names = INTEGER_ARGUMENTS[case]
    if value == 0 and case in ZERO_IS_VALID:
        build(value)  # builds: 0 is the least value
        return
    if value in (0, -1) and case in INDEX_ARGUMENTS:
        with pytest.raises(IndexError, match=f"^eigenpair index {value} outside 1..128$"):
            build(value)
        return
    with pytest.raises(ValueError, match=names):
        build(value)


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_numpy_integer_arguments_build_what_ints_build(case):
    build, _ = INTEGER_ARGUMENTS[case]
    assert _fingerprint(build(np.int64(65))) == _fingerprint(build(65))


# "callable(parameter)" -> (build from one real argument, the pattern its ValueError must match to name it)
REAL_ARGUMENTS = {
    "simpson_grid(a)": (lambda v: fr.simpson_grid(65, v, 2.0), r"^a must"),
    "simpson_grid(b)": (lambda v: fr.simpson_grid(65, -1.0, v), r"^b must"),
    "ExperimentConfig(epsilon)": (lambda v: _config(epsilon=v), r"^epsilon must"),
    "ExperimentConfig(E_override)": (lambda v: _config(E_override=v), r"^E_override must"),
    "ExperimentConfig(c1_override)": (lambda v: _config(c1_override=v), r"^c1_override must"),
    "ExperimentConfig.from_json_dict(epsilon)": (lambda v: _json_config(epsilon=v), r"^epsilon must"),
    "ExperimentConfig.from_json_dict(E_override)": (lambda v: _json_config(E_override=v), r"^E_override must"),
    "ExperimentConfig.from_json_dict(c1_override)": (lambda v: _json_config(c1_override=v), r"^c1_override must"),
    "SignalSpec(terms)": (lambda v: _sines((v, 3)), r"^sine amplitude must"),
    "SignalSpec.sines(terms)": (lambda v: fr.SignalSpec.sines([(1.0, 2), (v, 3)]), r"^sine amplitude must"),
    "SignalSpec.from_json_dict(terms)": (lambda v: _json_sines((v, 3)), r"^sine amplitude must"),
    "ConstraintSpec(E)": (lambda v: fr.ConstraintSpec(E=v, eps=1e-3), r"^constraint bound E must"),
    "ConstraintSpec(eps)": (lambda v: fr.ConstraintSpec(E=1.0, eps=v), r"^noise bound eps must"),
    "ConstraintSpec(c)": (lambda v: fr.ConstraintSpec(E=1.0, eps=1e-3, c=[v, 2.0]), r"^constraint spectrum c must"),
    "NoisyDataset(coeffs)": (lambda v: fr.NoisyDataset(coeffs=[1.0, v]), r"^coeffs must"),
    "snr_db(g)": (lambda v: fr.snr_db([1.0, v], 1e-3), r"^g must"),
    "tikhonov_identity(E)": (lambda v: fr.tikhonov_identity(DATA128, ES128, v, 1e-3), r"^constraint bound E must"),
    "tikhonov_identity(eps)": (lambda v: fr.tikhonov_identity(DATA128, ES128, 1.0, v), r"^noise bound eps must"),
    "truncated_k_beta(E)": (lambda v: fr.truncated_k_beta(DATA128, ES128, v, 1e-3), r"^constraint bound E must"),
    "truncated_k_beta(eps)": (lambda v: fr.truncated_k_beta(DATA128, ES128, 1.0, v), r"^noise bound eps must"),
    "VarianceProfile(eps)": (
        lambda v: fr.VarianceProfile(rho=np.ones(4), nu=np.ones(4), eps=v), r"^noise scale eps must",
    ),
    "VarianceProfile(rho)": (
        lambda v: fr.VarianceProfile(rho=[1.0, v], nu=np.ones(2), eps=1e-3), r"^variance profile rho must",
    ),
    "VarianceProfile(nu)": (
        lambda v: fr.VarianceProfile(rho=np.ones(2), nu=[1.0, v], eps=1e-3), r"^variance profile nu must",
    ),
    "reconstruct(coeffs)": (
        lambda v: fr.reconstruct([(1, 1.0), (2, v)], ES128, GRID129), r"^expansion coefficient must",
    ),
    "add_noise(epsilon)": (lambda v: fr.add_noise(CTX128, v, 0), r"^epsilon must"),
    "synthesize_dataset(epsilon)": (
        lambda v: fr.synthesize_dataset(F1, ES128, GRID129, v, 0, 128)[0], r"^epsilon must",
    ),
    "snr_db(epsilon)": (lambda v: fr.snr_db(CTX128.g_coeffs, v), r"^epsilon must"),
    "noise_dispersion(epsilon)": (fr.noise_dispersion, r"^epsilon must"),
    "k0_cutoff(c1)": (lambda v: fr.k0_cutoff(DATA128, ES128, v), r"^norm budget c1 must"),
    "f0_approximation(c1)": (lambda v: fr.f0_approximation(DATA128, ES128, v), r"^norm budget c1 must"),
    "detect_plateau(flatness)": (lambda v: fr.detect_plateau(PROFILE128, 3, v), r"^flatness must"),
    "detect_n0(significance)": (lambda v: fr.detect_n0(SERIES128, v), r"^significance must"),
    "build_Q(significance)": (lambda v: fr.build_Q(SERIES128, 3, v), r"^significance must"),
    "build_selection(significance)": (lambda v: fr.build_selection(DATA128, v), r"^significance must"),
    "SelectionReport(significance)": (
        lambda v: fr.SelectionReport(n0=0, Q=[], pairs=[], series=SERIES128, significance=v), r"^significance must",
    ),
    "EigenSystem(eigenvalues)": (
        lambda v: fr.EigenSystem(eigenvalues=[2.0, v], evaluator=ES128.evaluator), r"^eigenvalues must be finite",
    ),
    "QuadratureGrid(points)": (
        lambda v: fr.QuadratureGrid(points=[v, 0.5, 1.0], weights=[0.5, 1.0, 0.5], a=-1.0, b=1.0),
        r"^grid points must be finite",
    ),
    "QuadratureGrid(weights)": (_weighted_grid, r"^quadrature weights must be finite"),
}
# arguments of either sign
NEGATIVE_IS_VALID = {
    "simpson_grid(a)", "simpson_grid(b)", "SignalSpec(terms)", "SignalSpec.sines(terms)",
    "SignalSpec.from_json_dict(terms)", "reconstruct(coeffs)", "QuadratureGrid(points)", "QuadratureGrid(weights)",
    "NoisyDataset(coeffs)", "snr_db(g)",
}
HUGE = 10**400  # an int past the float range: float() raised a bare OverflowError


@pytest.mark.parametrize(
    "value", [True, "1e-3", NAN, INF, -INF, -1e-3, HUGE], ids=lambda v: "10**400" if v is HUGE else repr(v)
)
@pytest.mark.parametrize("case", REAL_ARGUMENTS)
def test_real_arguments_refuse_bools_strs_and_values_out_of_range(case, value):
    # True built as 1.0 at each of them, and "1e-3" raised numpy's bare TypeError; sines built (True, 2) and
    # ("1.0", 2) as (1.0, 2), f0_approximation ran with c1=True, detect_plateau(flatness=nan) returned [],
    # and snr_db(g, True) read epsilon as 1.0; reconstruct built an expansion from the coefficients True and "2.0",
    # VarianceProfile built rho = [True, "1"] as [1.0, 1.0], NoisyDataset and snr_db read their records so,
    # and ConstraintSpec built c = [1, inf]
    build, names = REAL_ARGUMENTS[case]
    if value == -1e-3 and case in NEGATIVE_IS_VALID:
        build(value)  # builds: any finite sign is valid
        return
    with pytest.raises(ValueError, match=names):
        build(value)


@pytest.mark.parametrize("case", REAL_ARGUMENTS)
def test_numpy_float_arguments_build_what_floats_build(case):
    build, _ = REAL_ARGUMENTS[case]
    assert _fingerprint(build(np.float64(1e-3))) == _fingerprint(build(1e-3))


def test_real_config_fields_are_stored_as_floats():
    # an np.float32 epsilon made to_json_dict unserializable; an int one hashed apart from its JSON round trip
    cfg = _config(epsilon=np.float32(0.25), E_override=2, c1_override=np.float64(3.0))
    assert [type(v) for v in (cfg.epsilon, cfg.E_override, cfg.c1_override)] == [float, float, float]
    assert config_hash(ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))) == config_hash(cfg)


@pytest.fixture(scope="module")
def example1_records():
    cfg = preset("example1", seeds=(0, 1))
    return cfg, fr.run_experiment(cfg)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = preset("example1", seeds=(0, 1), output_dir=str(out))
    records = fr.run_experiment(cfg)
    summary = fr.summarize(records, true_support=None)
    files = fr.emit_outputs(records, summary, cfg)
    return out, cfg, files


class TestRunExperiment:
    def test_example1_record_contents(self, example1_records):
        _, records = example1_records
        rec = records[0]
        assert rec.k_alpha == 8
        assert rec.snr_db == pytest.approx(25.7, abs=1.0)
        assert rec.selection is not None
        assert rec.selection.I_k == [1, 2, 3, 4]
        assert set(rec.rel_l2) == set(fr.ALL_METHODS)
        assert all(e >= 0 and np.isfinite(e) for e in rec.rel_l2.values())

    def test_record_fields_are_its_serialized_keys(self, example1_records):
        _, records = example1_records
        names = {f.name for f in dataclasses.fields(fr.RunRecord)}
        assert names == set(records[0].to_json_dict()) | {"seed_sha256"}

    def test_blp_equals_tikhonov_identity(self, example1_records):
        _, records = example1_records
        for rec in records:
            assert rec.rel_l2["blp"] == pytest.approx(rec.rel_l2["tikhonov_identity"], rel=1e-12)

    def test_bounds_are_built_once_per_run(self, monkeypatch):
        built = []

        class Counted:
            def __init__(self, cls):
                self.cls = cls

            def __call__(self, *args, **kwargs):
                built.append(self.cls.__name__)
                return self.cls(*args, **kwargs)

        monkeypatch.setattr(harness, "VarianceProfile", Counted(fr.VarianceProfile))
        monkeypatch.setattr(harness, "ConstraintSpec", Counted(fr.ConstraintSpec))
        records = fr.run_experiment(preset("example1", seeds=range(4)))
        assert all(sorted(rec.rel_l2) == sorted(fr.ALL_METHODS) for rec in records)
        assert sorted(built) == ["ConstraintSpec", "VarianceProfile"]

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_a_signal_whose_squared_norm_overflows_is_refused(self, scale):
        # ||f|| itself is finite here, but C1 = ||f||^2 (1 + 1e-9) and every score square it
        values = scale * np.sin(np.pi * np.linspace(0.0, 1.0, 65))
        cfg = ExperimentConfig(signal=fr.SignalSpec.tabulated(values), epsilon=1e-3, n_coeff=16, grid_size=65, n_max=8)
        with pytest.raises(ValueError, match=r"signal norm \|\|f\|\| = \S+ is too large: \|\|f\|\|\^2 must be finite"):
            fr.run_context(cfg)
        with pytest.raises(ValueError, match=r"\|\|f\|\|\^2 must be finite"):
            fr.run_experiment(cfg)

    def test_the_largest_signals_still_run(self):
        values = 1e150 * np.sin(np.pi * np.linspace(0.0, 1.0, 65))
        cfg = ExperimentConfig(signal=fr.SignalSpec.tabulated(values), epsilon=1e-3, n_coeff=16, grid_size=65, n_max=8)
        ctx = fr.run_context(cfg)
        assert ctx.f_norm == ctx.data.grid.norm(values) and np.isfinite(ctx.c1)
        rec = fr.run_experiment(cfg)[0]
        assert rec.rel_l2 and all(np.isfinite(e) for e in rec.rel_l2.values())

    @pytest.mark.parametrize("amplitude", [1e-170, 1e-160, 1e-155])
    def test_a_nonzero_signal_whose_squared_norm_underflows_is_refused(self, amplitude):
        # at 1e-170 ||f||^2 rounded to 0 and the run took the zero signal's ||f|| = 1 (rel_l2 read 0.0);
        # at 1e-160 it was subnormal and ||f|| lost its third digit
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.sines([(amplitude, 3)]), epsilon=0.0, n_coeff=32, grid_size=65, n_max=16,
        )
        with pytest.raises(ValueError, match=r"signal norm \|\|f\|\| = \S+ is too small") as info:
            fr.run_context(cfg)
        # the message names ||f|| itself: amplitude / sqrt(2) for one sine, to its last digits
        named = float(re.search(r"= (\S+) is", str(info.value))[1])
        assert named == pytest.approx(amplitude / np.sqrt(2.0), rel=1e-12)
        with pytest.raises(ValueError, match=r"\|\|f\|\|\^2 must be a normal float"):
            fr.run_experiment(cfg)
        zero = dataclasses.replace(cfg, signal=fr.SignalSpec.sines([(0.0, 3)]))
        assert fr.run_context(zero).f_norm == 1.0  # the zero signal keeps its fallback

    def test_noiseless_exactness_bandlimited(self):
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.named("f2"), epsilon=0.0, n_coeff=512, seeds=(0,),
            methods=("k_alpha", "k_beta", "f0", "bhat"),
        )
        rec = fr.run_experiment(cfg)[0]
        assert rec.selection.I_k == [3, 7, 13]
        for method in ("k_alpha", "k_beta", "f0", "bhat"):
            assert rec.rel_l2[method] < 1e-6

    def test_method_failure_is_contained(self):
        # 6-coefficient record is too short for the selection pipeline
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.named("f1"), epsilon=1e-4, n_coeff=6, seeds=(0,),
            methods=("bhat", "k_alpha"),
        )
        rec = fr.run_experiment(cfg)[0]
        assert "bhat" in rec.failures
        assert "k_alpha" in rec.rel_l2

    def test_determinism(self):
        cfg = preset("example4", seeds=(5,))
        a = fr.run_experiment(cfg)[0]
        b = fr.run_experiment(cfg)[0]
        assert a.rel_l2 == b.rel_l2
        assert a.selection.I_k == b.selection.I_k

    def test_alternate_dispersion_mode(self):
        # D_eps = eps instead of eps/sqrt(3) shrinks the cutoff: 8 -> 7
        cfg = preset("example1", seeds=(0,))
        cfg = ExperimentConfig.from_json_dict(
            {**cfg.to_json_dict(), "dispersion_mode": "eps", "methods": ["k_alpha"]}
        )
        assert fr.run_experiment(cfg)[0].k_alpha == 7

    def test_pointwise_noise_mode(self):
        # grid-noise mode: the projected coefficient noise floor drops by
        # ~sqrt(h), so far more components clear the selection threshold
        cfg = ExperimentConfig(
            signal=fr.SignalSpec.named("f1"), epsilon=1e-4, n_coeff=128,
            seeds=(0,), methods=("bhat", "k_alpha"), noise_mode="pointwise",
        )
        rec = fr.run_experiment(cfg)[0]
        assert not rec.failures
        assert rec.selection.I_k  # selects a superset of the coefficient-mode {1,2,3,4}
        assert set(rec.selection.I_k) >= {1, 2, 3}

    def test_example4_bhat_vs_full_filter(self):
        # frozen Monte-Carlo facts: the fourth signal keeps ~24% of its energy
        # above k = 16 where eps = 1e-4 buries it, so the selective estimate
        # and the smoothed filter both plateau near 0.7 relative error and
        # neither dominates (bhat wins ~48% of seeds over 100)
        cfg = preset("example4", seeds=tuple(range(30)))
        cfg = ExperimentConfig.from_json_dict(
            {**cfg.to_json_dict(), "methods": ["tikhonov_full", "bhat"]}
        )
        records = fr.run_experiment(cfg)
        bhat = np.median([r.rel_l2["bhat"] for r in records])
        tik = np.median([r.rel_l2["tikhonov_full"] for r in records])
        assert 0.55 <= bhat <= 0.85
        assert 0.55 <= tik <= 0.85
        wins = np.mean([r.rel_l2["bhat"] < r.rel_l2["tikhonov_full"] for r in records])
        assert 0.2 <= wins <= 0.8


class TestSummarize:
    def test_single_record(self):
        cfg = preset("example1", seeds=(3,))
        records = fr.run_experiment(cfg)
        summary = fr.summarize(records)
        stats = summary["methods"]["bhat"]
        assert stats["n"] == 1
        assert stats["median"] == stats["q25"] == stats["q75"] == records[0].rel_l2["bhat"]

    def test_support_match_fraction(self):
        cfg = preset("example2", seeds=tuple(range(4)))
        records = fr.run_experiment(cfg)
        summary = fr.summarize(records, true_support=cfg.signal.support())
        sel = summary["selection"]
        assert 0.0 <= sel["exact_support_fraction"] <= 1.0
        assert sel["true_support"] == [3, 7, 13]

    def test_missing_method_column_omitted(self):
        cfg = preset("example1", seeds=(0,))
        cfg = ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "methods": ["k_alpha"]})
        summary = fr.summarize(fr.run_experiment(cfg))
        assert list(summary["methods"]) == ["k_alpha"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            fr.summarize([])


class TestEmitOutputs:
    def test_structural_files_exist_and_parse(self, emitted):
        out, _, _ = emitted
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv"):
            assert (out / name).exists()
        json.loads((out / "report.json").read_text())
        json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"]
        for rel in manifest["files"]:
            assert (out / rel).exists()

    def test_per_seed_directories(self, emitted):
        out, cfg, _ = emitted
        for seed in cfg.seeds:
            assert (out / "seeds" / str(seed) / "autocorr.csv").exists()

    def test_solutions_schema(self, emitted):
        out, cfg, _ = emitted
        lines = (out / "solutions.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["x", "f_true"]
        assert set(header[2:]) == set(fr.ALL_METHODS)
        assert len(lines) == 1 + cfg.grid_size

    def test_autocorr_schema(self, emitted):
        out, cfg, _ = emitted
        lines = (out / "autocorr.csv").read_text().splitlines()
        assert lines[0] == "n,delta,threshold0,threshold_n0"
        assert len(lines) == 1 + cfg.n_coeff

    def test_top_level_files_copy_the_first_seed(self, emitted):
        out, cfg, files = emitted
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv"):
            first = out / "seeds" / str(cfg.seeds[0]) / name
            assert (out / name).read_bytes() == first.read_bytes()
            assert files.count(out / name) == 1

    def test_each_seed_file_is_read_once_and_the_first_records_bytes_are_copied(self, tmp_path, monkeypatch):
        cfg = preset("example1", seeds=(3, 1), output_dir=str(tmp_path))
        records = fr.run_experiment(cfg)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        files = fr.emit_outputs(records, fr.summarize(records), cfg)
        seed_files = [p for p in files if p.parent.parent == tmp_path / "seeds"]
        assert len(seed_files) == 8 and sorted(reads) == sorted(seed_files)
        monkeypatch.undo()
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "seeds" / "3" / name).read_bytes()
        assert (tmp_path / "coefficients.csv").read_bytes() != (tmp_path / "seeds" / "1" / "coefficients.csv").read_bytes()

    def test_stale_files_stay_out_of_the_manifest(self, tmp_path):
        (tmp_path / "seeds" / "0").mkdir(parents=True)
        (tmp_path / "stale.csv").write_text("old\n")
        (tmp_path / "seeds" / "0" / "stale.csv").write_text("old\n")
        cfg = preset("example1", seeds=(0,), output_dir=str(tmp_path))
        records = fr.run_experiment(cfg)
        fr.emit_outputs(records, fr.summarize(records), cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not [f for f in manifest["files"] if "stale" in f]
        assert len(manifest["files"]) == 10

    def test_records_from_a_run_without_output_dir_are_refused(self, example1_records, tmp_path):
        cfg, records = example1_records
        out_cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        missing = tmp_path / "seeds" / str(cfg.seeds[0]) / "coefficients.csv"
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            fr.emit_outputs(records, fr.summarize(records), out_cfg)
        assert list(tmp_path.iterdir()) == []

    def test_an_earlier_runs_seed_files_are_refused(self, tmp_path):
        cfg = preset("example1", seeds=(0,), output_dir=str(tmp_path))
        records = fr.run_experiment(cfg)
        fr.emit_outputs(records, fr.summarize(records), cfg)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        other = dataclasses.replace(cfg, epsilon=1e-3, output_dir=None)
        stale = fr.run_experiment(other)
        assert stale[0].seed_sha256 == {}
        with pytest.raises(ValueError, match="seed 0: "):
            fr.emit_outputs(stale, fr.summarize(stale), dataclasses.replace(other, output_dir=str(tmp_path)))
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_seed_files_a_later_run_rewrote_are_refused(self, tmp_path):
        cfg = preset("example1", seeds=(0,), output_dir=str(tmp_path))
        first = fr.run_experiment(cfg)
        later = fr.run_experiment(dataclasses.replace(cfg, epsilon=1e-3))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        coeffs = tmp_path / "seeds" / "0" / "coefficients.csv"
        with pytest.raises(ValueError, match="seed 0: " + re.escape(str(coeffs))):
            fr.emit_outputs(first, fr.summarize(first), cfg)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        fr.emit_outputs(later, fr.summarize(later), dataclasses.replace(cfg, epsilon=1e-3))

    def test_a_run_dir_matches_its_absolute_and_linked_paths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = preset("example1", seeds=(0,), output_dir="out")
        records = fr.run_experiment(cfg)
        (tmp_path / "link").symlink_to(tmp_path / "out")
        for out in (tmp_path / "out", tmp_path / "link"):
            files = fr.emit_outputs(records, fr.summarize(records), dataclasses.replace(cfg, output_dir=str(out)))
            assert files[-1] == out / "manifest.json"

    def test_report_excludes_wall_time(self, emitted):
        out, _, _ = emitted
        report = json.loads((out / "report.json").read_text())
        assert "wall_time_s" not in report["records"][0]

    def test_byte_identical_rerun(self, emitted, tmp_path):
        out, cfg, _ = emitted
        cfg2 = preset("example1", seeds=(0, 1), output_dir=str(tmp_path / "rerun"))
        records = fr.run_experiment(cfg2)
        fr.emit_outputs(records, fr.summarize(records, true_support=None), cfg2)
        for name in ("autocorr.csv", "profile.csv", "solutions.csv", "coefficients.csv",
                     "report.json", "summary.json", "manifest.json"):
            assert (tmp_path / "rerun" / name).read_bytes() == (out / name).read_bytes()


def _records_and_csvs(cfg, out):
    """run_experiment(cfg) into out: its records as JSON text and the bytes of every CSV written."""
    records = fr.run_experiment(dataclasses.replace(cfg, output_dir=str(out)))
    csvs = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
    return json.dumps([r.to_json_dict() for r in records]), csvs


# run_context refuses a nonzero signal whose ||f||^2 underflows, so no drawn amplitude is that small
amplitudes = st.floats(-50, 50).filter(lambda a: not 0 < abs(a) < 1e-150)
small_signals = st.one_of(
    st.sampled_from(fr.NAMED_SIGNALS).map(fr.SignalSpec.named),
    st.lists(
        st.tuples(amplitudes, st.integers(1, 40)),
        min_size=1, max_size=4, unique_by=lambda t: t[1],
    ).map(fr.SignalSpec.sines),
)
small_configs = st.builds(
    ExperimentConfig,
    signal=small_signals,
    epsilon=st.sampled_from([0.0, 1e-4, 1e-3, 3e-3]),
    n_coeff=st.integers(8, 64),
    grid_size=st.sampled_from([65, 129]),
    n_max=st.integers(4, 40),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2, unique=True).map(tuple),
    methods=st.sets(st.sampled_from(fr.ALL_METHODS), min_size=1).map(lambda m: tuple(sorted(m))),
    noise_mode=st.sampled_from(["coefficient", "pointwise"]),
)


@pytest.fixture
def tables_built(monkeypatch):
    """Every table EigenSystem.basis_matrix returns from here on, in call order."""
    tables = []
    basis_matrix = fr.EigenSystem.basis_matrix

    def recorded(self, x, upto=None):
        tables.append(basis_matrix(self, x, upto))
        return tables[-1]

    monkeypatch.setattr(fr.EigenSystem, "basis_matrix", recorded)
    return tables


def arrays_held(root) -> list[np.ndarray]:
    """Every ndarray that root holds, and their bases, through containers, instances and closures.

    A function is followed into its closure and defaults only, and a module
    or a class not at all, so what the code can reach through globals is
    not counted.
    """
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, types.FunctionType):
            stack += [*(obj.__closure__ or ()), obj.__defaults__]
        else:
            stack += gc.get_referents(obj)
    return arrays


class TestTableCache:
    """run_context shares one read-only copy of a signal's tables between calls."""

    @settings(max_examples=15, deadline=None)
    @given(a=small_configs, b=small_configs, b_shares_tables=st.booleans())
    def test_warm_runs_equal_cold_runs(self, a, b, b_shares_tables, tmp_path_factory):
        if b_shares_tables:
            b = dataclasses.replace(b, signal=a.signal, n_coeff=a.n_coeff, grid_size=a.grid_size, n_max=a.n_max)
        cold = {}
        for name, cfg in (("a", a), ("b", b)):
            harness._TABLES.clear()
            cold[name] = _records_and_csvs(cfg, tmp_path_factory.mktemp("cold"))
        for name, cfg in (("a", a), ("b", b), ("a", a)):
            assert _records_and_csvs(cfg, tmp_path_factory.mktemp("warm")) == cold[name]

    def test_solutions_cells_follow_the_tables(self, tmp_path):
        # x and f_true are formatted once per table-cache entry: A, then B (a miss), then A again
        a = ExperimentConfig(signal=fr.SignalSpec.named("f1"), epsilon=1e-3, n_coeff=32, grid_size=65, n_max=16)
        b = dataclasses.replace(a, signal=fr.SignalSpec.named("f4"))
        harness._TABLES.clear()
        fr.run_experiment(a)
        assert fr.run_context(a)._cells == {}  # a run without an output dir formats nothing
        solutions = {}
        for i, cfg in enumerate((a, b, a)):
            fr.run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / str(i))))
            solutions[i] = (tmp_path / str(i) / "seeds" / "0" / "solutions.csv").read_text()
        ctx = fr.run_context(a)
        columns = [line.split(",")[:2] for line in solutions[2].splitlines()[1:]]
        assert columns == [list(row) for row in zip(fr.csv_cells(ctx.data.grid.points), fr.csv_cells(ctx.data.f_vals))]
        assert solutions[2] == solutions[0] != solutions[1]
        x_cells, f_cells = zip(*columns)
        assert ctx._cells == {"x": x_cells, "f_true": f_cells}

    def test_only_the_signal_and_table_sizes_pick_the_tables(self):
        base = ExperimentConfig(signal=fr.SignalSpec.named("f2"), epsilon=1e-3, n_coeff=64, grid_size=129, n_max=16)
        same = [
            dataclasses.replace(base, **change) for change in (
                {"epsilon": 3e-3}, {"E_override": 2.0}, {"c1_override": 5.0}, {"dispersion_mode": "eps"},
                {"noise_mode": "pointwise"}, {"methods": ("bhat",)}, {"seeds": (7, 8)},
            )
        ]
        table = fr.run_context(base).data.basis
        assert all(fr.run_context(cfg).data.basis is table for cfg in same)
        other = [
            dataclasses.replace(base, **change) for change in (
                {"signal": fr.SignalSpec.named("f3")}, {"n_coeff": 48}, {"grid_size": 65}, {"n_max": 12},
            )
        ]
        for cfg in other:
            assert fr.run_context(base).data.basis is not fr.run_context(cfg).data.basis

    def test_a_tabulated_signal_changed_in_place_misses(self):
        values = np.linspace(0.0, 1.0, 65)
        cfg = ExperimentConfig(signal=fr.SignalSpec.tabulated(values), epsilon=1e-3, n_coeff=16, grid_size=65, n_max=8)
        first = fr.run_context(cfg)
        values[10] += 1.0
        second = fr.run_context(cfg)
        assert second.data.basis is not first.data.basis
        assert np.array_equal(second.data.f_vals, values)
        assert values.flags.writeable and cfg.signal.values.flags.writeable
        assert not second.data.f_vals.flags.writeable

    def test_tables_are_read_only(self):
        ctx = fr.run_context(preset("example1"))
        gram = ctx._gram
        for table in (
            ctx.data.basis, ctx.data.g_coeffs, ctx.es.eigenvalues, ctx.vp.rho, ctx.vp.nu, gram.f_k, gram.gram, gram.h,
        ):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            gram.r_sq = 0.0

    @pytest.mark.parametrize("name", ["example2", "example3"])
    def test_a_sine_combination_run_tabulates_no_psi_k(self, name, tables_built):
        harness._TABLES.clear()
        records = fr.run_experiment(preset(name, seeds=(0, 1)))
        assert all(sorted(rec.rel_l2) == sorted(fr.ALL_METHODS) for rec in records)
        # g_k in closed form and scores in exact L^2: no psi_k row, no Gram matrix
        ctx = fr.run_context(preset(name))
        assert tables_built == [] and ctx._gram.gram is None and ctx._gram.h is None

    def test_a_projected_run_keeps_no_record_table(self, tables_built):
        harness._TABLES.clear()
        cfg = preset("example1", seeds=(0, 1))
        fr.run_experiment(cfg)
        # g_k projected through an n_coeff-row table, the Gram form built from the n_max-row one
        assert [table.shape for table in tables_built] == [(512, 513), (64, 513)]
        (entry,) = harness._TABLES.values()
        held = arrays_held(entry)
        assert (512, 513) not in {a.shape for a in held}
        assert any(a is tables_built[1] for a in held) and not tables_built[1].flags.writeable
        assert "basis" not in vars(fr.run_context(cfg).data)  # the record's table is left to its first read

    def test_emission_gathers_from_the_n_max_row_table_once_per_table_cache_entry(self, tables_built, tmp_path):
        harness._TABLES.clear()
        runs = [preset("example3", seeds=(0, 1)), preset("example3", seeds=(2,)), preset("example1")]
        for i, cfg in enumerate(runs):
            fr.run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / str(i))))
        # example3's entry builds its table on the first emission and its second run reuses it; example1's
        # projects g_k through a transient table and emits from the table its Gram form read
        assert [table.shape for table in tables_built] == [(64, 513), (512, 513), (64, 513)]
        assert not tables_built[0].flags.writeable and not tables_built[-1].flags.writeable
        ctx = fr.run_context(runs[-1])
        assert "basis" not in vars(ctx.data)
        assert ctx.es.basis_matrix(ctx.data.grid.points).tobytes() == tables_built[2].tobytes()

    def test_pointwise_noise_tabulates_the_record_basis_on_first_read(self, tables_built, tmp_path):
        harness._TABLES.clear()
        cfg = dataclasses.replace(preset("example2", seeds=(0, 1)), noise_mode="pointwise")
        ctx = fr.run_context(cfg)
        assert tables_built == []
        fr.run_experiment(cfg)
        assert [table.shape for table in tables_built] == [(cfg.n_coeff, 513)]
        assert ctx.data.basis is tables_built[0] and not ctx.data.basis.flags.writeable
        # emission gathers from the n_max-row table, not the record's
        fr.run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path)))
        assert [table.shape for table in tables_built] == [(cfg.n_coeff, 513), (cfg.n_max, 513)]

    def test_a_sine_context_tabulates_its_basis_on_first_read(self, tables_built, es512, grid513):
        ctx = fr.signal_context(fr.SignalSpec.named("f3"), es512, grid513, 256)
        assert "basis" not in repr(ctx) and ctx == ctx  # repr and == leave the table out
        assert tables_built == []
        table = ctx.basis
        assert len(tables_built) == 1 and tables_built[0] is table is ctx.basis and not table.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.basis = table  # read-only: neither passed in nor replaced
        assert table.tobytes() == es512.basis_matrix(grid513.points, 256).tobytes()
        # a grid-form signal projects g_k through a table of its own and leaves the context's to its first read
        grid_form = fr.signal_context(fr.SignalSpec.named("f1"), es512, grid513, 256)
        assert len(tables_built) == 3 and "basis" not in vars(grid_form)
        assert grid_form.basis is tables_built[3] is not tables_built[2]
        assert grid_form.basis.tobytes() == table.tobytes()

    @pytest.mark.parametrize("name", fr.PRESETS)
    def test_reconstruction_basis_gathers_a_table_on_the_grid(self, name, monkeypatch):
        harness._TABLES.clear()
        ctx = fr.run_context(preset(name))
        n, grid = ctx.es.count, ctx.data.grid
        exact = fr.analytic_eigensystem(n)
        assert ctx.es.eigenvalues.tobytes() == exact.eigenvalues.tobytes()
        for x in (grid.points, grid.points.copy(), grid.points[1:], np.linspace(0.0, 1.0, 100), np.array([0.3])):
            assert ctx.es.basis_matrix(x).tobytes() == exact.basis_matrix(x).tobytes()
        sol = fr.RegularizedSolution(indices=np.array([3, 1]), values=np.array([0.5, -2.0]), method="any")
        want = fr.reconstruct(sol.coeffs, exact, grid)
        want_rows = exact.basis_matrix(grid.points)

        def refuse(*args, **kwargs):
            raise AssertionError("a sine evaluated on the grid")

        monkeypatch.setattr(np, "sin", refuse)
        on_grid = ctx.es.basis_matrix(grid.points)
        on_grid[:] = 7.0  # a gather, a copy: scoring scales its rows in place
        assert ctx.es.basis_matrix(grid.points).tobytes() == want_rows.tobytes()
        assert sol.to_grid(ctx.es, grid).tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def flat_profile_runs():
    """(ctx, noisy dataset) for 100 seeds of each preset."""
    runs = []
    for name in fr.PRESETS:
        cfg = preset(name)
        ctx = fr.run_context(cfg)
        runs += [(ctx, fr.add_noise(ctx.data, cfg.epsilon, seed, cfg.noise_mode)) for seed in range(100)]
    return runs


class TestFlatProfile:
    """On the run context's flat profile (rho_k = E, nu_k = 1) the probabilistic branch adds no method."""

    def test_run_context_fields(self):
        ctx = fr.run_context(preset("example1"))
        assert [f.name for f in dataclasses.fields(ctx)] == ["data", "es", "f_norm", "cs", "c1", "vp", "_gram", "_cells"]
        assert ctx.f_norm == ctx.data.grid.norm(ctx.data.f_vals) and ctx._gram.gram.shape == (ctx.es.count,) * 2
        assert ctx.cs.E == ctx.f_norm and ctx.cs.eps == ctx.vp.eps == fr.noise_dispersion(1e-4) and ctx.cs.c is None
        assert np.all(ctx.vp.rho == ctx.cs.E) and np.all(ctx.vp.nu == 1.0) and ctx.vp.rho.size == ctx.es.count

    def test_classified_solution_is_k_beta(self, flat_profile_runs):
        for ctx, ds in flat_profile_runs:
            got = fr.classified_solution(ds, ctx.es, ctx.vp)
            want = fr.truncated_k_beta(ds, ctx.es, ctx.cs.E, ctx.cs.eps)
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    def test_best_linear_estimate_is_tikhonov_identity(self, flat_profile_runs):
        for ctx, ds in flat_profile_runs:
            got = fr.best_linear_estimate(ds, ctx.es, ctx.vp)
            want = fr.tikhonov_identity(ds, ctx.es, ctx.cs.E, ctx.cs.eps)
            assert np.array_equal(got.indices, want.indices)
            assert np.all(np.abs(got.values - want.values) <= 1e-14 * np.abs(want.values))
