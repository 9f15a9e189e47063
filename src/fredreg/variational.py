"""Tikhonov-type spectral filters and the component information measure.

All minimizers are evaluated in closed spectral form.  With alpha = eps/E and
constraint spectrum c_k, the smoothed solution applies the filter
lam_k gbar_k / (lam_k^2 + alpha^2 c_k^2); the truncated variants keep the raw
expansion gbar_k / lam_k up to the largest index where lam_k >= alpha |c_k|
(k_alpha) or lam_k >= alpha (k_beta).  The probabilistic branch adds the best
linear filter lam rho^2 gbar / (lam^2 rho^2 + eps^2 nu^2), the per-component
information J = 0.5 ln(1 + (lam rho / eps nu)^2), and the induced split of
indices into informative and noise-dominated sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigensystem import EigenSystem, QuadratureGrid, _expansion_on, _finite_real, _finite_reals, _integer, _integers
from .synthesis import NoisyDataset

__all__ = [
    "ConstraintSpec",
    "VarianceProfile",
    "RegularizedSolution",
    "truncated_expansion",
    "tikhonov_full",
    "truncated_k_alpha",
    "tikhonov_identity",
    "truncated_k_beta",
    "best_linear_estimate",
    "information_content",
    "correlation_ratio",
    "classify_components",
    "classified_solution",
]


@dataclass(frozen=True)
class ConstraintSpec:
    """Constraint-operator spectrum c_k, solution bound E, and noise bound eps.

    c=None means the default spectrum c_k = k.  The regularizing family is
    continuous only when c_k grows without bound; constant spectra are allowed
    (they reduce to the identity constraint) but draw a warning.  Every filter
    reads its bounds from here: a finite E > 0 and a finite eps >= 0.
    """

    E: float
    eps: float
    c: np.ndarray | None = None

    def __post_init__(self):
        _finite_real(self.E, "constraint bound E", positive=True)
        _finite_real(self.eps, "noise bound eps")
        if self.c is not None:
            c = np.asarray(self.c, dtype=float)
            object.__setattr__(self, "c", c)
            if np.any(c <= 0):
                raise ValueError("constraint spectrum entries must be > 0")
            if c.size >= 2 and c[-1] <= c[0]:
                warnings.warn(
                    "constraint spectrum does not grow; regularizer continuity needs c_k -> inf",
                    stacklevel=2,
                )

    def spectrum(self, n: int) -> np.ndarray:
        n = _integer(n, "n", 0)
        if self.c is None:
            return np.arange(1, n + 1, dtype=float)
        if self.c.size < n:
            raise ValueError(f"constraint spectrum has {self.c.size} entries, need {n}")
        return self.c[:n]

    @property
    def alpha(self) -> float:
        return self.eps / self.E


@dataclass(frozen=True)
class VarianceProfile:
    """Per-component prior std rho_k, noise shape nu_k, and noise scale eps."""

    rho: np.ndarray
    nu: np.ndarray
    eps: float

    def __post_init__(self):
        rho = _finite_reals(self.rho, "variance profile rho")
        nu = _finite_reals(self.nu, "variance profile nu")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "nu", nu)
        if rho.shape != nu.shape:
            raise ValueError("rho and nu must have matching length")
        _finite_real(self.eps, "noise scale eps")

    def check_covers(self, n: int) -> None:
        if self.rho.size < _integer(n, "n", 0):
            raise ValueError(f"variance profile covers {self.rho.size} components, need {n}")


@dataclass(frozen=True)
class RegularizedSolution:
    """Sparse coefficient expansion plus provenance of the producing filter.

    The indices are distinct integers (not bools) >= 1: a ValueError names any other.
    """

    indices: np.ndarray
    values: np.ndarray
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        idx = _integers(self.indices, "eigenpair index")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if idx.shape != vals.shape:
            raise ValueError("indices and values must have matching length")
        # every filter builds increasing 1-d indices, which one comparison accepts; any others are sorted
        if idx.size and not (idx.ndim == 1 and idx[0] >= 1 and (idx[1:] > idx[:-1]).all()):
            ordered = np.sort(idx, axis=None)  # distinct: no two neighbours equal once sorted
            if ordered[0] < 1 or np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("coefficient indices must be distinct and >= 1")

    @property
    def coeffs(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def to_grid(self, es: EigenSystem, grid: QuadratureGrid) -> np.ndarray:
        return _expansion_on(self.indices, self.values, es, grid)


def _active_range(data: NoisyDataset, es: EigenSystem) -> int:
    return min(es.count, data.n_coeff)


def truncated_expansion(
    data: NoisyDataset, es: EigenSystem, ks: np.ndarray | list[int], method: str, params: dict
) -> RegularizedSolution:
    """Raw expansion gbar_k/lam_k on the index set ks, zero elsewhere.

    Each index is an integer (not a bool) in 1..es.count and 1..data.n_coeff:
    one that is not an integer raises ValueError, one outside either range an
    IndexError that names it and the range.
    """
    idx = _integers(ks, "eigenpair index")
    es._check_index(idx)
    try:
        vals = data.coeffs[idx - 1] / es.eigenvalues[idx - 1]
    except IndexError:  # every index is >= 1 and <= es.count here, so one lies past the record
        raise IndexError(f"coefficient index {idx.max()} outside 1..{data.n_coeff} of the record") from None
    return RegularizedSolution(indices=idx, values=vals, method=method, params=params)


def _tikhonov(
    data: NoisyDataset, es: EigenSystem, cs: ConstraintSpec, c: np.ndarray | float, method: str
) -> RegularizedSolution:
    """Filter lam_k gbar_k / (lam_k^2 + alpha^2 c_k^2), alpha = eps/E, over the active range."""
    n = _active_range(data, es)
    lam = es.eigenvalues[:n]
    vals = lam * data.coeffs[:n] / (lam**2 + (cs.alpha * c) ** 2)
    params = {"E": cs.E, "eps": cs.eps, "alpha": cs.alpha}
    return RegularizedSolution(indices=np.arange(1, n + 1), values=vals, method=method, params=params)


def _cutoff(
    data: NoisyDataset, es: EigenSystem, cs: ConstraintSpec, c: np.ndarray | float, method: str, key: str
) -> RegularizedSolution:
    """Raw expansion up to the largest k with lam_k >= alpha |c_k|, reported as params[key]."""
    lam = es.eigenvalues[: _active_range(data, es)]
    qualifies = lam >= cs.alpha * np.abs(c)
    k = int(np.nonzero(qualifies)[0].max() + 1) if qualifies.any() else 0
    params = {"E": cs.E, "eps": cs.eps, "alpha": cs.alpha, key: k}
    return truncated_expansion(data, es, np.arange(1, k + 1), method, params)


def tikhonov_full(data: NoisyDataset, es: EigenSystem, cs: ConstraintSpec) -> RegularizedSolution:
    """Smoothed solution: coefficient lam_k gbar_k / (lam_k^2 + alpha^2 c_k^2)."""
    return _tikhonov(data, es, cs, cs.spectrum(_active_range(data, es)), "tikhonov_full")


def truncated_k_alpha(data: NoisyDataset, es: EigenSystem, cs: ConstraintSpec) -> RegularizedSolution:
    """Raw expansion gbar_k/lam_k up to the largest k with lam_k >= alpha |c_k|."""
    c = cs.spectrum(_active_range(data, es))
    return _cutoff(data, es, cs, c, "truncated_k_alpha", "k_alpha")


def tikhonov_identity(data: NoisyDataset, es: EigenSystem, E: float, eps: float) -> RegularizedSolution:
    """Identity-constraint filter: lam_k gbar_k / (lam_k^2 + (eps/E)^2)."""
    return _tikhonov(data, es, ConstraintSpec(E, eps), 1.0, "tikhonov_identity")


def truncated_k_beta(data: NoisyDataset, es: EigenSystem, E: float, eps: float) -> RegularizedSolution:
    """Raw expansion up to the largest k with lam_k >= eps/E."""
    return _cutoff(data, es, ConstraintSpec(E, eps), 1.0, "truncated_k_beta", "k_beta")


def best_linear_estimate(data: NoisyDataset, es: EigenSystem, vp: VarianceProfile) -> RegularizedSolution:
    """Best linear filter: lam_k rho_k^2 gbar_k / (lam_k^2 rho_k^2 + eps^2 nu_k^2)."""
    n = _active_range(data, es)
    vp.check_covers(n)
    if np.any(vp.nu[:n] == 0):
        raise ValueError("singular noise: nu_k = 0 leaves a component noise-free")
    lam = es.eigenvalues[:n]
    rho, nu = vp.rho[:n], vp.nu[:n]
    num = lam * rho**2 * data.coeffs[:n]
    den = (lam * rho) ** 2 + (vp.eps * nu) ** 2
    # rho_k = 0 with eps = 0 is the zero-prior limit: the component vanishes
    vals = np.divide(num, den, out=np.zeros(n), where=den > 0)
    return RegularizedSolution(
        indices=np.arange(1, n + 1), values=vals, method="best_linear_estimate",
        params={"eps": vp.eps},
    )


def correlation_ratio(lambda_k: float, rho_k: float, nu_k: float, eps: float) -> float:
    """Squared correlation (lam rho)^2 / ((lam rho)^2 + (eps nu)^2)."""
    if eps * nu_k == 0:
        raise ValueError("singular noise: eps * nu_k must be > 0")
    s = (lambda_k * rho_k) ** 2
    return s / (s + (eps * nu_k) ** 2)


def information_content(lambda_k: float, rho_k: float, nu_k: float, eps: float) -> float:
    """Information (nats) the noisy component carries: 0.5 ln(1 + (lam rho / eps nu)^2)."""
    if eps * nu_k == 0:
        raise ValueError("singular noise: eps * nu_k must be > 0")
    return 0.5 * math.log1p((lambda_k * rho_k / (eps * nu_k)) ** 2)


def classify_components(es: EigenSystem, vp: VarianceProfile) -> tuple[list[int], list[int]]:
    """Split k = 1..count into informative (lam rho >= eps nu) and noise-dominated sets."""
    n = min(es.count, vp.rho.size)
    vp.check_covers(n)
    lam = es.eigenvalues[:n]
    informative = lam * vp.rho[:n] >= vp.eps * vp.nu[:n]
    ks = np.arange(1, n + 1)
    return ks[informative].tolist(), ks[~informative].tolist()


def classified_solution(data: NoisyDataset, es: EigenSystem, vp: VarianceProfile) -> RegularizedSolution:
    """Conditional-mean estimate: gbar_k/lam_k on the informative set, 0 elsewhere."""
    informative, _ = classify_components(es, vp)
    keep = [k for k in informative if k <= data.n_coeff]
    return truncated_expansion(data, es, keep, "classified_components", {"eps": vp.eps})
