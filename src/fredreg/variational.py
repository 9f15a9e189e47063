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

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigensystem import EigenSystem, QuadratureGrid, reconstruct
from .synthesis import NoisyDataset, write_table

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
    (they reduce to the identity constraint) but draw a warning.
    """

    E: float
    eps: float
    c: np.ndarray | None = None

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError("constraint bound E must be > 0")
        if self.eps < 0:
            raise ValueError("noise bound eps must be >= 0")
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
        rho = np.asarray(self.rho, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "nu", nu)
        if rho.shape != nu.shape:
            raise ValueError("rho and nu must have matching length")
        if np.any(~np.isfinite(rho)) or np.any(~np.isfinite(nu)):
            raise ValueError("variance profile entries must be finite")
        if np.any(rho < 0) or np.any(nu < 0):
            raise ValueError("variance profile entries must be >= 0")

    def check_covers(self, n: int) -> None:
        if self.rho.size < n:
            raise ValueError(f"variance profile covers {self.rho.size} components, need {n}")


@dataclass(frozen=True)
class RegularizedSolution:
    """Sparse coefficient expansion plus provenance of the producing filter."""

    indices: np.ndarray
    values: np.ndarray
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if idx.shape != vals.shape:
            raise ValueError("indices and values must have matching length")
        if idx.size and (np.any(idx < 1) or np.unique(idx).size != idx.size):
            raise ValueError("coefficient indices must be distinct and >= 1")

    @property
    def coeffs(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def to_grid(self, es: EigenSystem, grid: QuadratureGrid) -> np.ndarray:
        return reconstruct(self.coeffs, es, grid)

    def to_json(self) -> str:
        return json.dumps(
            {"method": self.method, "params": self.params, "coeffs": self.coeffs}
        )

    def write_csv(self, path: str) -> None:
        write_table(path, ("k", "coefficient"), self.indices, self.values)


def _active_range(data: NoisyDataset, es: EigenSystem) -> int:
    return min(es.count, data.n_coeff)


def truncated_expansion(
    data: NoisyDataset, es: EigenSystem, ks: np.ndarray | list[int], method: str, params: dict
) -> RegularizedSolution:
    """Raw expansion gbar_k/lam_k on the index set ks, zero elsewhere."""
    idx = np.asarray(ks, dtype=int)
    vals = data.coeffs[idx - 1] / es.eigenvalues[idx - 1]
    return RegularizedSolution(indices=idx, values=vals, method=method, params=params)


def _tikhonov(
    data: NoisyDataset, es: EigenSystem, E: float, eps: float, c: np.ndarray | float, method: str
) -> RegularizedSolution:
    """Filter lam_k gbar_k / (lam_k^2 + alpha^2 c_k^2), alpha = eps/E, over the active range."""
    n = _active_range(data, es)
    lam = es.eigenvalues[:n]
    alpha = eps / E
    vals = lam * data.coeffs[:n] / (lam**2 + (alpha * c) ** 2)
    params = {"E": E, "eps": eps, "alpha": alpha}
    return RegularizedSolution(indices=np.arange(1, n + 1), values=vals, method=method, params=params)


def _cutoff(
    data: NoisyDataset, es: EigenSystem, E: float, eps: float, c: np.ndarray | float, method: str, key: str
) -> RegularizedSolution:
    """Raw expansion up to the largest k with lam_k >= alpha |c_k|, reported as params[key]."""
    lam = es.eigenvalues[: _active_range(data, es)]
    alpha = eps / E
    qualifies = lam >= alpha * np.abs(c)
    k = int(np.nonzero(qualifies)[0].max() + 1) if qualifies.any() else 0
    params = {"E": E, "eps": eps, "alpha": alpha, key: k}
    return truncated_expansion(data, es, np.arange(1, k + 1), method, params)


def tikhonov_full(data: NoisyDataset, es: EigenSystem, cs: ConstraintSpec) -> RegularizedSolution:
    """Smoothed solution: coefficient lam_k gbar_k / (lam_k^2 + alpha^2 c_k^2)."""
    return _tikhonov(data, es, cs.E, cs.eps, cs.spectrum(_active_range(data, es)), "tikhonov_full")


def truncated_k_alpha(data: NoisyDataset, es: EigenSystem, cs: ConstraintSpec) -> RegularizedSolution:
    """Raw expansion gbar_k/lam_k up to the largest k with lam_k >= alpha |c_k|."""
    c = cs.spectrum(_active_range(data, es))
    return _cutoff(data, es, cs.E, cs.eps, c, "truncated_k_alpha", "k_alpha")


def tikhonov_identity(data: NoisyDataset, es: EigenSystem, E: float, eps: float) -> RegularizedSolution:
    """Identity-constraint filter: lam_k gbar_k / (lam_k^2 + (eps/E)^2)."""
    if E <= 0:
        raise ValueError("bound E must be > 0")
    return _tikhonov(data, es, E, eps, 1.0, "tikhonov_identity")


def truncated_k_beta(data: NoisyDataset, es: EigenSystem, E: float, eps: float) -> RegularizedSolution:
    """Raw expansion up to the largest k with lam_k >= eps/E."""
    if E <= 0:
        raise ValueError("bound E must be > 0")
    return _cutoff(data, es, E, eps, 1.0, "truncated_k_beta", "k_beta")


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
