"""Kernels, eigensystems, and quadrature on [a, b].

The integral operator (Af)(x) = int_a^b K(x,y) f(y) dy with a real symmetric
square-integrable kernel has an orthonormal eigenbasis {psi_k} with positive
decreasing eigenvalues {lam_k}.  This module supplies

  * composite-Simpson quadrature grids (inner products, norms),
  * the closed-form eigensystem of the triangular sample kernel
    K(x,y) = (1-x)y for y <= x, x(1-y) for y >= x on [0,1], whose
    eigenpairs are psi_k = sqrt(2) sin(k pi x), lam_k = 1/(k^2 pi^2),
  * a Nystrom-style numeric eigensystem for tabulated symmetric kernels,
    solved by numpy's dense eigh up to the default grid size (ARPACK's
    Lanczos, from scipy, only for a few eigenpairs of a larger grid),
  * coefficients (f, psi_k) for k = 1..upto in one product with the psi_k
    table, and reconstruction from the eigenbasis.

Quadrature note: on a uniform grid of M+1 points the Simpson weights couple
sine modes with i + j = M (Gram entries ~1/6).  Orthonormality is therefore
only meaningful well below the grid Nyquist index; the default 513-point grid
is exact (to rounding) for i + j < 512.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureGrid",
    "simpson_grid",
    "EigenSystem",
    "TabulatedKernel",
    "EigenDecompositionError",
    "sample_kernel_matrix",
    "analytic_eigensystem",
    "numeric_eigensystem",
    "project_all",
    "reconstruct",
]

DEFAULT_GRID_SIZE = 513
DEFAULT_N_MAX = 64


class EigenDecompositionError(RuntimeError):
    """Numeric eigensystem could not be extracted reliably."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Abscissae and weights discretizing the L2(a, b) inner product."""

    points: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        pts = _finite_reals(self.points, "grid points", signed=True)
        wts = _finite_reals(self.weights, "quadrature weights", signed=True)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "a", _finite_real(self.a, "a", signed=True))
        object.__setattr__(self, "b", _finite_real(self.b, "b", signed=True))
        if pts.ndim != 1 or pts.shape != wts.shape or pts.size < 3:
            raise ValueError("grid needs matching 1-d points/weights with >= 3 nodes")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] < self.a - 1e-12 or pts[-1] > self.b + 1e-12:
            raise ValueError("grid points must lie in [a, b]")
        if abs(wts.sum() - (self.b - self.a)) > 1e-12:
            raise ValueError("quadrature weights must sum to b - a")

    @property
    def size(self) -> int:
        return self.points.size

    def norm(self, f: np.ndarray) -> float:
        f = np.asarray(f)
        with np.errstate(over="ignore"):
            sq = float(np.add.reduce(self.weights * (f * f), axis=None))  # np.sum's bits, without its dispatch
        if 2.0**-960 <= sq < math.inf:
            return math.sqrt(sq)
        # a square overflowed or lost digits to the subnormals (or f is zero or not finite):
        # move the peak to [0.5, 1) by an exact power of two, square, and scale the root back
        exp = math.frexp(float(np.max(np.abs(f))))[1]
        return math.ldexp(float(np.sqrt(np.sum(self.weights * np.ldexp(f, -exp) ** 2))), exp)


def simpson_grid(n: int = DEFAULT_GRID_SIZE, a: float = 0.0, b: float = 1.0) -> QuadratureGrid:
    """Composite Simpson rule on a uniform grid; n must be an odd integer >= 3."""
    n, a, b = _integer(n, "n", 3), _finite_real(a, "a", signed=True), _finite_real(b, "b", signed=True)
    if n % 2 == 0:
        raise ValueError(f"n must be odd for composite Simpson, got {n!r}")
    pts = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    # rounding can leave sum(w) off b-a by a few ulp; renormalize exactly
    w *= (b - a) / w.sum()
    return QuadratureGrid(points=pts, weights=w, a=a, b=b)


@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigenpairs {psi_k, lam_k}, k = 1..count, of a symmetric kernel.

    `eigenvalues` is the 1-d array lam_1 > lam_2 > ... > 0 of finite reals;
    its size is the eigenpair count.  `evaluator(ks, x)` tabulates the
    eigenfunctions: for an integer array ks (values in 1..count, already
    checked) and a 1-d array x it returns an array of shape (len(ks), len(x))
    whose row i is psi_{ks[i]}(x), an array the caller only reads: it may be a
    read-only view of a table the evaluator keeps (see _rows).  Every
    evaluation goes through one call to it: `basis_matrix` for the rows
    1..upto, `reconstruct` for the rows it sums (see _expansion_sum).
    """

    eigenvalues: np.ndarray
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = _finite_reals(self.eigenvalues, "eigenvalues")
        object.__setattr__(self, "eigenvalues", vals)
        if vals.ndim != 1:
            raise ValueError(f"eigenvalues must be a 1-d array, got shape {vals.shape}")
        if np.any(vals <= 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(vals) >= 0):
            raise ValueError("eigenvalues must be strictly decreasing")

    @property
    def count(self) -> int:
        return self.eigenvalues.size

    def basis_matrix(self, x: np.ndarray, upto: int | None = None) -> np.ndarray:
        """psi_k(x) stacked row-wise for k = 1..upto, as a new writable array.

        upto is an integer, and one outside 1..count an IndexError.
        """
        upto = self.count if upto is None else _integer(upto, "upto")
        self._check_index(upto)
        table = self.evaluator(np.arange(1, upto + 1), np.asarray(x, dtype=float))
        return table if table.flags.writeable else table.copy()

    def _check_index(self, k: int | np.ndarray) -> None:
        """Raise IndexError naming the first of k (one index or an array) outside 1..count."""
        n = self.count
        # a list scan: faster than numpy's ufunc calls for the few dozen indices a call passes
        bad = [i for i in np.ravel(k).tolist() if not 1 <= i <= n]
        if bad:
            raise IndexError(f"eigenpair index {bad[0]} outside 1..{n}")


@dataclass(frozen=True)
class TabulatedKernel:
    """Symmetric kernel sampled on the tensor grid of a QuadratureGrid."""

    values: np.ndarray
    grid: QuadratureGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = self.grid.size
        if vals.shape != (n, n):
            raise ValueError(f"kernel matrix must be {n}x{n} to match its grid")
        if np.max(np.abs(vals - vals.T)) > 1e-12:
            raise ValueError("kernel matrix must be symmetric within 1e-12")


def sample_kernel_matrix(grid: QuadratureGrid) -> TabulatedKernel:
    """Tabulate the sample kernel (1-x)y for y <= x, x(1-y) for y >= x on a grid in [0, 1]."""
    x = grid.points
    if x[0] < 0.0 or x[-1] > 1.0:
        raise ValueError(f"sample kernel is defined on [0, 1]; grid spans [{x[0]}, {x[-1]}]")
    # both branches are (1 - max(x, y)) min(x, y); two outer products keep one n x n temporary alive at a time
    vals = np.subtract(1.0, np.maximum.outer(x, x))
    vals *= np.minimum.outer(x, x)
    return TabulatedKernel(values=vals, grid=grid)


_FLOAT_MAX = sys.float_info.max


def _integer(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value as an int when it is an integer (not a bool) in least..most; None leaves that side open.

    Anything else raises a ValueError that names it: True would read as 1, and
    int() would truncate 2.5 to 2.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not (
        (least is None or value >= least) and (most is None or value <= most)
    ):
        bound = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _finite_real(value, name: str, positive: bool = False, signed: bool = False) -> float:
    """value as a float when it is a real number (not a bool or str), finite and >= 0 (> 0 if positive, any sign if signed).

    Anything else raises a ValueError that names it: True would read as 1.0,
    a str would reach numpy's ufuncs as a bare TypeError, and an int past the
    float range would raise float()'s bare OverflowError.  Only a Python int is
    compared before its conversion: an np.float32 compared with a Python float
    warns on the cast.  The rule is scalar Python, with no numpy ufunc, which
    would cost more than the whole rule on the per-record selection path.
    """
    real = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    number = float(value) if real and (not isinstance(value, int) or abs(value) <= _FLOAT_MAX) else math.nan
    if not (math.isfinite(number) and (signed or (number > 0 if positive else number >= 0))):
        bound = "" if signed else " and > 0" if positive else " and >= 0"
        raise ValueError(f"{name} must be finite{bound}, got {value!r} ({type(value).__name__})")
    return number


def _integers(values, name: str) -> np.ndarray:
    """values as an int array: an integer ndarray by one dtype check, anything else item by item through _integer.

    asarray(dtype=int) would read 1.5 as 1, and asarray [True, 2] as [1, 2].
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):  # an integer array holds no bool and no float
        values = [_integer(v, name) for v in (values.tolist() if isinstance(values, np.ndarray) else values)]
    return np.asarray(values, dtype=int)


def _finite_reals(values, name: str, signed: bool = False) -> np.ndarray:
    """values as a float array whose entries are finite and >= 0 (any sign if signed); a ValueError names any other.

    A float ndarray passes one dtype check and is checked as a whole, by one
    comparison; anything else goes item by item through _finite_real.
    asarray(dtype=float) would read [True, "1"] as [1.0, 1.0].
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f"):
        items = values.tolist() if isinstance(values, np.ndarray) else values
        values = [_finite_real(v, name, signed=signed) for v in items]
        return np.asarray(values, dtype=float)
    ok = np.isfinite(values) if signed else (values >= 0) & (values < math.inf)  # NaN fails either
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        bound = "" if signed else " and >= 0"
        raise ValueError(f"{name} must be finite{bound}, got {float(values.flat[i])!r} at index {i}")
    return np.asarray(values, dtype=float)


def _rows(table: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Rows ks - 1 of a read-only table: the view table[:K] when ks is exactly 1..K, a gather (a new array) otherwise.

    The test is one comparison of K ints, which costs less than the K x M
    floats that a gather copies.
    """
    if ks.tolist() == list(range(1, len(ks) + 1)):
        return table[: len(ks)]
    return table[ks - 1]


def _sine_evaluator(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    # (k pi) x, not k (pi x): the rounding then matches sin(k * pi * x) row by row; sin and the
    # scaling fill the one table in place, so no second table is alive while it is built
    table = np.outer(ks * np.pi, x)
    np.sin(table, out=table)
    table *= np.sqrt(2.0)
    return table


def analytic_eigensystem(n_max: int = DEFAULT_N_MAX) -> EigenSystem:
    """Closed-form eigensystem of the sample kernel: lam_k = 1/(k pi)^2."""
    ks = np.arange(1, _integer(n_max, "n_max", 1) + 1)
    return EigenSystem(
        eigenvalues=1.0 / (ks * np.pi) ** 2,
        evaluator=_sine_evaluator,
    )


def numeric_eigensystem(kernel: TabulatedKernel, n_max: int) -> EigenSystem:
    """Largest n_max eigenpairs of W^(1/2) K W^(1/2), mapped back to grid functions.

    Eigenfunctions are weight-orthonormalized and sign-fixed so the first
    nonzero grid value is positive.  Evaluated on the grid's own nodes they
    are the read-only eigenvector table's rows (a view of the rows 1..K, a
    gather of any other), exactly the values linear interpolation gives
    there; at any other points they are interpolated linearly, one row at a
    time.
    Raises EigenDecompositionError on non-convergence, on eigenvalues <= 1e-14
    (rank deficiency), and on numerically repeated eigenvalues.

    Solver: ARPACK's Lanczos (scipy's eigsh, from a fixed start vector, so
    deterministic) on a grid of more than DEFAULT_GRID_SIZE points with
    n_max <= npts // 8, numpy's dense eigh otherwise.  Loading scipy.sparse
    costs more than a dense solve of the default grid, so only the Lanczos
    branch imports it, on first use.
    """
    grid = kernel.grid
    npts = grid.size
    n_max = _integer(n_max, "n_max", 1, npts)
    sw = np.sqrt(grid.weights)
    sym = sw[:, None] * kernel.values * sw[None, :]
    failures = (np.linalg.LinAlgError,)  # read by the except clause when an error reaches it
    try:
        if npts > DEFAULT_GRID_SIZE and n_max <= npts // 8:
            import scipy.sparse.linalg

            failures += (scipy.sparse.linalg.ArpackError,)
            vals, vecs = scipy.sparse.linalg.eigsh(sym, k=n_max, which="LA", v0=np.ones(npts))
        else:
            vals, vecs = np.linalg.eigh(sym)
    except failures as exc:
        raise EigenDecompositionError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1][:n_max]
    vals = vals[order]
    vecs = vecs[:, order]
    if np.any(vals <= 1e-14):
        raise EigenDecompositionError(
            f"requested {n_max} eigenpairs but smallest eigenvalue is {vals.min():.3e}"
        )
    rel_gap = np.diff(vals) / vals[:-1]
    if np.any(rel_gap > -1e-9):
        raise EigenDecompositionError("numerically repeated eigenvalues; basis is ambiguous")

    funcs = vecs / sw[:, None]  # quadrature-orthonormal grid functions, column k-1
    for j in range(n_max):
        col = funcs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            funcs[:, j] = -col
    pts = grid.points.copy()
    table = funcs.T.copy()
    table.flags.writeable = False

    def evaluator(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
        if np.array_equal(x, pts):
            # np.interp returns the knot value itself at a knot (signed zeros
            # included), so on the nodes the rows are the table's own
            return _rows(table, ks)
        return np.array([np.interp(x, pts, table[k - 1]) for k in ks]).reshape(len(ks), x.size)

    return EigenSystem(eigenvalues=vals, evaluator=evaluator)


def project_all(f: np.ndarray, es: EigenSystem, grid: QuadratureGrid, upto: int | None = None) -> np.ndarray:
    """Coefficients (f, psi_k) for k = 1..upto in one matrix product."""
    basis = es.basis_matrix(grid.points, upto)
    return basis @ (grid.weights * np.asarray(f, dtype=float))


@functools.cache
def _contraction_rounds_as_loop(contract=np.einsum) -> bool:
    """Whether contract("k,kj->j", values, rows) rounds each product before it adds it, in every lane.

    After a first row of -1.0, the product (1 + 2**-27) * (1 - 2**-27) =
    1 - 2**-54 rounds to 1.0, so the loop gives +0.0; a fused multiply-add
    keeps it exact and gives -2**-54.  Each of the 35 points holds that sum:
    32 fill an unrolled step of four vectors of 2, 4 or 8 doubles, and 3 are
    a tail.
    """
    return not contract("k,kj->j", np.array([1.0, 1.0 + 2.0**-27]), np.array([[-1.0] * 35, [1.0 - 2.0**-27] * 35])).any()


def _expansion_sum(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i values[i] * rows[i] over the rows of a (K, M) array, K >= 0, M >= 2, as the term-by-term loop.

    The loop `out = np.zeros(M); out += values[i] * rows[i]` starts from +0.0,
    rounds each product and adds the products in row order.  numpy's C einsum
    (optimize=False, so never BLAS) does the same in one pass when its kernel
    does not fuse multiply and add: it walks the C-ordered rows with the grid
    axis innermost (a dense mat-vec, or a one-point row, takes a dot kernel
    that sums in another order).  Whether it fuses depends on the numpy build:
    einsum's kernels use the build's baseline SIMD, whose multiply-add is
    fused on aarch64 and on an x86-64-v3 baseline, not on x86-64-v2.  So
    _contraction_rounds_as_loop asks once, on first use, and where einsum fuses
    the sum is the ordered reduce, which multiplies and adds in separate
    ufunc passes and so rounds as the loop on every build.  The rows are
    read, never scaled in place.
    """
    values, terms = np.asarray(values, dtype=float), np.ascontiguousarray(rows, dtype=float)
    if _contraction_rounds_as_loop():
        return np.einsum("k,kj->j", values, terms)
    return np.add.reduce(terms * values[:, None], axis=0, initial=0.0)


def reconstruct(
    coeffs: Sequence[tuple[int, float]], es: EigenSystem, grid: QuadratureGrid
) -> np.ndarray:
    """Sum of coeff_k * psi_k on the grid, term by term in list order; an empty list gives the zero function.

    Each k is an integer (not a bool) and each coefficient a finite real
    number (not a bool or str): a ValueError names any other, and an
    IndexError a k outside 1..es.count.

    The psi_k come from one evaluation of the listed rows on grid.points.  For
    a Nystrom eigensystem built on this grid those are its table's own rows,
    read in place for the indices 1..K; on any other grid its rows are
    interpolated linearly.  The sum rounds as the loop
    `out += coeff_k * psi_k` does (see _expansion_sum).
    """
    ks = np.array([_integer(k, "eigenpair index") for k, _ in coeffs], dtype=int)
    values = np.array([_finite_real(value, "expansion coefficient", signed=True) for _, value in coeffs], dtype=float)
    return _expansion_on(ks, values, es, grid)


def _expansion_on(ks: np.ndarray, values: np.ndarray, es: EigenSystem, grid: QuadratureGrid) -> np.ndarray:
    """reconstruct of the terms values[i] * psi_{ks[i]}, given as an integer and a float array."""
    es._check_index(ks)
    return _expansion_sum(values, es.evaluator(ks, grid.points))
