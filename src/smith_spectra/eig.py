"""Symmetric eigensolver and trace statistics.

The solver is a self-contained cyclic Jacobi iteration. Its convergence
loop is :mod:`smith_spectra._jacobi_py`'s, in numpy; the rotations of
each sweep run in C (backend ``"c"``, :mod:`smith_spectra._jacobi_c`,
compiled on first import) where a C compiler is found, and in numpy
(backend ``"python"``) otherwise. Both give bit-identical results, and
nothing selects between them: :func:`default_backend` names the one that
runs.
The tolerance lives here only: ``jacobi_eigenvalues`` and
``jacobi_eigenvalues_stack`` take ``tol`` (default :data:`DEFAULT_TOL`)
and validate it, every caller above this module uses the default, and
:attr:`Spectrum.off_norm` reports the residual reached. This solver is the
ground truth every bound in :mod:`smith_spectra.bounds` is validated
against, which is why it does not delegate to an external eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, sqrt

import numpy as np

from smith_spectra.matrices import SymMatrix, _frobenius_norm
from smith_spectra import _jacobi_c, _jacobi_py

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 100


# the kernel module the solvers call, looked up at call time
_kernel = _jacobi_c if _jacobi_c.LIBRARY is not None else _jacobi_py


def available_backends() -> dict[str, object]:
    """Kernel modules keyed by backend name: the C sweep where it was
    built, and the numpy kernel."""
    if _jacobi_c.LIBRARY is None:
        return {"python": _jacobi_py}
    return {"c": _jacobi_c, "python": _jacobi_py}


def default_backend() -> str:
    """The name of the kernel that the solvers run."""
    return "c" if _kernel is _jacobi_c else "python"


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep cap is hit with the residual still above target."""

    def __init__(self, sweeps: int, residual: float, target: float):
        super().__init__(
            f"Jacobi iteration did not converge in {sweeps} sweeps: "
            f"off-diagonal norm {residual:.3e} > target {target:.3e}"
        )
        self.sweeps = sweeps
        self.residual = residual
        self.target = target


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, with solver diagnostics."""

    eigenvalues: tuple[float, ...]
    solver_tolerance: float
    sweeps: int
    off_norm: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def min(self) -> float:
        return self.eigenvalues[0]

    @property
    def max(self) -> float:
        return self.eigenvalues[-1]


@dataclass(frozen=True)
class SpectralSummary:
    """Trace statistics m = tr(A)/n and s^2 = tr(A^2)/n - m^2.

    Exact rationals for integer matrices; floats (``exact=False``) for
    real-exponent families.
    """

    n: int
    m: Fraction | float
    s_squared: Fraction | float
    exact: bool

    def __post_init__(self):
        if self.s_squared < 0:
            raise ValueError(f"negative spectral variance {self.s_squared}")

    @property
    def s(self) -> float:
        return sqrt(float(self.s_squared))


def _as_array(a: SymMatrix | np.ndarray) -> tuple[np.ndarray, float]:
    """A private C-ordered float64 copy of the matrix, and its Frobenius norm."""
    entries = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=np.float64)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    work = np.array(entries, dtype=np.float64, order="C", copy=True)
    fro = _frobenius_norm(work)
    # only a raw array can fail this: a SymMatrix is checked when it is built
    if not isfinite(fro):
        raise ValueError(
            "matrix is out of float range: an entry or the sum of the squared "
            "entries is not finite")
    if not np.array_equal(work, work.T):
        raise ValueError("matrix is not symmetric")
    return work, fro


def _check_tolerance(tol: float) -> None:
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")


def jacobi_eigenvalues(
    a: SymMatrix | np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Converged when the off-diagonal Frobenius norm falls below
    ``tol * ||A||_F``; raises :class:`JacobiConvergenceError` if the sweep
    cap is reached first.
    """
    _check_tolerance(tol)
    work, fro = _as_array(a)
    sweeps, off = _kernel.cyclic_jacobi(work, tol, max_sweeps)
    if off > tol * fro:
        raise JacobiConvergenceError(sweeps, off, tol * fro)
    values = np.sort(np.diagonal(work))
    return Spectrum(tuple(float(v) for v in values), tol, sweeps, off)


def jacobi_eigenvalues_stack(
    stack: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> np.ndarray:
    """Sorted eigenvalues of every matrix of a (B, n, n) stack, as a (B, n)
    array, by the kernel's cyclic Jacobi run on the whole stack.

    Row i equals ``jacobi_eigenvalues(stack[i], tol,
    max_sweeps).eigenvalues`` bit for bit, and the same checks apply to
    each matrix; :class:`JacobiConvergenceError` names the lowest-index
    matrix that did not converge.
    """
    _check_tolerance(tol)
    work = np.array(stack, dtype=np.float64, order="C", copy=True)
    if work.ndim != 3 or work.shape[1] != work.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {work.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        fro = _jacobi_py._frobenius_norms(work)
    bad = np.flatnonzero(~np.isfinite(fro))
    if bad.size:
        raise ValueError(
            f"matrix {bad[0]} of the stack is out of float range: an entry or "
            f"the sum of the squared entries is not finite")
    bad = np.flatnonzero(~(work == work.transpose(0, 2, 1)).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"matrix {bad[0]} of the stack is not symmetric")
    sweeps, off = _kernel.cyclic_jacobi_stack(work, tol, max_sweeps)
    target = tol * fro
    failed = np.flatnonzero(off > target)
    if failed.size:
        i = failed[0]
        raise JacobiConvergenceError(int(sweeps[i]), float(off[i]), float(target[i]))
    return np.sort(np.diagonal(work, axis1=1, axis2=2), axis=1)


def spectral_summary(a: SymMatrix) -> SpectralSummary:
    """m and s^2 from the matrix traces: tr(A) and tr(A^2) = sum a_ij^2."""
    n = a.order
    if a.exact is not None:
        trace = sum(a.exact[i][i] for i in range(n))
        trace_sq = sum(v * v for row in a.exact for v in row)
        m = Fraction(trace, n)
        return SpectralSummary(n, m, Fraction(trace_sq, n) - m * m, exact=True)
    m = float(np.trace(a.entries)) / n
    s_squared = float(np.sum(a.entries * a.entries)) / n - m * m
    return SpectralSummary(n, m, max(s_squared, 0.0), exact=False)
