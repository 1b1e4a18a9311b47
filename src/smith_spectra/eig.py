"""Symmetric eigensolver, trace statistics and inertia.

The solver is a self-contained cyclic Jacobi iteration: the compiled kernel
is used when the extension built, otherwise the numpy fallback. Both share
one contract, so results differ only in rounding. This solver is the
ground truth every bound in :mod:`smith_spectra.bounds` is validated
against, which is why it does not delegate to an external eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, sqrt

import numpy as np

from smith_spectra.matrices import SymMatrix, _frobenius_norm
from smith_spectra import _jacobi_py

try:
    from smith_spectra import _jacobi  # compiled extension, may be absent

    _DEFAULT = "compiled"
except ImportError:  # pragma: no cover - depends on build environment
    _jacobi = None
    _DEFAULT = "python"

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 100


def available_backends() -> dict[str, object]:
    """Kernel modules keyed by backend name ('compiled' first when built)."""
    out: dict[str, object] = {}
    if _jacobi is not None:
        out["compiled"] = _jacobi
    out["python"] = _jacobi_py
    return out


def default_backend() -> str:
    return _DEFAULT


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


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / near-zero eigenvalues."""

    positive: int
    negative: int
    zero: int
    zero_tolerance: float


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


def jacobi_eigenvalues(
    a: SymMatrix | np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    backend: str | None = None,
) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Converged when the off-diagonal Frobenius norm falls below
    ``tol * ||A||_F``; raises :class:`JacobiConvergenceError` if the sweep
    cap is reached first.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    work, fro = _as_array(a)
    kernels = available_backends()
    name = backend or _DEFAULT
    if name not in kernels:
        raise ValueError(f"unknown backend {name!r}; built: {sorted(kernels)}")
    sweeps, off = kernels[name].cyclic_jacobi(work, tol, max_sweeps)
    if off > tol * fro:
        raise JacobiConvergenceError(sweeps, off, tol * fro)
    values = np.sort(np.diagonal(work))
    return Spectrum(tuple(float(v) for v in values), tol, sweeps, off)


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


def inertia(spectrum: Spectrum, zero_tol: float | None = None) -> Inertia:
    """Classify eigenvalues against +-zero_tol.

    Default tolerance is 1e-9 * ||A||_F, recovered from the spectrum since
    the Frobenius norm is the root of the eigenvalue square sum.
    """
    if zero_tol is None:
        zero_tol = 1e-9 * sqrt(sum(v * v for v in spectrum.eigenvalues))
    if not (isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError(f"zero tolerance must be finite and >= 0, got {zero_tol}")
    pos = sum(1 for v in spectrum.eigenvalues if v > zero_tol)
    neg = sum(1 for v in spectrum.eigenvalues if v < -zero_tol)
    return Inertia(pos, neg, spectrum.n - pos - neg, zero_tol)
