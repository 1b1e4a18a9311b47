"""Symmetric eigensolver.

The solver is a self-contained cyclic Jacobi iteration. Its convergence
loop is :mod:`smith_spectra._jacobi_py`'s, in numpy; the rotations of
each sweep run in C (backend ``"c"``, :mod:`smith_spectra._jacobi_c`,
compiled on first import) where a C compiler is found, and in numpy
(backend ``"python"``) otherwise. Both give bit-identical results, and
nothing selects between them: :func:`default_backend` names the one that
runs.
There is one tolerance, :data:`DEFAULT_TOL`, and one sweep cap,
:data:`DEFAULT_MAX_SWEEPS`, and no caller sets either;
:attr:`Spectrum.off_norm` reports the residual reached. This solver is the
ground truth every bound in :mod:`smith_spectra.bounds` is validated
against, which is why it does not delegate to an external eigensolver.
The trace statistics those bounds read live in that module, not here.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from math import isfinite

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
    sweeps: int
    off_norm: float

    @property
    def min(self) -> float:
        return self.eigenvalues[0]

    @property
    def max(self) -> float:
        return self.eigenvalues[-1]


def _as_array(a: SymMatrix | np.ndarray) -> tuple[np.ndarray, float]:
    """A private C-ordered float64 copy of the matrix, and its Frobenius norm."""
    entries = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=np.float64)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    work = np.array(entries, dtype=np.float64, order="C", copy=True)
    # the norm scales the convergence target, so every matrix needs it; the
    # two checks below only a raw array can fail, as a SymMatrix is checked
    # finite and symmetric when it is built and its leading blocks inherit that
    fro = _frobenius_norm(work)
    if not isfinite(fro):
        raise ValueError(
            "matrix is out of float range: an entry or the sum of the squared "
            "entries is not finite")
    if not isinstance(a, SymMatrix) and not np.array_equal(work, work.T):
        raise ValueError("matrix is not symmetric")
    return work, fro


def jacobi_eigenvalues(a: SymMatrix | np.ndarray) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Converged when the off-diagonal Frobenius norm falls below
    ``DEFAULT_TOL * ||A||_F``; raises :class:`JacobiConvergenceError` if
    :data:`DEFAULT_MAX_SWEEPS` sweeps are reached first.
    """
    work, fro = _as_array(a)
    target = DEFAULT_TOL * fro
    sweeps, off = _kernel.cyclic_jacobi(work, target, DEFAULT_MAX_SWEEPS)
    if off > target:
        raise JacobiConvergenceError(sweeps, off, target)
    values = np.sort(np.diagonal(work))
    return Spectrum(tuple(float(v) for v in values), sweeps, off)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # where the platform has no affinity call


def jacobi_spectra(matrices: Sequence[SymMatrix | np.ndarray]) -> list[Spectrum]:
    """``[jacobi_eigenvalues(m) for m in matrices]``, with the solves spread
    over one thread per CPU this process may run on.

    The results are in input order and equal the sequential loop's in every
    field. A solve that raises makes this raise the same exception, the
    first in input order.
    """
    # imported here: at module level its logging import would slow every start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, min(_cpus(), len(matrices)))) as pool:
        # the module's name, looked up now, so that a wrapped solver sees each solve
        return list(pool.map(jacobi_eigenvalues, matrices))
