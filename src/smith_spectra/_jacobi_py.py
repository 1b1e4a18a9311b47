"""The cyclic-Jacobi kernel's convergence loop, and its numpy sweep.

``converge`` is the one convergence loop: the off-diagonal norm, the test
against the caller's threshold and the sweep count, all in numpy. It takes
the function that runs one row-cyclic sweep. Here that is the numpy sweep,
whose rotations each update two rows and two columns with vector
operations; :mod:`smith_spectra._jacobi_c` passes its C sweep to the same
loop, so ``off_norm`` and ``sweeps`` are the same whichever sweep ran.
"""

from __future__ import annotations

from collections.abc import Callable
from math import sqrt

import numpy as np


def _off_diagonal_norm(a: np.ndarray) -> float:
    # summed entry by entry (not as ||A||_F^2 - ||diag||^2, which cancels
    # catastrophically once the matrix is nearly diagonal)
    squares = a * a
    np.fill_diagonal(squares, 0.0)
    return float(np.sqrt(np.sum(squares)))


def converge(a: np.ndarray, threshold: float, max_sweeps: int,
             sweep: Callable[[np.ndarray], None]) -> tuple[int, float]:
    """Run ``sweep`` on ``a`` in place until its off-diagonal norm is at
    most ``threshold``, at most ``max_sweeps`` times; returns
    (sweeps_used, off_norm)."""
    n = a.shape[0]
    off = _off_diagonal_norm(a)
    if n < 2 or off <= threshold:
        return 0, off
    for used in range(1, max_sweeps + 1):
        sweep(a)
        off = _off_diagonal_norm(a)
        if off <= threshold:
            return used, off
    return max_sweeps, off


def _sweep(a: np.ndarray) -> None:
    """One row-cyclic sweep of rotations over ``a``, in place."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            app = a[p, p]
            aqq = a[q, q]
            tau = (aqq - app) / (2.0 * apq)
            # the C sweep's root, guarded where tau^2 would overflow
            root = sqrt(1.0 + tau * tau) if abs(tau) < 2.0 ** 500 else abs(tau)
            t = 1.0 / (tau + root if tau >= 0.0 else tau - root)
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            new_p = c * row_p - s * row_q
            new_q = s * row_p + c * row_q
            a[p, :] = new_p
            a[:, p] = new_p
            a[q, :] = new_q
            a[:, q] = new_q
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = a[q, p] = 0.0


def cyclic_jacobi(a: np.ndarray, threshold: float, max_sweeps: int) -> tuple[int, float]:
    """Run row-cyclic Jacobi sweeps in place; returns (sweeps_used, off_norm)."""
    return converge(a, threshold, max_sweeps, _sweep)
