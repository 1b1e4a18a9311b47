"""Pure-Python (numpy) fallback for the cyclic-Jacobi sweep kernel.

Same rotation order and formulas as the compiled kernel in ``_jacobi.pyx``;
rows and columns are updated with vector operations instead of an inner C
loop, so it is typically 30-80x slower but needs no compiler.
"""

from __future__ import annotations

from math import hypot, sqrt

import numpy as np


def _frobenius_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def _off_diagonal_norm(a: np.ndarray) -> float:
    # summed entry by entry (not as ||A||_F^2 - ||diag||^2, which cancels
    # catastrophically once the matrix is nearly diagonal)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt(np.sum(off * off)))


def cyclic_jacobi(a: np.ndarray, tol: float, max_sweeps: int) -> tuple[int, float]:
    """Run row-cyclic Jacobi sweeps in place; returns (sweeps_used, off_norm)."""
    n = a.shape[0]
    threshold = tol * _frobenius_norm(a)
    off = _off_diagonal_norm(a)
    if n < 2 or off <= threshold:
        return 0, off

    for sweep in range(1, max_sweeps + 1):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + hypot(1.0, tau))
                else:
                    t = 1.0 / (tau - hypot(1.0, tau))
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
        off = _off_diagonal_norm(a)
        if off <= threshold:
            return sweep, off
    return max_sweeps, off
