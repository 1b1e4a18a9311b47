"""The cyclic-Jacobi kernel's convergence loops, and its numpy sweeps.

``converge`` and ``converge_stack`` are the one convergence loop for a
matrix and for a stack: the Frobenius and off-diagonal norms, the
threshold test and the sweep count, all in numpy. Each takes the function
that runs one row-cyclic sweep. Here that is the numpy sweep, whose
rotations each update two rows and two columns with vector operations;
:mod:`smith_spectra._jacobi_c` passes its C sweep to the same loops, so
``off_norm`` and ``sweeps`` are the same whichever sweep ran.

``cyclic_jacobi_stack`` runs the sweeps over a stack of equal-order
matrices at once, one vector operation per rotation for the whole stack,
with every slice bit-identical to ``cyclic_jacobi`` on that slice.
"""

from __future__ import annotations

from collections.abc import Callable
from math import hypot, sqrt

import numpy as np

# math.hypot, not np.hypot: the two differ in the last bit on some inputs,
# and the stack kernel must round exactly as cyclic_jacobi does
_hypot = np.frompyfunc(hypot, 2, 1)


def _frobenius_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def _off_diagonal_norm(a: np.ndarray) -> float:
    # summed entry by entry (not as ||A||_F^2 - ||diag||^2, which cancels
    # catastrophically once the matrix is nearly diagonal)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt(np.sum(off * off)))


def converge(a: np.ndarray, tol: float, max_sweeps: int,
             sweep: Callable[[np.ndarray], None]) -> tuple[int, float]:
    """Run ``sweep`` on ``a`` in place until its off-diagonal norm meets
    ``tol * ||A||_F``, at most ``max_sweeps`` times; returns
    (sweeps_used, off_norm)."""
    n = a.shape[0]
    threshold = tol * _frobenius_norm(a)
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


def cyclic_jacobi(a: np.ndarray, tol: float, max_sweeps: int) -> tuple[int, float]:
    """Run row-cyclic Jacobi sweeps in place; returns (sweeps_used, off_norm)."""
    return converge(a, tol, max_sweeps, _sweep)


def _frobenius_norms(w: np.ndarray) -> np.ndarray:
    """_frobenius_norm of every slice of a C-contiguous (B, n, n) stack, bit
    for bit: a slice's n*n entries are summed in the same order either way."""
    return np.sqrt((w * w).sum(axis=(1, 2)))


def _off_diagonal_norms(w: np.ndarray) -> np.ndarray:
    """_off_diagonal_norm of every slice, bit for bit."""
    off = w.copy()
    diag = np.arange(w.shape[1])
    off[:, diag, diag] = 0.0
    return np.sqrt((off * off).sum(axis=(1, 2)))


def _rotate_stack(w: np.ndarray, p: int, q: int) -> None:
    """One (p, q) rotation of cyclic_jacobi on every slice of w whose
    a_pq is not zero; the other slices are left as they are."""
    nonzero = w[:, p, q] != 0.0
    if not nonzero.any():
        return
    rows = slice(None) if nonzero.all() else np.flatnonzero(nonzero)
    # copies: the row and column writes below overwrite views of these
    apq = w[rows, p, q].copy()
    app = w[rows, p, p].copy()
    aqq = w[rows, q, q].copy()
    tau = (aqq - app) / (2.0 * apq)
    root = _hypot(1.0, tau).astype(np.float64)
    t = 1.0 / np.where(tau >= 0.0, tau + root, tau - root)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    row_p = w[rows, p, :].copy()
    row_q = w[rows, q, :].copy()
    c, s = c[:, None], s[:, None]
    new_p = c * row_p - s * row_q
    new_q = s * row_p + c * row_q
    w[rows, p, :] = new_p
    w[rows, :, p] = new_p
    w[rows, q, :] = new_q
    w[rows, :, q] = new_q
    w[rows, p, p] = app - t * apq
    w[rows, q, q] = aqq + t * apq
    w[rows, p, q] = 0.0
    w[rows, q, p] = 0.0


def _sweep_stack(w: np.ndarray) -> None:
    """One sweep of cyclic_jacobi over every slice of w, in place."""
    n = w.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            _rotate_stack(w, p, q)


def converge_stack(a: np.ndarray, tol: float, max_sweeps: int,
                   sweep_stack: Callable[[np.ndarray], None]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """converge on every slice of the C-contiguous (B, n, n) stack ``a``
    in place, with ``sweep_stack`` running one sweep over every slice of
    a C-contiguous stack; returns (sweeps_used[B], off_norm[B]).

    A slice stops rotating once its own off-diagonal norm has met its own
    threshold, so each slice ends bit-identical to converge on it.
    """
    count, n = a.shape[0], a.shape[1]
    off = _off_diagonal_norms(a)
    sweeps = np.zeros(count, dtype=np.int64)
    if n < 2:
        return sweeps, off
    threshold = tol * _frobenius_norms(a)
    running = np.flatnonzero(~(off <= threshold))
    work, limit = a[running], threshold[running]
    for sweep in range(1, max_sweeps + 1):
        if running.size == 0:
            break
        sweep_stack(work)
        work_off = _off_diagonal_norms(work)
        off[running] = work_off
        sweeps[running] = sweep
        done = work_off <= limit
        if done.any():
            a[running[done]] = work[done]
            keep = ~done
            running, work, limit = running[keep], work[keep], limit[keep]
    a[running] = work
    return sweeps, off


def cyclic_jacobi_stack(a: np.ndarray, tol: float,
                        max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run cyclic_jacobi on every slice of the C-contiguous (B, n, n) stack
    ``a`` in place; returns (sweeps_used[B], off_norm[B])."""
    return converge_stack(a, tol, max_sweeps, _sweep_stack)
