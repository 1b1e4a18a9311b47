"""Verification suites: every library invariant, swept over a range of n.

Exact checks compare closed forms against brute-force oracles as integer or
rational equalities. Spectral checks validate the solver output and every
bound family against it. Each check yields one result per (check, n), so a
failure pinpoints the exact instance; violations are reported, never
silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from smith_spectra import arith
from smith_spectra.bounds import (
    closed_form_summary,
    gcd_bounds,
    lcm_bounds,
    mh_interval,
    ws_bounds,
)
from smith_spectra.eig import Spectrum, jacobi_eigenvalues, spectral_summary
from smith_spectra.matrices import IntegerSet, gcd_matrix, lcm_matrix

INTERLACING_CAP = 60
MH_CAP = 60
DETERMINANT_CAP = 25


@dataclass(frozen=True)
class CheckResult:
    check: str
    n: int
    ok: bool
    observed: str = ""

    def __post_init__(self):
        # numpy comparisons leak np.bool_; keep the field a plain bool
        object.__setattr__(self, "ok", bool(self.ok))


def failures(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.ok]


def run_checks(
    n_max: int,
    exact_only: bool = False,
    tol: float = 1e-12,
) -> list[CheckResult]:
    """Run every suite up to n_max (per-check caps still apply)."""
    if n_max < 2:
        raise ValueError(f"verification needs n_max >= 2, got {n_max}")
    results = _exact_checks(n_max)
    if not exact_only:
        results += _spectral_checks(n_max, tol)
    return results


# ---------------------------------------------------------------------------
# exact identities


def _exact_checks(n_max: int) -> list[CheckResult]:
    out: list[CheckResult] = []

    gcd_rows = arith.gcd_square_row_sum(n_max)
    for i in range(1, n_max + 1):
        direct = sum(gcd(i, j) ** 2 for j in range(1, i + 1))
        out.append(CheckResult(
            "gcd_rowsum_oracle", i, gcd_rows[i] == direct,
            "" if gcd_rows[i] == direct else f"{gcd_rows[i]} != {direct}"))

    lcm_rows = arith.lcm_square_row_sum(n_max)
    for i in range(1, n_max + 1):
        direct = sum(lcm(i, j) ** 2 for j in range(1, i + 1))
        out.append(CheckResult(
            "lcm_rowsum_oracle", i, lcm_rows[i] == direct,
            "" if lcm_rows[i] == direct else f"{lcm_rows[i]} != {direct}"))

    for t in range(1, n_max + 1):
        closed = arith.coprime_square_sum(t)
        direct = sum(k * k for k in range(1, t + 1) if gcd(k, t) == 1)
        out.append(CheckResult(
            "coprime_square_sum_oracle", t, closed == direct,
            "" if closed == direct else f"{closed} != {direct}"))

    # Moebius inversion round trip for phi and N^2
    mu = arith.sieve_mobius(n_max)
    zeta = arith.zeta_table(n_max)
    for table in (arith.sieve_totient(n_max), arith.power_table(n_max, 2)):
        back = arith.dirichlet_convolve(arith.dirichlet_convolve(table, mu), zeta)
        ok = back.to_list() == table.to_list()
        out.append(CheckResult(f"mobius_inversion[{table.label}]", n_max, ok))

    conv = arith.dirichlet_convolve(arith.sieve_totient(n_max), zeta)
    ok = conv.to_list() == list(range(1, n_max + 1))
    out.append(CheckResult("totient_zeta_is_identity_map", n_max, ok))

    # trace statistics vs the direct double sums, accumulated incrementally
    tr2_gcd = tr2_lcm = 0
    for n in range(1, n_max + 1):
        tr2_gcd += 2 * sum(gcd(n, j) ** 2 for j in range(1, n)) + n * n
        tr2_lcm += 2 * sum(lcm(n, j) ** 2 for j in range(1, n)) + n * n
        if n < 2:
            continue
        m = Fraction(n + 1, 2)
        for name, closed, tr2 in (
            ("s_squared_gcd_exact", arith.s_squared_gcd(n), tr2_gcd),
            ("s_squared_lcm_exact", arith.s_squared_lcm(n), tr2_lcm),
        ):
            direct = Fraction(tr2, n) - m * m
            out.append(CheckResult(
                name, n, closed == direct,
                "" if closed == direct else f"{closed} != {direct}"))
            out.append(CheckResult(name.replace("_exact", "_positive"), n, closed > 0,
                                   "" if closed > 0 else f"{closed} <= 0"))
    return out


# ---------------------------------------------------------------------------
# spectral checks


def _spectral_checks(n_max: int, tol: float) -> list[CheckResult]:
    out: list[CheckResult] = []

    # small-order gaps feeding the cross-term inequalities
    gap3 = None
    gap4 = None

    prev: dict[str, Spectrum] = {}
    for n in range(2, n_max + 1):
        for family, build in (("gcd", gcd_matrix), ("lcm", lcm_matrix)):
            matrix = build(IntegerSet.first_n(n))
            spec = jacobi_eigenvalues(matrix, tol=tol)
            scale = float(np.max(np.abs(matrix.entries)))

            if family == "gcd":
                out.append(CheckResult(
                    "gcd_positive_definite", n, spec.min > 0,
                    "" if spec.min > 0 else f"min eigenvalue {spec.min:.3e}"))
            else:
                ok = spec.min < 0 < spec.max
                out.append(CheckResult(
                    "lcm_indefinite", n, ok,
                    "" if ok else f"extremes {spec.min:.3e}, {spec.max:.3e}"))

            trace_err = abs(sum(spec.eigenvalues) - np.trace(matrix.entries))
            sq_err = abs(sum(v * v for v in spec.eigenvalues) - np.sum(matrix.entries**2))
            ok = trace_err <= 1e-8 * n * scale and sq_err <= 1e-8 * n * scale * scale
            out.append(CheckResult(
                f"trace_consistency[{family}]", n, ok,
                "" if ok else f"trace err {trace_err:.3e}, square err {sq_err:.3e}"))

            diag = matrix.diagonal()
            slack = 1e-9 * scale
            ok = spec.min <= diag.min() + slack and spec.max >= diag.max() - slack
            out.append(CheckResult(f"diagonal_bracketing[{family}]", n, ok))

            off = matrix.entries - np.diag(diag)
            ok = spec.max - spec.min >= 2 * np.max(np.abs(off)) - slack
            out.append(CheckResult(f"spread_bound[{family}]", n, ok))

            # closed forms and the improved bracket, once per (n, family)
            closed = closed_form_summary(n, family)
            improved = None
            if n >= 3:
                improved = gcd_bounds(n) if family == "gcd" else lcm_bounds(n)

            ws_traces = ws_bounds(spectral_summary(matrix), family)
            ws_closed = ws_bounds(closed, family)
            out.append(CheckResult(
                f"ws_consistency[{family}]", n, ws_traces == ws_closed,
                "" if ws_traces == ws_closed else "pipelines disagree"))

            if n == 2:
                eq = (abs(ws_traces.lambda_min_lower - spec.min) <= 1e-9 * scale
                      and abs(ws_traces.lambda_max_upper - spec.max) <= 1e-9 * scale)
                out.append(CheckResult(f"ws_equality_at_2[{family}]", n, eq))

            # interlacing against the previous order, whose matrix is the
            # leading principal submatrix of this one
            if n <= INTERLACING_CAP and family in prev:
                lam, mu_ = spec.eigenvalues, prev[family].eigenvalues
                slk = 1e-9 * max(abs(v) for v in lam)
                ok = all(
                    lam[k] <= mu_[k] + slk and mu_[k] <= lam[k + 1] + slk
                    for k in range(n - 1)
                )
                out.append(CheckResult(f"cauchy_interlacing[{family}]", n, ok))
            prev[family] = spec

            if family == "gcd":
                if n == 3:
                    gap3 = spec.eigenvalues[1] - spec.eigenvalues[0]
                if n <= DETERMINANT_CAP:
                    det = float(np.prod(spec.eigenvalues))
                    expected = arith.smith_determinant(n)
                    ok = abs(det - expected) <= 1e-6 * abs(expected)
                    out.append(CheckResult(
                        "smith_determinant_eigenproduct", n, ok,
                        "" if ok else f"{det:.6e} vs {expected}"))
                if n <= MH_CAP:
                    lo, hi = mh_interval(n, 1, 0, tol=tol)
                    # closed interval; at n = 2 the gcd matrix IS the
                    # divisibility Gram matrix, so the upper endpoint is hit
                    ok = lo - slack <= spec.min and spec.max <= hi + slack
                    out.append(CheckResult("mh_contains_gcd_spectrum", n, ok))
                    if improved is not None:
                        ok = lo < improved.lambda_min_lower and improved.lambda_max_upper < hi
                        out.append(CheckResult("mh_dominates_gcd_bracket", n, ok))

            if improved is None:
                out.append(CheckResult(
                    f"improved_{family}_bracket", n, True, "skipped: needs n >= 3"))
            else:
                rep = improved.with_actual(spec)
                ok = rep.brackets_actual()
                out.append(CheckResult(
                    f"improved_{family}_bracket", n, ok,
                    "" if ok else
                    f"extremes ({rep.actual_min:.6g}, {rep.actual_max:.6g}) vs brackets "
                    f"({rep.lambda_min_lower:.6g}, {rep.lambda_min_upper:.6g}) / "
                    f"({rep.lambda_max_lower:.6g}, {rep.lambda_max_upper:.6g})"))

                s2 = closed.s_squared
                if family == "gcd":
                    gain = (n * s2 + 2 * (n - 1)) / Fraction(n * n - n) - s2 / (n - 1)
                    ok = gain == Fraction(2, n)
                else:
                    gain = (s2 + 32 * (n - 1)) / Fraction(n - 1) - s2 / (n - 1)
                    ok = gain == 32
                out.append(CheckResult(
                    f"{family}_radicand_gain", n, ok, "" if ok else f"gain {gain}"))

            if family == "gcd" and n >= 3:
                ok = spec.max - spec.min > n - 1
                if gap3 is not None and n > 3:
                    ok = ok and spec.eigenvalues[-2] - spec.min > gap3
                out.append(CheckResult("cross_term_gcd", n, ok))
            if family == "lcm":
                ok = spec.max - spec.min > 2 * n * (n - 1)
                if n == 4:
                    gap4 = spec.eigenvalues[2] - spec.eigenvalues[0]
                if gap4 is not None and n > 4:
                    ok = ok and spec.eigenvalues[-2] - spec.min > gap4
                out.append(CheckResult("cross_term_lcm", n, ok))
    return out
