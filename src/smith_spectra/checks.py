"""Verification suites: every library invariant, swept over a range of n.

Exact checks compare closed forms against brute-force oracles as integer or
rational equalities. One brute-force pass, one gcd per pair j <= i, feeds
every exact oracle: the gcd, lcm and coprime square sums per row, and the
tr(A^2) sums behind s^2. Spectral checks test the solver output and every
bound family against it. They build the gcd, lcm and divisibility Gram
matrices once, at the largest order, take each smaller order as its leading
principal block (:meth:`SymMatrix.leading`) and solve every block in one batch
(:func:`smith_spectra.eig.jacobi_spectra`). Each (n, family) then gets one
read-only :class:`_Context`, and the table :data:`_CHECKS` runs one function
per check over it, in output order. A check returns one :class:`CheckResult`,
or None where it does not apply at that (n, family), so a failure pinpoints
the exact instance and nothing is silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from smith_spectra import arith
from smith_spectra.bounds import (BoundsReport, closed_form_summary, improved_bounds,
                                  inner_radicand, mh_interval, ws_bounds)
from smith_spectra.eig import Spectrum, SpectralSummary, jacobi_spectra, spectral_summary
from smith_spectra.matrices import (IntegerSet, SymMatrix, divisibility_gram, gcd_matrix,
                                    lcm_matrix)

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


def run_checks(n_max: int, exact_only: bool = False) -> list[CheckResult]:
    """Run every suite up to n_max (per-check caps still apply)."""
    if n_max < 2:
        raise ValueError(f"verification needs n_max >= 2, got {n_max}")
    results = _exact_checks(n_max)
    if not exact_only:
        results += _spectral_checks(n_max)
    return results


def _exact_checks(n_max: int) -> list[CheckResult]:
    # the brute-force references, one gcd per pair j <= i: the row sums of
    # gcd(i, j)^2 and lcm(i, j)^2, and the sum of j^2 over j coprime to i
    gcd_rows, lcm_rows, coprime_rows = [0], [0], [0]
    for i in range(1, n_max + 1):
        row = [gcd(i, j) for j in range(1, i + 1)]
        gcd_rows.append(sum(g * g for g in row))
        lcm_rows.append(sum((i * j // g) ** 2 for j, g in enumerate(row, 1)))
        coprime_rows.append(sum(j * j for j, g in enumerate(row, 1) if g == 1))

    out: list[CheckResult] = []
    for name, table, direct in (
        ("gcd_rowsum_oracle", arith.gcd_square_row_sum(n_max), gcd_rows),
        ("lcm_rowsum_oracle", arith.lcm_square_row_sum(n_max), lcm_rows),
        ("coprime_square_sum_oracle", arith.coprime_square_sum_table(n_max), coprime_rows),
    ):
        out += [_equality(name, i, table[i], direct[i]) for i in range(1, n_max + 1)]

    # Moebius inversion round trip for phi and N^2
    mu, zeta = arith.sieve_mobius(n_max), arith.zeta_table(n_max)
    for table in (arith.sieve_totient(n_max), arith.power_table(n_max, 2)):
        back = arith.dirichlet_convolve(arith.dirichlet_convolve(table, mu), zeta)
        ok = back.to_list() == table.to_list()
        out.append(CheckResult(f"mobius_inversion[{table.label}]", n_max, ok))

    conv = arith.dirichlet_convolve(arith.sieve_totient(n_max), zeta)
    ok = conv.to_list() == list(range(1, n_max + 1))
    out.append(CheckResult("totient_zeta_is_identity_map", n_max, ok))

    # trace statistics vs tr(A^2) on {1..n} = sum_{i<=n} (2 r_i - i^2), r_i a row sum
    tr2_gcd = tr2_lcm = 0
    for n in range(1, n_max + 1):
        tr2_gcd += 2 * gcd_rows[n] - n * n
        tr2_lcm += 2 * lcm_rows[n] - n * n
        if n < 2:
            continue
        m = Fraction(n + 1, 2)
        for name, closed, tr2 in (("s_squared_gcd", arith.s_squared_gcd(n), tr2_gcd),
                                  ("s_squared_lcm", arith.s_squared_lcm(n), tr2_lcm)):
            out.append(_equality(f"{name}_exact", n, closed, Fraction(tr2, n) - m * m))
            out.append(CheckResult(f"{name}_positive", n, closed > 0,
                                   "" if closed > 0 else f"{closed} <= 0"))
    return out


def _equality(check: str, n: int, closed, direct) -> CheckResult:
    ok = closed == direct
    return CheckResult(check, n, ok, "" if ok else f"{closed} != {direct}")


@dataclass(frozen=True)
class _Context:
    """What every spectral check reads at one (n, family). ``prev`` is the
    order n - 1 spectrum, whose matrix is the leading block of this one;
    ``base`` the cross-term base (gcd order 3, lcm order 4) once n exceeds
    it; ``mh`` the Mattila-Haukkanen interval (gcd, n <= MH_CAP)."""

    n: int
    family: str
    matrix: SymMatrix
    spec: Spectrum
    prev: Spectrum | None
    base: Spectrum | None
    closed: SpectralSummary
    improved: BoundsReport | None
    mh: tuple[float, float] | None
    scale: float

    @property
    def slack(self) -> float:
        return 1e-9 * self.scale


def _definiteness(c: _Context) -> CheckResult:
    lo, hi = c.spec.min, c.spec.max
    if c.family == "gcd":
        return CheckResult("gcd_positive_definite", c.n, lo > 0,
                           "" if lo > 0 else f"min eigenvalue {lo:.3e}")
    ok = lo < 0 < hi
    return CheckResult("lcm_indefinite", c.n, ok, "" if ok else f"extremes {lo:.3e}, {hi:.3e}")

def _trace_consistency(c: _Context) -> CheckResult:
    n, scale, values, entries = c.n, c.scale, c.spec.eigenvalues, c.matrix.entries
    trace_err = abs(sum(values) - np.trace(entries))
    sq_err = abs(sum(v * v for v in values) - np.sum(entries**2))
    ok = trace_err <= 1e-8 * n * scale and sq_err <= 1e-8 * n * scale * scale
    return CheckResult(f"trace_consistency[{c.family}]", n, ok,
                       "" if ok else f"trace err {trace_err:.3e}, square err {sq_err:.3e}")

def _diagonal_bracketing(c: _Context) -> CheckResult:
    diag = c.matrix.diagonal()
    ok = c.spec.min <= diag.min() + c.slack and c.spec.max >= diag.max() - c.slack
    return CheckResult(f"diagonal_bracketing[{c.family}]", c.n, ok)

def _spread_bound(c: _Context) -> CheckResult:
    off = c.matrix.entries - np.diag(c.matrix.diagonal())
    ok = c.spec.max - c.spec.min >= 2 * np.max(np.abs(off)) - c.slack
    return CheckResult(f"spread_bound[{c.family}]", c.n, ok)

def _ws_consistency(c: _Context) -> CheckResult:
    ok = ws_bounds(spectral_summary(c.matrix), c.family) == ws_bounds(c.closed, c.family)
    return CheckResult(f"ws_consistency[{c.family}]", c.n, ok, "" if ok else "pipelines disagree")

def _ws_equality_at_2(c: _Context) -> CheckResult | None:
    if c.n != 2:
        return None
    ws = ws_bounds(spectral_summary(c.matrix), c.family)
    ok = (abs(ws.lambda_min_lower - c.spec.min) <= c.slack
          and abs(ws.lambda_max_upper - c.spec.max) <= c.slack)
    return CheckResult(f"ws_equality_at_2[{c.family}]", c.n, ok)

def _cauchy_interlacing(c: _Context) -> CheckResult | None:
    if c.prev is None or c.n > INTERLACING_CAP:
        return None
    lam, mu = c.spec.eigenvalues, c.prev.eigenvalues
    slack = 1e-9 * max(abs(v) for v in lam)
    ok = all(lam[k] <= mu[k] + slack and mu[k] <= lam[k + 1] + slack for k in range(c.n - 1))
    return CheckResult(f"cauchy_interlacing[{c.family}]", c.n, ok)

def _smith_determinant_eigenproduct(c: _Context) -> CheckResult | None:
    if c.family != "gcd" or c.n > DETERMINANT_CAP:
        return None
    det, expected = float(np.prod(c.spec.eigenvalues)), arith.smith_determinant(c.n)
    ok = abs(det - expected) <= 1e-6 * abs(expected)
    return CheckResult("smith_determinant_eigenproduct", c.n, ok,
                       "" if ok else f"{det:.6e} vs {expected}")

def _mh_contains_gcd_spectrum(c: _Context) -> CheckResult | None:
    if c.mh is None:
        return None
    # closed: at n = 2 the gcd matrix IS the divisibility Gram matrix, so mh[1] is hit
    ok = c.mh[0] - c.slack <= c.spec.min and c.spec.max <= c.mh[1] + c.slack
    return CheckResult("mh_contains_gcd_spectrum", c.n, ok)

def _mh_dominates_gcd_bracket(c: _Context) -> CheckResult | None:
    if c.mh is None or c.improved is None:
        return None
    ok = c.mh[0] < c.improved.lambda_min_lower and c.improved.lambda_max_upper < c.mh[1]
    return CheckResult("mh_dominates_gcd_bracket", c.n, ok)

def _improved_bracket(c: _Context) -> CheckResult:
    if c.improved is None:
        return CheckResult(f"improved_{c.family}_bracket", c.n, True, "skipped: needs n >= 3")
    rep = c.improved.with_actual(c.spec)
    ok = rep.brackets_actual()
    return CheckResult(f"improved_{c.family}_bracket", c.n, ok, "" if ok else (
        f"extremes ({rep.actual_min:.6g}, {rep.actual_max:.6g}) vs brackets "
        f"({rep.lambda_min_lower:.6g}, {rep.lambda_min_upper:.6g}) / "
        f"({rep.lambda_max_lower:.6g}, {rep.lambda_max_upper:.6g})"))

def _radicand_gain(c: _Context) -> CheckResult | None:
    if c.improved is None:
        return None
    s2 = c.closed.s_squared
    gain = inner_radicand(c.n, c.family, s2) - s2 / (c.n - 1)
    ok = gain == (Fraction(2, c.n) if c.family == "gcd" else 32)
    return CheckResult(f"{c.family}_radicand_gain", c.n, ok, "" if ok else f"gain {gain}")

def _cross_term(c: _Context) -> CheckResult | None:
    if c.family == "gcd" and c.n < 3:
        return None
    lam, base = c.spec.eigenvalues, c.base
    ok = c.spec.max - c.spec.min > (c.n - 1 if c.family == "gcd" else 2 * c.n * (c.n - 1))
    ok = ok and (base is None or lam[-2] - lam[0] > base.eigenvalues[-2] - base.eigenvalues[0])
    return CheckResult(f"cross_term_{c.family}", c.n, ok)


_CHECKS = (_definiteness, _trace_consistency, _diagonal_bracketing, _spread_bound,
           _ws_consistency, _ws_equality_at_2, _cauchy_interlacing,
           _smith_determinant_eigenproduct, _mh_contains_gcd_spectrum,
           _mh_dominates_gcd_bracket, _improved_bracket, _radicand_gain, _cross_term)


def _spectral_checks(n_max: int) -> list[CheckResult]:
    largest = {family: build(IntegerSet.first_n(n_max))
               for family, build in (("gcd", gcd_matrix), ("lcm", lcm_matrix))}
    gram = divisibility_gram(min(n_max, MH_CAP))
    # every solve first, in one batch: the gcd and lcm blocks, then the Gram
    # blocks whose largest eigenvalue is the Mattila-Haukkanen T_n
    blocks = {(n, family): largest[family].leading(n)
              for n in range(2, n_max + 1) for family in ("gcd", "lcm")}
    mh_orders = range(2, min(n_max, MH_CAP) + 1)
    solved = jacobi_spectra([*blocks.values(), *(gram.leading(n) for n in mh_orders)])
    spectra = dict(zip(blocks, solved))
    t_max = dict(zip(mh_orders, (spec.max for spec in solved[len(blocks):])))
    out: list[CheckResult] = []
    for (n, family), matrix in blocks.items():
        base_order = 3 if family == "gcd" else 4
        c = _Context(
            n, family, matrix, spectra[n, family], spectra.get((n - 1, family)),
            spectra[base_order, family] if n > base_order else None, closed_form_summary(n, family),
            improved_bounds(n, family) if n >= 3 else None,
            mh_interval(n, 1, 0, t_max[n]) if family == "gcd" and n in t_max else None,
            float(np.max(np.abs(matrix.entries))))
        out += [r for r in (check(c) for check in _CHECKS) if r is not None]
    return out
