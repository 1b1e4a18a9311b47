"""Eigenvalue bound families for gcd/lcm-family matrices.

Bound centers use the spectral mean m = tr(A)/n, which is (n+1)/2 for both
the gcd and the lcm matrix on {1..n}; the raw trace n(n+1)/2 is carried in
every report for auditability since the two are easy to conflate.

Families:

* Wolkowicz-Styan: m -+ s/sqrt(n-1) and m -+ s*sqrt(n-1) for any real
  spectrum, from the trace statistics alone.
* Improved gcd/lcm brackets: the inner Wolkowicz-Styan bound sharpened by a
  cross-term lower bound; the radicand grows by exactly 2/n (gcd) and 32
  (lcm) over s^2/(n-1).
* Mattila-Haukkanen interval for mixed-power matrices, from the largest
  eigenvalue of the divisibility Gram matrix and Jordan totient maxima.
* Hong-Lee upper bounds for reciprocal lcm matrices.
* Hong's constant c_n (exhaustive over unit lower-triangular 0/1 Gram
  matrices) with its smallest-eigenvalue lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import sqrt

import numpy as np

from smith_spectra import arith
from smith_spectra.eig import Spectrum, SpectralSummary, jacobi_eigenvalues
from smith_spectra.matrices import IntegerSet, divisibility_gram

METHOD_WS = "ws"
METHOD_GCD = "improved_gcd"
METHOD_LCM = "improved_lcm"

# n=2 has no cross-term to sharpen, so the improved families fall back to
# the plain Wolkowicz-Styan bounds, which are equalities there.
WS_FALLBACK_FLAG = "ws_equality"


@dataclass(frozen=True)
class BoundsReport:
    """Named lower/upper bounds for the extreme eigenvalues of one matrix.

    ``trace`` is the raw tr(A) = n*m. ``flag`` marks rows that fell back
    to the plain Wolkowicz-Styan bounds.
    """

    n: int
    family: str
    method: str
    m: float
    s: float
    trace: float
    lambda_min_lower: float
    lambda_min_upper: float
    lambda_max_lower: float
    lambda_max_upper: float
    actual_min: float | None = None
    actual_max: float | None = None
    flag: str | None = None

    def __post_init__(self):
        if self.lambda_min_lower > self.lambda_min_upper:
            raise ValueError("lambda_min bracket is inverted")
        if self.lambda_max_lower > self.lambda_max_upper:
            raise ValueError("lambda_max bracket is inverted")

    def with_actual(self, spectrum: Spectrum) -> BoundsReport:
        return replace(self, actual_min=spectrum.min, actual_max=spectrum.max)

    @property
    def min_slack(self) -> float | None:
        """Gap between the actual smallest eigenvalue and its upper bound."""
        if self.actual_min is None:
            return None
        return self.lambda_min_upper - self.actual_min

    @property
    def max_slack(self) -> float | None:
        if self.actual_max is None:
            return None
        return self.actual_max - self.lambda_max_lower

    def brackets_actual(self) -> bool:
        """True when both actual extremes lie strictly inside their brackets."""
        if self.actual_min is None or self.actual_max is None:
            raise ValueError("no actual eigenvalues recorded")
        return (
            self.lambda_min_lower < self.actual_min < self.lambda_min_upper
            and self.lambda_max_lower < self.actual_max < self.lambda_max_upper
        )


@dataclass(frozen=True)
class HongConstant:
    """min over Z = Y Y^T (Y unit lower-triangular 0/1) of the smallest eigenvalue."""

    n: int
    c_n: float
    witness: tuple[tuple[int, ...], ...]


def closed_form_summary(n: int, family: str) -> SpectralSummary:
    """Trace statistics of the gcd/lcm matrix on {1..n} from the exact closed forms."""
    if family == "gcd":
        s2 = arith.s_squared_gcd(n)
    elif family == "lcm":
        s2 = arith.s_squared_lcm(n)
    else:
        raise ValueError(f"no closed form for family {family!r}")
    return SpectralSummary(n, Fraction(n + 1, 2), s2, exact=True)


def ws_bounds(summary: SpectralSummary, family: str = "custom") -> BoundsReport:
    """Wolkowicz-Styan brackets from m and s:

    m - s*sqrt(n-1) <= lambda_min <= m - s/sqrt(n-1)
    m + s/sqrt(n-1) <= lambda_max <= m + s*sqrt(n-1)
    """
    n = summary.n
    if n < 2:
        raise ValueError(f"Wolkowicz-Styan bounds need n >= 2, got {n}")
    m = float(summary.m)
    s = summary.s
    root = sqrt(n - 1)
    return BoundsReport(
        n=n,
        family=family,
        method=METHOD_WS,
        m=m,
        s=s,
        trace=float(summary.m * n),
        lambda_min_lower=m - s * root,
        lambda_min_upper=m - s / root,
        lambda_max_lower=m + s / root,
        lambda_max_upper=m + s * root,
    )


def _improved(n: int, family: str, method: str, inner_radicand: Fraction,
              summary: SpectralSummary) -> BoundsReport:
    m = float(summary.m)
    s = summary.s
    outer = s * sqrt(n - 1)
    inner = sqrt(float(inner_radicand))
    return BoundsReport(
        n=n,
        family=family,
        method=method,
        m=m,
        s=s,
        trace=float(summary.m * n),
        lambda_min_lower=m - outer,
        lambda_min_upper=m - inner,
        lambda_max_lower=m + inner,
        lambda_max_upper=m + outer,
    )


def gcd_bounds(n: int) -> BoundsReport:
    """Improved brackets for the extreme eigenvalues of the gcd matrix on {1..n}.

    The inner bounds use the radicand (n*s^2 + 2(n-1)) / (n^2 - n), i.e.
    s^2/(n-1) + 2/n; the outer bounds stay Wolkowicz-Styan. Needs n >= 3
    (n = 2 falls back, flagged).
    """
    if n < 2:
        raise ValueError(f"gcd bounds need n >= 2, got {n}")
    summary = closed_form_summary(n, "gcd")
    if n == 2:
        return replace(ws_bounds(summary, "gcd"), flag=WS_FALLBACK_FLAG)
    radicand = (n * summary.s_squared + 2 * (n - 1)) / Fraction(n * n - n)
    return _improved(n, "gcd", METHOD_GCD, radicand, summary)


def lcm_bounds(n: int) -> BoundsReport:
    """Improved brackets for the extreme eigenvalues of the lcm matrix on {1..n}.

    The inner bounds use the radicand (s^2 + 32(n-1)) / (n-1), i.e.
    s^2/(n-1) + 32; the outer bounds stay Wolkowicz-Styan. Needs n >= 3
    (n = 2 falls back, flagged). Note: the cross-term argument behind the
    +32 rests on interlacing against the order-4 matrix, so the inner
    bounds are only guaranteed from n = 4 on; at n = 3 the smallest
    eigenvalue actually violates its inner bound (see the verification
    sweep, which reports this).
    """
    if n < 2:
        raise ValueError(f"lcm bounds need n >= 2, got {n}")
    summary = closed_form_summary(n, "lcm")
    if n == 2:
        return replace(ws_bounds(summary, "lcm"), flag=WS_FALLBACK_FLAG)
    radicand = (summary.s_squared + 32 * (n - 1)) / Fraction(n - 1)
    return _improved(n, "lcm", METHOD_LCM, radicand, summary)


def mh_interval(
    n: int,
    alpha: float,
    beta: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Mattila-Haukkanen interval containing every eigenvalue of the
    mixed-power matrix (gcd^alpha * lcm^beta) on {1..n}:

    [ 2 min(1, n^(a+b)) - T_n max(1, n^(2b)) max_i |J_{a-b}(i)| ,
                          T_n max(1, n^(2b)) max_i |J_{a-b}(i)| ]

    with T_n the largest eigenvalue of the divisibility Gram matrix E E^T.
    alpha - beta must be a positive integer so the Jordan totient is exact.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    diff = alpha - beta
    k = round(diff)
    if abs(diff - k) > 1e-9 or k < 1:
        raise ValueError(
            f"alpha - beta must be a positive integer for the Jordan totient form, "
            f"got {diff}"
        )
    jt = arith.jordan_totient(n, k)
    max_j = max(abs(v) for v in jt.values[1:])
    t_n = jacobi_eigenvalues(divisibility_gram(n), tol=tol).max
    hi = t_n * max(1.0, float(n) ** (2 * beta)) * max_j
    lo = 2.0 * min(1.0, float(n) ** (alpha + beta)) - hi
    return lo, hi


def hong_lee_bounds(s: IntegerSet, r: float, k: int) -> tuple[float, float]:
    """Upper bounds for the reciprocal lcm matrix [1/lcm^r] on the set:

    lambda^(1) <= (1/n) sum_i 1/x_i^r   and   lambda^(k) <= k / x_{n-k+1}^r.

    Returns (mean bound, k-th bound).
    """
    if r <= 0:
        raise ValueError(f"exponent r must be > 0, got {r}")
    n = len(s)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    mean_bound = sum(float(x) ** -r for x in s.elements) / n
    kth_bound = k / float(s.elements[n - k]) ** r
    return mean_bound, kth_bound


def hong_cn(n: int, cap: int = 6, tol: float = 1e-12) -> HongConstant:
    """Hong's constant c_n by exhaustion over all 2^(n(n-1)/2) unit
    lower-triangular 0/1 matrices Y, minimizing the smallest eigenvalue of
    Y Y^T. Exponential, hence capped (n = 6 already means 32768 solves).
    """
    if n < 2:
        raise ValueError(f"c_n needs n >= 2, got {n}")
    if n > cap:
        raise ValueError(
            f"c_{n} needs 2^{n * (n - 1) // 2} eigensolves; capped at n = {cap} "
            f"(raise the cap explicitly to go further)"
        )
    positions = [(i, j) for i in range(1, n) for j in range(i)]
    best: float | None = None
    witness: np.ndarray | None = None
    for bits in product((0, 1), repeat=len(positions)):
        y = np.eye(n)
        for bit, (i, j) in zip(bits, positions):
            y[i, j] = bit
        z = y @ y.T
        smallest = jacobi_eigenvalues(z, tol=tol).min
        if best is None or smallest < best:
            best = smallest
            witness = y
    return HongConstant(n, best, tuple(tuple(int(v) for v in row) for row in witness))


def hong_lower_bound(s: IntegerSet, f_table: arith.ArithTable, c_n: float) -> float:
    """Hong's lower bound c_n * min_i (f * mu)(x_i) for the smallest
    eigenvalue of the matrix (f(gcd(x_i, x_j))) on the set.

    Requires (f * mu)(d) > 0 for every divisor d of every element; a
    violation is reported since the matrix may then fail to be positive
    definite and the bound proof does not apply.
    """
    if f_table.limit < s.max:
        raise ValueError(
            f"function table only reaches {f_table.limit} < max element {s.max}"
        )
    g = arith.dirichlet_convolve(f_table, arith.sieve_mobius(f_table.limit))
    for x in s.elements:
        for d in arith.divisors(x):
            if g[d] <= 0:
                raise ValueError(
                    f"(f*mu)({d}) = {g[d]} <= 0 for divisor {d} of {x}; "
                    f"the lower bound requires positivity at every divisor"
                )
    return c_n * min(g[x] for x in s.elements)
