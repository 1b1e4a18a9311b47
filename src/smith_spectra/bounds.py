"""Eigenvalue bound families for gcd/lcm-family matrices.

Bound centers use the spectral mean m = tr(A)/n, which is (n+1)/2 for both
the gcd and the lcm matrix on {1..n}; the raw trace n(n+1)/2 is carried in
every report for auditability since the two are easy to conflate.

Families:

* Wolkowicz-Styan: m -+ s/sqrt(n-1) and m -+ s*sqrt(n-1) for any real
  spectrum, from the trace statistics alone.
* Improved gcd/lcm brackets (:func:`improved_bounds`): the inner
  Wolkowicz-Styan bound sharpened by a cross-term lower bound; the radicand
  (:func:`inner_radicand`) grows by exactly 2/n (gcd) and 32 (lcm) over
  s^2/(n-1). :func:`_bracket` builds every report, improved or not.
* Mattila-Haukkanen interval for mixed-power matrices, from the largest
  eigenvalue of the divisibility Gram matrix and Jordan totient maxima.
* Hong-Lee upper bounds for reciprocal lcm matrices.
* Hong's constant c_n (the minimum over unit lower-triangular 0/1 Gram
  matrices, by a branch and bound on the exact certificate
  lambda_min >= 1/||Y^-1||_F^2) with its smallest-eigenvalue lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import sqrt

import numpy as np

from smith_spectra import arith
from smith_spectra.eig import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    Spectrum,
    SpectralSummary,
    jacobi_eigenvalues,
)
from smith_spectra.matrices import IntegerSet, SymMatrix, divisibility_gram

METHOD_WS = "ws"

# n=2 has no cross-term to sharpen, so the improved families fall back to
# the plain Wolkowicz-Styan bounds, which are equalities there.
WS_FALLBACK_FLAG = "ws_equality"

# patterns per chunk of hong_cn's certificates; it sets the memory, never
# the result
HONG_CHUNK = 512
# the largest order hong_cn takes: c_7 would need 2^21 certificates
HONG_MAX_N = 6


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
    return SpectralSummary(n, Fraction(n + 1, 2), arith.s_squared(n, family), exact=True)


def _bracket(summary: SpectralSummary, family: str, method: str, inner: float) -> BoundsReport:
    """The bracket m -+ s*sqrt(n-1) (outer bounds) and m -+ inner (inner bounds)."""
    n = summary.n
    m = float(summary.m)
    s = summary.s
    outer = s * sqrt(n - 1)
    return BoundsReport(
        n=n, family=family, method=method, m=m, s=s, trace=float(summary.m * n),
        lambda_min_lower=m - outer, lambda_min_upper=m - inner,
        lambda_max_lower=m + inner, lambda_max_upper=m + outer,
    )


def ws_bounds(summary: SpectralSummary, family: str = "custom") -> BoundsReport:
    """Wolkowicz-Styan brackets from m and s:

    m - s*sqrt(n-1) <= lambda_min <= m - s/sqrt(n-1)
    m + s/sqrt(n-1) <= lambda_max <= m + s*sqrt(n-1)
    """
    n = summary.n
    if n < 2:
        raise ValueError(f"Wolkowicz-Styan bounds need n >= 2, got {n}")
    return _bracket(summary, family, METHOD_WS, summary.s / sqrt(n - 1))


def inner_radicand(n: int, family: str, s_squared: Fraction) -> Fraction:
    """The radicand r of the improved inner bounds m -+ sqrt(r) of the gcd
    or lcm matrix on {1..n}, n >= 3, whose spectral variance is s_squared:

    gcd: (n*s^2 + 2(n-1)) / (n^2 - n), i.e. s^2/(n-1) + 2/n
    lcm: (s^2 + 32(n-1)) / (n-1),      i.e. s^2/(n-1) + 32
    """
    if family == "gcd":
        return (n * s_squared + 2 * (n - 1)) / Fraction(n * n - n)
    if family == "lcm":
        return (s_squared + 32 * (n - 1)) / Fraction(n - 1)
    raise ValueError(f"no improved radicand for family {family!r}")


def improved_bounds(n: int, family: str) -> BoundsReport:
    """Improved brackets for the extreme eigenvalues of the gcd or lcm
    matrix on {1..n}: the inner bounds are m -+ sqrt(inner_radicand), the
    outer bounds stay Wolkowicz-Styan. Needs n >= 3 (n = 2 falls back,
    flagged).
    """
    if n < 2:
        raise ValueError(f"{family} bounds need n >= 2, got {n}")
    summary = closed_form_summary(n, family)
    if n == 2:
        return replace(ws_bounds(summary, family), flag=WS_FALLBACK_FLAG)
    radicand = inner_radicand(n, family, summary.s_squared)
    return _bracket(summary, family, f"improved_{family}", sqrt(float(radicand)))


def gcd_bounds(n: int) -> BoundsReport:
    """:func:`improved_bounds` of the gcd matrix on {1..n}."""
    return improved_bounds(n, "gcd")


def lcm_bounds(n: int) -> BoundsReport:
    """:func:`improved_bounds` of the lcm matrix on {1..n}.

    Note: the cross-term argument behind the +32 rests on interlacing
    against the order-4 matrix, so the inner bounds are only guaranteed
    from n = 4 on; at n = 3 the smallest eigenvalue actually violates its
    inner bound (see the verification sweep, which reports this).
    """
    return improved_bounds(n, "lcm")


def mh_interval(n: int, alpha: float, beta: float,
                gram: SymMatrix | None = None) -> tuple[float, float]:
    """Mattila-Haukkanen interval containing every eigenvalue of the
    mixed-power matrix (gcd^alpha * lcm^beta) on {1..n}:

    [ 2 min(1, n^(a+b)) - T_n max(1, n^(2b)) max_i |J_{a-b}(i)| ,
                          T_n max(1, n^(2b)) max_i |J_{a-b}(i)| ]

    with T_n the largest eigenvalue of the divisibility Gram matrix E E^T of
    order n, the leading block of ``gram`` (order >= n) when one is given.
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
    t_n = jacobi_eigenvalues(divisibility_gram(n) if gram is None else gram.leading(n)).max
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


def _unit_lower(n: int, patterns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The unit lower-triangular 0/1 matrices Y of order n with the given
    pattern numbers, as an int64 (n, n, B) array: Y_k is ``[:, :, k]``.
    Written into ``out`` when it is given.

    Bit j of a pattern, counted from the most significant, fills the j-th
    below-diagonal position, row by row, so the patterns 0, 1, 2, ... are
    the matrices in ``itertools.product`` order. The batch axis is last so
    that every elementwise step below runs over B contiguous entries.
    """
    rows, cols = np.tril_indices(n, -1)
    shifts = np.arange(rows.size - 1, -1, -1)
    diagonal = np.arange(n)
    if out is None:
        out = np.empty((n, n, patterns.size), dtype=np.int64)
    out.fill(0)
    out[diagonal, diagonal] = 1
    out[rows, cols] = (patterns >> shifts[:, None]) & 1
    return out


def _inverse_unit_lower(y: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Y^-1 of every unit lower-triangular integer matrix of the (n, n, B)
    int64 array ``y``, exactly, by forward substitution, written into
    ``out``: row i of X = Y^-1 is e_i minus the sum over j < i of Y_ij
    times row j of X. ``scratch``, of y's shape, holds the products."""
    out.fill(0)
    for i in range(y.shape[0]):
        out[i, i] = 1
        products = np.multiply(y[i, :i, None], out[:i, :i], out=scratch[:i, :i])
        products.sum(axis=0, out=out[i, :i])
        np.negative(out[i, :i], out=out[i, :i])
    return out


def _trace_certificates(n: int) -> np.ndarray:
    """T_k = ||Y_k^-1||_F^2 for every pattern k of order n, in pattern
    order, as int64; built HONG_CHUNK patterns at a time.

    Every chunk has the same size (a power of two), so Y, Y^-1 and the
    squares are three arrays allocated once and overwritten per chunk:
    allocating them per chunk made glibc give the top of its heap back to
    the system and fault it in again, chunk after chunk, in some process
    layouts."""
    count = 1 << (n * (n - 1) // 2)
    size = min(HONG_CHUNK, count)
    certificates = np.empty(count, dtype=np.int64)
    y = np.empty((n, n, size), dtype=np.int64)
    x = np.empty_like(y)
    squares = np.empty_like(y)
    for start in range(0, count, size):
        _unit_lower(n, np.arange(start, start + size), out=y)
        _inverse_unit_lower(y, x, squares)
        np.multiply(x, x, out=squares)
        squares.sum(axis=(0, 1), out=certificates[start:start + size])
    return certificates


def _hong_margin(n: int) -> float:
    """A bound on |Jacobi lambda_min(Z) - lambda_min(Z)| for every Gram
    matrix Z = Y Y^T of order n that :func:`jacobi_eigenvalues` solves
    with its default sweep cap (its tolerance is always DEFAULT_TOL).

    The solver stops once the off-diagonal Frobenius norm is at most
    DEFAULT_TOL * ||Z||_F, so by Weyl's inequality the diagonal it returns
    is that far from the spectrum of the rotated matrix. The rotations
    themselves are orthogonal similarities computed in floating point; over
    at most DEFAULT_MAX_SWEEPS sweeps they move the spectrum by a term of
    order DEFAULT_MAX_SWEEPS * n * eps * ||Z||_F (Demmel & Veselic, SIMAX
    13, 1992). Every entry of Z counts the ones two rows of Y share, so it
    is at most n and ||Z||_F <= n^2. The sum of both terms is taken 100
    times over.
    """
    norm = n * n
    weyl = DEFAULT_TOL * norm
    rounding = DEFAULT_MAX_SWEEPS * n * float(np.finfo(np.float64).eps) * norm
    return 100.0 * (weyl + rounding)


def hong_cn(n: int) -> HongConstant:
    """Hong's constant c_n: the smallest eigenvalue of Y Y^T minimized over
    all 2^(n(n-1)/2) unit lower-triangular 0/1 matrices Y, with the first Y
    in ``itertools.product`` order over the below-diagonal positions, row
    by row, that attains it as the witness. Exponential in n, hence capped
    at :data:`HONG_MAX_N`.

    The search is a branch and bound on an exact certificate. Y Y^T is
    positive definite, so lambda_min(Y Y^T) = 1 / lambda_max(Y^-T Y^-1)
    >= 1 / tr(Y^-T Y^-1) = 1 / T with T = ||Y^-1||_F^2, and Y^-1 is an
    integer matrix, so T is computed exactly for every Y. The matrices are
    solved one at a time in order of decreasing T (ties in pattern order),
    and the search stops at the first Y whose 1/T exceeds the best solved
    value plus :func:`_hong_margin`; that comparison is made in exact
    rationals. Every Y left unsolved then has a solver value above the
    best one, so c_n and the witness are those of solving all of them (at
    n = 6 one solve instead of 32768: after the witness, T = 70, the next
    certificate is 1/61 = 0.0164 against c_6 = 0.0148).
    """
    if n < 2:
        raise ValueError(f"c_n needs n >= 2, got {n}")
    if n > HONG_MAX_N:
        m = n * (n - 1) // 2
        raise ValueError(
            f"c_{n} must certify 2^{m} = {1 << m} matrices; capped at n = {HONG_MAX_N}"
        )
    certificates = _trace_certificates(n)
    # weakest certificate first; a stable sort keeps ties in pattern order
    order = np.argsort(-certificates, kind="stable")
    margin = Fraction(_hong_margin(n))
    best = witness = None
    for pattern in map(int, order):
        certificate = Fraction(1, int(certificates[pattern]))
        if best is not None and certificate > Fraction(best) + margin:
            break
        y = _unit_lower(n, np.array([pattern]))[:, :, 0]
        # integer entries: Y Y^T is exact, and so is its float64 copy
        value = jacobi_eigenvalues(y @ y.T).min
        if best is None or (value, pattern) < (best, witness):
            best, witness = value, pattern
    y = _unit_lower(n, np.array([witness]))[:, :, 0]
    return HongConstant(n, best, tuple(tuple(int(v) for v in row) for row in y))


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
