"""Trace statistics and eigenvalue bound families for gcd/lcm-family matrices.

The Wolkowicz-Styan and improved brackets read a matrix only through its
trace statistics m = tr(A)/n and s^2 = tr(A^2)/n - m^2
(:class:`SpectralSummary`: rationals for an integer matrix, which makes it
exact, floats otherwise), from the matrix traces (:func:`spectral_summary`)
or, on {1..n}, from the gcd/lcm closed forms (:func:`closed_form_summary`).
Bound centers use the spectral mean m, which is (n+1)/2 for both the gcd and
the lcm matrix on {1..n}; the raw trace n(n+1)/2 is carried in every report
for auditability since the two are easy to conflate.

Families:

* Wolkowicz-Styan (:func:`ws_bounds`): m -+ s/sqrt(n-1) and m -+ s*sqrt(n-1)
  for any real spectrum, from the trace statistics alone.
* Improved gcd/lcm brackets (:func:`improved_bounds`): the inner
  Wolkowicz-Styan bound sharpened by a cross-term lower bound; the radicand
  (:func:`inner_radicand`) grows by exactly 2/n (gcd) and 32 (lcm) over
  s^2/(n-1). Each float is one correctly rounded int / int division (under
  a root for s and the inner radius). At n = 2 there is no cross term, and
  the row is the Wolkowicz-Styan one, flagged. ``_bracket(n, family,
  method, m, s, trace, inner)`` builds every report, improved or not, from
  floats.
* Mattila-Haukkanen interval for mixed-power matrices, from the largest
  eigenvalue of the divisibility Gram matrix and Jordan totient maxima.
* Hong-Lee upper bounds for reciprocal lcm matrices.
* Hong's constant c_n (the minimum over unit lower-triangular 0/1 Gram
  matrices, by a branch and bound on the exact certificate
  lambda_min >= 1/T, T = ||Y^-1||_F^2 an integer built row by row for
  every Y, cut at one integer T) with its smallest-eigenvalue lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, sqrt

import numpy as np

from smith_spectra import arith
from smith_spectra.eig import DEFAULT_MAX_SWEEPS, DEFAULT_TOL, Spectrum, jacobi_eigenvalues
from smith_spectra.matrices import IntegerSet, SymMatrix, divisibility_gram

METHOD_WS = "ws"

# n=2 has no cross-term to sharpen, so the improved families fall back to
# the plain Wolkowicz-Styan bounds, which are equalities there.
WS_FALLBACK_FLAG = "ws_equality"

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


@dataclass(frozen=True)
class SpectralSummary:
    """Trace statistics m = tr(A)/n and s^2 = tr(A^2)/n - m^2: exact
    rationals for integer matrices, floats for real-exponent families."""

    n: int
    m: Fraction | float
    s_squared: Fraction | float

    def __post_init__(self):
        if self.s_squared < 0:
            raise ValueError(f"negative spectral variance {self.s_squared}")

    @property
    def exact(self) -> bool:
        return isinstance(self.m, Fraction) and isinstance(self.s_squared, Fraction)

    @property
    def s(self) -> float:
        return sqrt(float(self.s_squared))


def spectral_summary(a: SymMatrix) -> SpectralSummary:
    """m and s^2 from the matrix traces: tr(A) and tr(A^2) = sum a_ij^2."""
    n = a.order
    if a.exact is not None:
        # int64 holds each row's sum of squares; the rows add as Python ints
        trace = sum(np.diagonal(a.exact).tolist())
        trace_sq = sum((a.exact * a.exact).sum(axis=1).tolist())
        m = Fraction(trace, n)
        return SpectralSummary(n, m, Fraction(trace_sq, n) - m * m)
    m = float(np.trace(a.entries)) / n
    s_squared = float(np.sum(a.entries * a.entries)) / n - m * m
    return SpectralSummary(n, m, max(s_squared, 0.0))


def closed_form_summary(n: int, family: str) -> SpectralSummary:
    """Trace statistics of the gcd/lcm matrix on {1..n} from the exact closed forms."""
    return SpectralSummary(n, Fraction(n + 1, 2), arith.s_squared(n, family))


def _bracket(n: int, family: str, method: str, m: float, s: float, trace: float,
             inner: float) -> BoundsReport:
    """The report of the floats m, s and trace: the bracket m -+ s*sqrt(n-1)
    (outer bounds) and m -+ inner (inner bounds)."""
    outer = s * sqrt(n - 1)
    return BoundsReport(
        n=n, family=family, method=method, m=m, s=s, trace=trace,
        lambda_min_lower=m - outer, lambda_min_upper=m - inner,
        lambda_max_lower=m + inner, lambda_max_upper=m + outer,
    )


def ws_bounds(summary: SpectralSummary, family: str) -> BoundsReport:
    """Wolkowicz-Styan brackets from m and s:

    m - s*sqrt(n-1) <= lambda_min <= m - s/sqrt(n-1)
    m + s/sqrt(n-1) <= lambda_max <= m + s*sqrt(n-1)
    """
    n = summary.n
    if n < 2:
        raise ValueError(f"Wolkowicz-Styan bounds need n >= 2, got {n}")
    return _bracket(n, family, METHOD_WS, float(summary.m), summary.s,
                    float(summary.m * n), summary.s / sqrt(n - 1))


def inner_radicand(n: int, family: str, s_squared: Fraction) -> Fraction:
    """The radicand r of the improved inner bounds m -+ sqrt(r) of the gcd
    or lcm matrix on {1..n}, n >= 3, whose spectral variance is s_squared = a/b,
    built as one fraction:

    gcd: (n*a + 2(n-1)*b) / (b*n(n-1)), i.e. s^2/(n-1) + 2/n
    lcm: (a + 32(n-1)*b) / (b(n-1)),    i.e. s^2/(n-1) + 32
    """
    a, b = s_squared.numerator, s_squared.denominator
    if family == "gcd":
        return Fraction(n * a + 2 * (n - 1) * b, b * n * (n - 1))
    if family == "lcm":
        return Fraction(a + 32 * (n - 1) * b, b * (n - 1))
    raise ValueError(f"no improved radicand for family {family!r}")


def improved_bounds(n: int, family: str) -> BoundsReport:
    """Improved brackets for the extreme eigenvalues of the gcd or lcm
    matrix on {1..n}: the inner bounds are m -+ sqrt(inner_radicand), the
    outer bounds stay Wolkowicz-Styan. Needs n >= 3 (n = 2 falls back,
    flagged). Each float is that of an exact rational: one int / int division.

    Note: the lcm cross-term argument behind the +32 rests on interlacing
    against the order-4 matrix, so the lcm inner bounds are only guaranteed
    from n = 4 on; at n = 3 the smallest eigenvalue actually violates its
    inner bound (see the verification sweep, which reports this).
    """
    if n < 2:
        raise ValueError(f"{family} bounds need n >= 2, got {n}")
    if n == 2:
        return replace(ws_bounds(closed_form_summary(n, family), family), flag=WS_FALLBACK_FLAG)
    s_squared = arith.s_squared(n, family)
    m, s, trace = (n + 1) / 2, sqrt(float(s_squared)), float(n * (n + 1) // 2)
    radicand = inner_radicand(n, family, s_squared)
    return _bracket(n, family, f"improved_{family}", m, s, trace, sqrt(float(radicand)))


def mh_interval(n: int, alpha: float, beta: float, t_n: float | None = None,
                max_j: int | None = None) -> tuple[float, float]:
    """Mattila-Haukkanen interval containing every eigenvalue of the
    mixed-power matrix (gcd^alpha * lcm^beta) on {1..n}:

    [ 2 min(1, n^(a+b)) - T_n max(1, n^(2b)) max_i |J_{a-b}(i)| ,
                          T_n max(1, n^(2b)) max_i |J_{a-b}(i)| ]

    with T_n the largest eigenvalue of the divisibility Gram matrix E E^T of
    order n: ``t_n`` when the caller has solved that matrix, else solved here.
    Likewise ``max_j``, the max of |J_{a-b}| on 1..n. alpha - beta must be a
    positive integer so the Jordan totient is exact.
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
    if max_j is None:
        max_j = max(abs(v) for v in arith.jordan_totient(n, k).values[1:])
    if t_n is None:
        t_n = jacobi_eigenvalues(divisibility_gram(n)).max
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


def _unit_lower(n: int, pattern: int) -> np.ndarray:
    """The unit lower-triangular 0/1 matrix Y of order n with the given
    pattern number, as an int64 (n, n) array.

    Bit j of the pattern, counted from the most significant, fills the j-th
    below-diagonal position, row by row, so the patterns 0, 1, 2, ... are
    the matrices in ``itertools.product`` order.
    """
    rows, cols = np.tril_indices(n, -1)
    y = np.eye(n, dtype=np.int64)
    y[rows, cols] = (pattern >> np.arange(rows.size - 1, -1, -1)) & 1
    return y


def _trace_certificates(n: int) -> np.ndarray:
    """T_k = ||Y_k^-1||_F^2 for every pattern k of order n, in pattern
    order, as int64, built row by row.

    The first i rows of Y fix the first i rows of X = Y^-1: row i of X is
    e_i - b X[:i], with b the bits of row i of Y. Column i of X[:i] is
    zero, so that row adds exactly 1 + b^T (X[:i] X[:i]^T) b to T. Row
    i's bits are the lowest i bits of the pattern number of the first
    i + 1 rows, so those patterns are the (prefix, row bits) pairs in
    row-major order.
    """
    certificates = np.ones(1, dtype=np.int64)
    x = np.ones((1, 1, 1), dtype=np.int64)  # X[:i, :i] of every prefix
    for i in range(1, n):
        bits = (np.arange(1 << i)[:, None] >> np.arange(i - 1, -1, -1)) & 1
        gram = x @ x.transpose(0, 2, 1)
        quad = np.einsum("bj,pjk,bk->pb", bits, gram, bits)
        certificates = (certificates[:, None] + 1 + quad).ravel()
        if i < n - 1:
            grown = np.zeros((x.shape[0], bits.shape[0], i + 1, i + 1), dtype=np.int64)
            grown[:, :, :i, :i] = x[:, None]
            grown[:, :, i, :i] = -np.einsum("bj,pjk->pbk", bits, x)
            grown[:, :, i, i] = 1
            x = grown.reshape(-1, i + 1, i + 1)
    return certificates


def _hong_margin(n: int) -> float:
    """A bound on |Jacobi lambda_min(Z) - lambda_min(Z)| for every Gram
    matrix Z = Y Y^T of order n that :func:`jacobi_eigenvalues` solves
    (its tolerance is always DEFAULT_TOL, its sweep cap DEFAULT_MAX_SWEEPS).

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


def _smallest_eigenvalue(n: int, pattern: int) -> float:
    """The Jacobi lambda_min of Y Y^T, Y = _unit_lower(n, pattern)."""
    y = _unit_lower(n, pattern)
    # integer entries: Y Y^T is exact, and so is its float64 copy
    return jacobi_eigenvalues(y @ y.T).min


def hong_cn(n: int) -> HongConstant:
    """Hong's constant c_n: the smallest eigenvalue of Y Y^T minimized over
    all 2^(n(n-1)/2) unit lower-triangular 0/1 matrices Y, with the first Y
    in ``itertools.product`` order over the below-diagonal positions, row
    by row, that attains it as the witness. Exponential in n, hence capped
    at :data:`HONG_MAX_N`.

    The search is a branch and bound on an exact certificate. Y Y^T is
    positive definite, so lambda_min(Y Y^T) = 1 / lambda_max(Y^-T Y^-1)
    >= 1 / tr(Y^-T Y^-1) = 1 / T with T = ||Y^-1||_F^2, and Y^-1 is an
    integer matrix, so T is computed exactly for every Y. The first Y with
    the largest T is solved, then every Y whose T reaches the cutoff
    ceil(1 / (best + :func:`_hong_margin`)), computed in rationals: T is an
    integer, so 1/T <= best + margin exactly when T reaches it. Every Y left
    unsolved then has a solver value above the best one, so c_n and the
    witness are those of solving all of them (at n = 6 one solve instead of
    32768: after the witness, T = 70, the next certificate is 1/61 = 0.0164
    against c_6 = 0.0148).
    """
    if n < 2:
        raise ValueError(f"c_n needs n >= 2, got {n}")
    if n > HONG_MAX_N:
        m = n * (n - 1) // 2
        raise ValueError(
            f"c_{n} must certify 2^{m} = {1 << m} matrices; capped at n = {HONG_MAX_N}"
        )
    certificates = _trace_certificates(n)
    first = int(np.argmax(certificates))
    best = _smallest_eigenvalue(n, first)
    cutoff = ceil(1 / (Fraction(best) + Fraction(_hong_margin(n))))
    best, witness = min([(best, first)] + [
        (_smallest_eigenvalue(n, pattern), pattern)
        for pattern in map(int, np.flatnonzero(certificates >= cutoff)) if pattern != first])
    y = _unit_lower(n, witness)
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
