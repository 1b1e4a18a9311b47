"""Constructors for gcd/lcm-family matrices on integer sets.

Integer-valued families (gcd, lcm, divisibility Gram) are built with numpy
in exact integers, kept beside the float64 entries the eigensolver reads:
int64 when n * max_entry^2 < 2^63, so every row's sum of squares fits, else
Python ints. Real-exponent families are built directly in floating point.

Both arrays are read-only; the eigensolver works on a private copy. On
{1..n} each matrix is the leading block of the one on {1..n+1}, so a run
over n builds the top order once and slices it (:meth:`SymMatrix.leading`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, inf, isfinite, lcm
from typing import TextIO

import numpy as np


@dataclass(frozen=True)
class IntegerSet:
    """A strictly increasing set of distinct positive integers x_1 < ... < x_n."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("integer set must be nonempty")
        if any(x < 1 for x in self.elements):
            raise ValueError(f"all elements must be >= 1, got {self.elements}")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError(f"elements must be strictly increasing, got {self.elements}")

    @classmethod
    def of(cls, *elements: int) -> IntegerSet:
        return cls(tuple(int(x) for x in elements))

    @classmethod
    def first_n(cls, n: int) -> IntegerSet:
        """The canonical set {1, 2, ..., n}."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> IntegerSet:
        """Parse a comma-separated list like '1,2,6'."""
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse integer set from {text!r}") from None
        return cls(values)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max(self) -> int:
        return self.elements[-1]


def _frobenius_norm(entries: np.ndarray) -> float:
    """||A||_F, without a numpy warning when it is not finite: inf or nan
    when an entry or the sum of the squared entries is. The trace
    statistics and the solver need it finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(np.sum(entries * entries)))


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix with provenance.

    ``entries`` is the float64 view used by the solver; ``exact`` holds the
    integer entries when the family is integer-valued, else None.
    """

    order: int
    entries: np.ndarray
    family: str
    source_set: IntegerSet
    exact: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.order, self.order):
            raise ValueError(f"entry array shape {e.shape} != order {self.order}")
        if not isfinite(_frobenius_norm(e)):
            raise ValueError(
                f"{self.label()} is out of float range: an entry or the sum of "
                f"the squared entries is not finite")
        if not np.array_equal(e, e.T):
            raise ValueError("matrix entries are not symmetric")
        e.setflags(write=False)
        if self.exact is not None:
            exact = np.asarray(self.exact)
            exact = exact if exact.dtype == np.int64 else np.array(self.exact, dtype=object)
            # int64 only while every row's sum of squares fits (spectral_summary)
            top = int(abs(exact).max())
            exact = exact.astype(np.int64 if self.order * top * top < 1 << 63 else object,
                                 copy=False)
            exact.setflags(write=False)
            object.__setattr__(self, "exact", exact)

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)

    def leading(self, k: int) -> SymMatrix:
        """The leading principal k x k block: the same family, with the same
        parameters, on the first k elements of the set. Its arrays are views
        of these; a block of a checked matrix skips __post_init__'s scans."""
        if not 1 <= k <= self.order:
            raise ValueError(f"k must lie in 1..{self.order}, got {k}")
        block = object.__new__(SymMatrix)
        vars(block).update(vars(self), order=k, entries=self.entries[:k, :k],
                           source_set=IntegerSet(self.source_set.elements[:k]),
                           exact=None if self.exact is None else self.exact[:k, :k],
                           params=dict(self.params))
        return block

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def _outer(ufunc: np.ufunc, family: str, s: IntegerSet) -> SymMatrix:
    """ufunc(x_i, x_j) for np.gcd or np.lcm: in int64 while max(x)^2, which
    bounds every entry, fits, else in Python ints."""
    x = np.array(s.elements, dtype=np.int64 if s.max * s.max < 1 << 63 else object)
    exact = ufunc.outer(x, x)
    return SymMatrix(len(s), exact.astype(np.float64), family, s, exact)


def _power(base: int, exponent: float) -> float:
    """float(base) ** exponent, inf where that overflows; SymMatrix then
    rejects the matrix with its family and exponents in the message."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return inf


def gcd_matrix(s: IntegerSet) -> SymMatrix:
    """Matrix with entry gcd(x_i, x_j); positive definite for any set."""
    return _outer(np.gcd, "gcd", s)


def lcm_matrix(s: IntegerSet) -> SymMatrix:
    """Matrix with entry lcm(x_i, x_j); indefinite whenever the set has >= 2 elements."""
    return _outer(np.lcm, "lcm", s)


def power_gcd_matrix(s: IntegerSet, epsilon: float) -> SymMatrix:
    """Matrix with entry gcd(x_i, x_j)^epsilon for any real epsilon."""
    xs = s.elements
    a = np.array([[_power(gcd(p, q), epsilon) for q in xs] for p in xs])
    return SymMatrix(len(xs), a, "power_gcd", s, params={"epsilon": epsilon})


def reciprocal_lcm_matrix(s: IntegerSet, r: float) -> SymMatrix:
    """Matrix with entry 1 / lcm(x_i, x_j)^r, r > 0."""
    if r <= 0:
        raise ValueError(f"exponent r must be > 0, got {r}")
    xs = s.elements
    a = np.array([[float(lcm(p, q)) ** -r for q in xs] for p in xs])
    return SymMatrix(len(xs), a, "reciprocal_lcm", s, params={"r": r})


def mixed_power_matrix(n: int, alpha: float, beta: float) -> SymMatrix:
    """Matrix with entry gcd(i,j)^alpha * lcm(i,j)^beta on {1..n}."""
    s = IntegerSet.first_n(n)
    xs = s.elements
    a = np.array(
        [[_power(gcd(p, q), alpha) * _power(lcm(p, q), beta) for q in xs] for p in xs]
    )
    return SymMatrix(n, a, "mixed", s, params={"alpha": alpha, "beta": beta})


def divisibility_matrix(n: int) -> np.ndarray:
    """The 0/1 matrix E with e_ij = 1 iff j | i (lower triangular, unit diagonal).

    Not symmetric, so returned as a plain integer array rather than a SymMatrix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(1, n + 1)
    return (k[:, None] % k == 0).astype(np.int64)


def divisibility_gram(n: int) -> SymMatrix:
    """E E^T for the divisibility matrix; entry (i,j) counts common divisors
    of i and j: tau(gcd(i, j)), with tau(i) the i-th row sum of E."""
    k = np.arange(1, n + 1)
    exact = divisibility_matrix(n).sum(axis=1)[np.gcd.outer(k, k) - 1]
    s = IntegerSet.first_n(n)
    return SymMatrix(n, exact.astype(np.float64), "divisibility_gram", s, exact)


def matrix_to_csv(matrix: SymMatrix, out: TextIO) -> None:
    """Write the full square matrix, row-major, one row per line: the exact
    integers where there are some, else the float entries to 10 digits."""
    integer = matrix.exact is not None
    for row in (matrix.exact if integer else matrix.entries).tolist():
        out.write(",".join(str(v) if integer else f"{v:.10g}" for v in row) + "\n")
