"""Constructors for gcd/lcm-family matrices on integer sets.

Integer-valued families (gcd, lcm, divisibility Gram) are built in exact
integers and carry that exact copy alongside the float64 entries handed to
the eigensolver, so trace statistics can stay rational. Real-exponent
families (power gcd, reciprocal lcm, mixed) are built directly in floating
point.

Matrices are immutable after construction: the float entry array is marked
read-only and the eigensolver works on a private copy.
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
    exact: tuple[tuple[int, ...], ...] | None = None
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

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def _from_exact(rows: list[list[int]], family: str, s: IntegerSet) -> SymMatrix:
    return SymMatrix(
        order=len(rows),
        entries=np.array(rows, dtype=np.float64),
        family=family,
        source_set=s,
        exact=tuple(tuple(r) for r in rows),
    )


def _power(base: int, exponent: float) -> float:
    """float(base) ** exponent, inf where that overflows; SymMatrix then
    rejects the matrix with its family and exponents in the message."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return inf


def gcd_matrix(s: IntegerSet) -> SymMatrix:
    """Matrix with entry gcd(x_i, x_j); positive definite for any set."""
    xs = s.elements
    rows = [[gcd(a, b) for b in xs] for a in xs]
    return _from_exact(rows, "gcd", s)


def lcm_matrix(s: IntegerSet) -> SymMatrix:
    """Matrix with entry lcm(x_i, x_j); indefinite whenever the set has >= 2 elements."""
    xs = s.elements
    rows = [[lcm(a, b) for b in xs] for a in xs]
    return _from_exact(rows, "lcm", s)


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
    return np.array([[1 if i % j == 0 else 0 for j in range(1, n + 1)] for i in range(1, n + 1)],
                    dtype=np.int64)


def divisibility_gram(n: int) -> SymMatrix:
    """E E^T for the divisibility matrix; entry (i,j) counts common divisors of i and j."""
    e = divisibility_matrix(n)
    rows = (e @ e.T).tolist()
    return _from_exact(rows, "divisibility_gram", IntegerSet.first_n(n))


def matrix_to_csv(matrix: SymMatrix | np.ndarray, out: TextIO) -> None:
    """Write the full square matrix, row-major, one row per line."""
    a = matrix.entries if isinstance(matrix, SymMatrix) else matrix
    exact = isinstance(matrix, SymMatrix) and matrix.exact is not None
    rows = matrix.exact if exact else a
    for row in rows:
        if exact or np.issubdtype(a.dtype, np.integer):
            out.write(",".join(str(int(v)) for v in row))
        else:
            out.write(",".join(f"{float(v):.10g}" for v in row))
        out.write("\n")
