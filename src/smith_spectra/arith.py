"""Exact arithmetical-function machinery.

Everything here is computed in Python's unbounded integers (reduced to
`fractions.Fraction` where a ratio is needed), so the identity checks against
brute-force oracles are exact equalities, never tolerance comparisons.

Core identities used by the trace statistics of the gcd and lcm matrices on
{1..n}:

    sum_{j<=i} gcd(i,j)^2  =  (N^2 * phi)(i)                      (Cesaro)
    sum_{k<=t, gcd(k,t)=1} k^2  =  ((N^2 mu) * S)(t),   S(q) = q(q+1)(2q+1)/6
    sum_{j<=i} lcm(i,j)^2  =  i^2 (g * zeta)(i),   g = the coprime square sum

where ``*`` is Dirichlet convolution, N(k) = k, phi is Euler's totient and
mu the Moebius function.
Every table reads phi, mu or (-1)^omega from one sieve per process, grown
on demand (never at import).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isfinite, prod


@dataclass(frozen=True)
class ArithTable:
    """Values of an arithmetical function on 1..limit, 1-indexed.

    ``values`` has ``limit + 1`` slots; slot 0 is unused and kept at 0 so
    that ``table[k]`` is the value at k.
    """

    limit: int
    values: tuple[int, ...]
    label: str

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("table limit must be >= 1")
        if len(self.values) != self.limit + 1:
            raise ValueError(
                f"table of limit {self.limit} needs {self.limit + 1} slots, "
                f"got {len(self.values)}"
            )

    def __getitem__(self, k: int) -> int:
        if not 1 <= k <= self.limit:
            raise IndexError(f"index {k} outside 1..{self.limit}")
        return self.values[k]

    def __len__(self) -> int:
        return self.limit

    def to_list(self) -> list[int]:
        """Values at 1..limit as a plain list."""
        return list(self.values[1:])


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"argument must be a positive integer, got {n}")


def _table(limit: int, slots: list[int] | tuple[int, ...], label: str) -> ArithTable:
    return ArithTable(limit, tuple(slots), label)


def _linear_sieve(n: int) -> tuple[list[int], list[int], list[int]]:
    """phi, mu and sign = (-1)^omega (omega(d): distinct primes of d) on 0..n
    by one linear (Euler) sieve, O(n)."""
    phi = [0] * (n + 1)
    mu = [0] * (n + 1)
    sign = [0] * (n + 1)
    phi[1] = mu[1] = sign[1] = 1
    smallest = [0] * (n + 1)  # smallest prime factor, 0 = not yet seen
    primes: list[int] = []
    for i in range(2, n + 1):
        if smallest[i] == 0:
            smallest[i] = i
            phi[i] = i - 1
            mu[i] = sign[i] = -1
            primes.append(i)
        for p in primes:
            if p > smallest[i] or i * p > n:
                break
            smallest[i * p] = p
            if p == smallest[i]:
                phi[i * p] = phi[i] * p
                mu[i * p] = 0
                sign[i * p] = sign[i]
            else:
                phi[i * p] = phi[i] * (p - 1)
                mu[i * p] = -mu[i]
                sign[i * p] = -sign[i]
    return phi, mu, sign


# phi, mu and sign on 0..limit: the process's one sieve, filled on first use
_sieve: tuple[tuple[int, ...], ...] = ((0,), (0,), (0,))


def _sieved(n: int, k: int) -> tuple[int, ...]:
    """The k-th sieve table (0 phi, 1 mu, 2 sign) on 0..n, from the sieve
    regrown to a power of two."""
    global _sieve
    sieve = _sieve
    if len(sieve[0]) <= n:
        sieve = _sieve = tuple(map(tuple, _linear_sieve(1 << (n - 1).bit_length())))
    return sieve[k][:n + 1]


def sieve_totient(n: int) -> ArithTable:
    """Euler's totient phi on 1..n, O(n)."""
    _require_positive(n)
    return _table(n, _sieved(n, 0), "phi")


def sieve_mobius(n: int) -> ArithTable:
    """Moebius mu on 1..n, O(n)."""
    _require_positive(n)
    return _table(n, _sieved(n, 1), "mu")


def zeta_table(n: int) -> ArithTable:
    """The constant function zeta(k) = 1 on 1..n."""
    _require_positive(n)
    return _table(n, [0] + [1] * n, "zeta")


def power_table(n: int, k: int) -> ArithTable:
    """N_k(m) = m^k on 1..n, for integer k >= 0."""
    _require_positive(n)
    if k < 0:
        raise ValueError(f"power exponent must be >= 0, got {k}")
    return _table(n, [0] + [m**k for m in range(1, n + 1)], f"N^{k}")


def jordan_totient(n: int, k: int) -> ArithTable:
    """Jordan totient J_k = N^k * mu on 1..n (J_1 = phi, J_0 = unit at 1)."""
    _require_positive(n)
    if k < 0:
        raise ValueError(f"Jordan totient order must be >= 0, got {k}")
    return dirichlet_convolve(power_table(n, k), sieve_mobius(n), label=f"jordan_{k}")


def dirichlet_convolve(f: ArithTable, g: ArithTable, label: str | None = None) -> ArithTable:
    """Dirichlet convolution (f * g)(m) = sum_{d|m} f(d) g(m/d).

    Both tables must share the same limit; divisor iteration gives
    O(n log n) exact integer work.
    """
    if f.limit != g.limit:
        raise ValueError(f"table limits differ: {f.limit} != {g.limit}")
    n = f.limit
    fv, gv = f.values, g.values
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        fd = fv[d]
        if fd == 0:
            continue
        for q in range(1, n // d + 1):
            out[d * q] += fd * gv[q]
    return _table(n, out, label or f"({f.label})*({g.label})")


def divisors(t: int) -> list[int]:
    """Sorted divisors of t by trial division up to sqrt(t)."""
    _require_positive(t)
    small, large = [], []
    d = 1
    while d * d <= t:
        if t % d == 0:
            small.append(d)
            if d * d != t:
                large.append(t // d)
        d += 1
    return small + large[::-1]


def gcd_square_row_sum(n: int) -> ArithTable:
    """Row sums sum_{j<=i} gcd(i,j)^2 for i = 1..n, via (N^2 * phi)(i)."""
    _require_positive(n)
    return dirichlet_convolve(power_table(n, 2), sieve_totient(n), label="N^2*phi")


def coprime_square_sum(t: int) -> int:
    """Sum of k^2 over 1 <= k <= t with gcd(k, t) = 1."""
    return coprime_square_sum_table(t)[t]


def coprime_square_sum_table(n: int) -> ArithTable:
    """coprime_square_sum(t) for all t <= n in one O(n log n) pass.

    Moebius inversion over d = gcd(k, t) gives sum_{d|t} mu(d) d^2 S(t/d),
    i.e. ((N^2 mu) * S)(t) with S(q) = q(q + 1)(2q + 1)/6 the sum of the
    first q squares: one convolution of integer tables, no division after.
    """
    mu = sieve_mobius(n)
    n2_mu = _table(n, [d * d * m for d, m in enumerate(mu.values)], "N^2*mu")
    squares = _table(n, list(accumulate(q * q for q in range(n + 1))), "S")
    return dirichlet_convolve(n2_mu, squares, label="coprime_sq")


def lcm_square_row_sum(n: int) -> ArithTable:
    """Row sums sum_{j<=i} lcm(i,j)^2 for i = 1..n.

    Computed through the identity i^2 (g * zeta)(i) with g the coprime
    square sum, exact integers throughout.
    """
    _require_positive(n)
    gz = dirichlet_convolve(coprime_square_sum_table(n), zeta_table(n)).values
    return _table(n, [i * i * v for i, v in enumerate(gz)], "lcm_sq_rowsum")


# family -> prefix sums P[k] = sum_{i<=k} (row sum i), for k = 0..limit; one
# table per family, regrown to the next power of two >= n when n outgrows it
_row_sum_prefix: dict[str, list[int]] = {}


def s_squared(n: int, family: str) -> Fraction:
    """Spectral variance s^2 = tr(A^2)/n - (tr A / n)^2 of the gcd or lcm
    matrix on {1..n}, exact: (2/n) P(n) - (7n^2 + 12n + 5)/12, with P(n) the
    sum of the first n row sums, read from the family's prefix table. The
    centering term (1/n) sum i^2 + ((n+1)/2)^2 is (7n^2 + 12n + 5)/12, so
    s^2 is the one fraction (24 P(n) - n(7n^2 + 12n + 5)) / (12n)."""
    if family not in ("gcd", "lcm"):
        raise ValueError(f"no closed form for family {family!r}")
    if n < 2:
        raise ValueError(f"s^2 needs n >= 2, got {n}")
    prefix = _row_sum_prefix.get(family)
    if prefix is None or len(prefix) <= n:
        row_sums = gcd_square_row_sum if family == "gcd" else lcm_square_row_sum
        prefix = list(accumulate(row_sums(1 << (n - 1).bit_length()).values))
        _row_sum_prefix[family] = prefix
    return Fraction(24 * prefix[n] - n * (7 * n * n + 12 * n + 5), 12 * n)


def s_squared_gcd(n: int) -> Fraction:
    """s_squared(n, "gcd"): (2/n) sum_{i<=n} (N^2 * phi)(i) - (7n^2 + 12n + 5)/12."""
    return s_squared(n, "gcd")


def s_squared_lcm(n: int) -> Fraction:
    """s_squared(n, "lcm"): (2/n) sum_{i<=n} i^2 (g * zeta)(i) - (7n^2 + 12n + 5)/12."""
    return s_squared(n, "lcm")


def exact_inertia(n: int, epsilon: float) -> list[tuple[int, int, int]]:
    """(positive, negative, zero) eigenvalue counts of (gcd(i, j)^epsilon) on {1..k},
    k = 1..n (entry k - 1). By Smith it is E diag(N^epsilon * mu) E^T, E invertible, so
    by Sylvester its signs are all + (epsilon > 0), (-1)^omega(d) (epsilon < 0) or the
    unit at 1 (epsilon = 0). With D = diag(1..n), lcm = D gcd^-1 D, 1/lcm^r =
    D^-r gcd^r D^-r and gcd^alpha lcm^beta = D^beta gcd^(alpha - beta) D^beta.
    """
    _require_positive(n)
    if not isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon > 0:
        return [(k, 0, 0) for k in range(1, n + 1)]
    if epsilon == 0:
        return [(1, 0, k - 1) for k in range(1, n + 1)]
    odd = list(accumulate((v < 0 for v in _sieved(n, 2)[1:]), initial=0))
    return [(k - odd[k], odd[k], 0) for k in range(1, n + 1)]


def smith_determinant(n: int) -> int:
    """Determinant of the gcd matrix on {1..n}: the product phi(1) ... phi(n)."""
    _require_positive(n)
    return prod(sieve_totient(n).values[1:])
