"""Exact-arithmetic tests: every closed form is checked against a brute-force
oracle that never touches the code path under test."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smith_spectra import arith
from smith_spectra.arith import (
    ArithTable,
    coprime_square_sum_table,
    dirichlet_convolve,
    divisors,
    exact_inertia,
    gcd_square_row_sum,
    jordan_totient,
    lcm_square_row_sum,
    power_table,
    s_squared_gcd,
    s_squared_lcm,
    sieve_mobius,
    sieve_totient,
    smith_determinant,
)
from smith_spectra.eig import jacobi_eigenvalues
from smith_spectra.matrices import (
    IntegerSet,
    gcd_matrix,
    lcm_matrix,
    mixed_power_matrix,
    power_gcd_matrix,
    reciprocal_lcm_matrix,
)

# ---------------------------------------------------------------------------
# oracles


def phi_oracle(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def mu_oracle(m: int) -> int:
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def gcd_row_oracle(i: int) -> int:
    return sum(gcd(i, j) ** 2 for j in range(1, i + 1))


def lcm_row_oracle(i: int) -> int:
    return sum(lcm(i, j) ** 2 for j in range(1, i + 1))


def omega_oracle(m: int) -> int:
    """Number of distinct prime factors of m, by trial division."""
    count, p = 0, 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (m > 1)


def coprime_square_oracle(t: int) -> int:
    return sum(k * k for k in range(1, t + 1) if gcd(k, t) == 1)


def s_squared_oracle(n: int, entry) -> Fraction:
    tr = Fraction(sum(entry(i, i) for i in range(1, n + 1)), n)
    tr2 = Fraction(sum(entry(i, j) ** 2 for i in range(1, n + 1) for j in range(1, n + 1)), n)
    return tr2 - tr * tr


def det_oracle(rows: list[list[int]]) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


# ---------------------------------------------------------------------------
# tables


def test_arith_table_limit_is_its_slot_count_less_one():
    for slots in ((), (0,)):
        with pytest.raises(ValueError):
            ArithTable(slots)
    table = ArithTable((0, 5, 7))
    assert table.limit == len(table) == 2
    assert table[2] == 7


@pytest.mark.parametrize("k", [0, 2])
def test_arith_table_index_outside_1_to_limit(k):
    with pytest.raises(IndexError, match=f"index {k} outside 1..1"):
        ArithTable((0, 5))[k]


# ---------------------------------------------------------------------------
# sieves


def test_totient_base_cases():
    assert list(sieve_totient(1).values[1:]) == [1]
    assert list(sieve_totient(6).values[1:]) == [1, 1, 2, 2, 4, 2]


def test_totient_against_oracle():
    table = sieve_totient(300)
    for m in range(1, 301):
        assert table[m] == phi_oracle(m)


def test_totient_prime_values():
    table = sieve_totient(100)
    for p in (2, 3, 5, 7, 11, 97):
        assert table[p] == p - 1


def test_totient_n20_values():
    table = sieve_totient(20)
    assert table[19] == 18
    assert table[20] == 8


def test_mobius_base_cases():
    assert list(sieve_mobius(4).values[1:]) == [1, -1, -1, 0]


def test_mobius_against_oracle():
    table = sieve_mobius(300)
    for m in range(1, 301):
        assert table[m] == mu_oracle(m)
        assert table[m] in (-1, 0, 1)


def test_mobius_divisor_sum_vanishes():
    # sum_{d|m} mu(d) == [m == 1]
    table = sieve_mobius(60)
    for m in (2, 12, 60):
        assert sum(table[d] for d in divisors(m)) == 0
    assert sum(table[d] for d in divisors(1)) == 1


def test_rejects_nonpositive_argument():
    for fn in (sieve_totient, sieve_mobius, lambda n: power_table(n, 0), smith_determinant,
               gcd_square_row_sum, lcm_square_row_sum, lambda t: coprime_square_sum_table(t)[t]):
        with pytest.raises(ValueError):
            fn(0)


# ---------------------------------------------------------------------------
# Jordan totient


def test_jordan_order_one_is_totient():
    assert list(jordan_totient(50, 1).values[1:]) == list(sieve_totient(50).values[1:])


def test_jordan_order_zero_is_unit():
    table = jordan_totient(20, 0)
    assert table[1] == 1
    assert all(table[m] == 0 for m in range(2, 21))


def test_jordan_against_divisor_sum_oracle():
    mu = sieve_mobius(40)
    table = jordan_totient(40, 2)
    for m in range(1, 41):
        assert table[m] == sum(d * d * mu[m // d] for d in divisors(m))
    assert table[6] == 24


def test_power_table_rejects_negative_exponent():
    with pytest.raises(ValueError, match="power exponent must be >= 0, got -1"):
        power_table(3, -1)


def test_jordan_rejects_negative_order():
    with pytest.raises(ValueError):
        jordan_totient(10, -1)


# ---------------------------------------------------------------------------
# Dirichlet convolution


def test_convolution_mobius_zeta_is_unit():
    n = 80
    conv = dirichlet_convolve(sieve_mobius(n), power_table(n, 0))
    assert conv[1] == 1
    assert all(conv[m] == 0 for m in range(2, n + 1))


def test_convolution_totient_zeta_is_identity_map():
    n = 80
    conv = dirichlet_convolve(sieve_totient(n), power_table(n, 0))
    assert list(conv.values[1:]) == list(range(1, n + 1))


def test_convolution_matches_direct_divisor_sum():
    n = 30
    f, g = power_table(n, 2), sieve_totient(n)
    conv = dirichlet_convolve(f, g)
    for m in range(1, n + 1):
        assert conv[m] == sum(f[d] * g[m // d] for d in divisors(m))
    assert conv[2] == 5


def test_convolution_rejects_mismatched_limits():
    with pytest.raises(ValueError):
        dirichlet_convolve(sieve_totient(5), power_table(6, 0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40))
def test_mobius_inversion_round_trip(values):
    # (f * mu) * zeta == f exactly, for arbitrary integer tables
    n = len(values)
    f = ArithTable(tuple([0] + values))
    back = dirichlet_convolve(dirichlet_convolve(f, sieve_mobius(n)), power_table(n, 0))
    assert list(back.values[1:]) == values


# ---------------------------------------------------------------------------
# row-sum identities


def test_gcd_row_sum_small_values():
    table = gcd_square_row_sum(12)
    assert table[1] == 1
    assert table[2] == 5
    assert table[12] == gcd_row_oracle(12)


def test_gcd_row_sum_against_oracle():
    table = gcd_square_row_sum(300)
    for i in range(1, 301):
        assert table[i] == gcd_row_oracle(i)


def test_coprime_square_sum_small_values():
    assert coprime_square_sum_table(1)[1] == 1
    assert coprime_square_sum_table(2)[2] == 1
    assert coprime_square_sum_table(6)[6] == 26


def test_coprime_square_sum_against_oracle():
    for t in range(1, 501):
        assert coprime_square_sum_table(t)[t] == coprime_square_oracle(t)


def test_lcm_row_sum_small_values():
    table = lcm_square_row_sum(6)
    assert table[1] == 1
    assert table[2] == 8
    assert table[6] == lcm_row_oracle(6)


def test_lcm_row_sum_against_oracle():
    table = lcm_square_row_sum(300)
    for i in range(1, 301):
        assert table[i] == lcm_row_oracle(i)


# ---------------------------------------------------------------------------
# trace statistics


def test_s_squared_gcd_hand_values():
    assert s_squared_gcd(2) == Fraction(5, 4)


def test_s_squared_lcm_hand_values():
    assert s_squared_lcm(2) == Fraction(17, 4)


# each case starts with no prefix table built: single orders, then an ascending
# walk across the power-of-two sizes the shared table grows to, then a
# descending walk that builds a large table first and reads small n from it
EDGES = (2, 3, 4, 5, 63, 64, 65, 127, 128, 129)
S_SQUARED_ORACLE_CASES = [(n,) for n in (2, 3, 4, 7, 12, 30)] + [EDGES, EDGES[::-1]]


@pytest.mark.parametrize("ns", S_SQUARED_ORACLE_CASES,
                         ids=["-".join(map(str, ns)) for ns in S_SQUARED_ORACLE_CASES])
def test_s_squared_against_double_sum_oracle(ns, monkeypatch):
    monkeypatch.setattr(arith, "_row_sum_prefix", {})
    for n in ns:
        assert s_squared_gcd(n) == s_squared_oracle(n, gcd)
        assert s_squared_lcm(n) == s_squared_oracle(n, lcm)


def test_s_squared_is_the_two_term_form_across_a_regrown_table(monkeypatch):
    # (2/n) P(n) - (7n^2 + 12n + 5)/12 for every n <= 4096, read from a
    # table of 2048 that the sweep regrows once, to 4096
    top = 4096
    prefixes = {family: list(accumulate(row_sums(top).values)) for family, row_sums in (
        ("gcd", arith.gcd_square_row_sum), ("lcm", arith.lcm_square_row_sum))}
    builds = []
    for name in ("gcd_square_row_sum", "lcm_square_row_sum"):
        real = getattr(arith, name)
        monkeypatch.setattr(arith, name,
                            lambda n, real=real: builds.append(n) or real(n))
    monkeypatch.setattr(arith, "_row_sum_prefix", {})
    for family, prefix in prefixes.items():
        arith.s_squared(top // 2, family)
        for n in range(2, top + 1):
            two_term = Fraction(2 * prefix[n], n) - Fraction(7 * n * n + 12 * n + 5, 12)
            assert arith.s_squared(n, family) == two_term, (family, n)
    assert builds == [top // 2, top] * 2


def test_s_squared_positive():
    for n in range(2, 120):
        assert s_squared_gcd(n) > 0
        assert s_squared_lcm(n) > 0


def test_s_squared_rejects_small_n():
    with pytest.raises(ValueError):
        s_squared_gcd(1)
    with pytest.raises(ValueError):
        s_squared_lcm(1)


# ---------------------------------------------------------------------------
# Smith determinant


def test_smith_determinant_values():
    assert smith_determinant(1) == 1
    assert smith_determinant(4) == 4
    assert smith_determinant(6) == 32


def test_smith_determinant_matches_cofactor_oracle():
    for n in (2, 3, 4, 5, 6):
        rows = [[gcd(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        assert det_oracle(rows) == smith_determinant(n)


# ---------------------------------------------------------------------------
# exact inertia: Smith's factorization and Sylvester's law of inertia


def sign_counts(values) -> tuple[int, int, int]:
    positive = sum(1 for v in values if v > 0)
    negative = sum(1 for v in values if v < 0)
    return positive, negative, len(values) - positive - negative


def test_verify_runs_the_sieve_once_per_process():
    # run_checks asks the tables for many orders; they all slice one sieve
    code = (
        "from smith_spectra import arith, checks\n"
        "real, runs = arith._linear_sieve, []\n"
        "arith._linear_sieve = lambda n: runs.append(n) or real(n)\n"
        "checks.run_checks(80)\n"
        "print(len(runs))\n"
    )
    src = os.path.dirname(os.path.dirname(arith.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert int(proc.stdout) <= 1


def test_sieve_sign_is_omega_parity():
    sign = arith._linear_sieve(2000)[2]
    assert sign[1:] == [(-1) ** omega_oracle(d) for d in range(1, 2001)]


@pytest.mark.parametrize("build, epsilon", [
    (lambda n: power_gcd_matrix(IntegerSet.first_n(n), -2.0), -2.0),
    (lambda n: power_gcd_matrix(IntegerSet.first_n(n), -1.0), -1.0),
    (lambda n: power_gcd_matrix(IntegerSet.first_n(n), -0.5), -0.5),
    (lambda n: power_gcd_matrix(IntegerSet.first_n(n), 0.7), 0.7),
    (lambda n: power_gcd_matrix(IntegerSet.first_n(n), 1.0), 1.0),
    # 1/lcm^r = D^-r gcd^r D^-r
    (lambda n: reciprocal_lcm_matrix(IntegerSet.first_n(n), 1.5), 1.5),
    # gcd^alpha lcm^beta = D^beta gcd^(alpha - beta) D^beta; at (1, 2) the
    # smallest |lambda| / ||A||_F is about 1e-9
    (lambda n: mixed_power_matrix(n, 1.0, 2.0), -1.0),
    (lambda n: mixed_power_matrix(n, 2.0, 0.5), 1.5),
], ids=["power-gcd(-2)", "power-gcd(-1)", "power-gcd(-0.5)", "power-gcd(0.7)",
        "power-gcd(1)", "recip-lcm(1.5)", "mixed(1,2)", "mixed(2,0.5)"])
def test_exact_inertia_matches_eigvalsh(build, epsilon):
    counts = exact_inertia(60, epsilon)
    for n in range(1, 61):
        assert counts[n - 1] == sign_counts(np.linalg.eigvalsh(build(n).entries)), n


def test_exact_inertia_epsilon_zero_is_rank_one():
    # gcd^0 is the all-ones matrix
    assert exact_inertia(50, 0.0) == [(1, 0, n - 1) for n in range(1, 51)]


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
def test_exact_inertia_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        exact_inertia(5, epsilon)


def test_exact_inertia_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        exact_inertia(0, -1.0)


@pytest.mark.parametrize("build, epsilon", [(gcd_matrix, 1.0), (lcm_matrix, -1.0)],
                         ids=["gcd", "lcm"])
def test_exact_inertia_matches_the_solver(build, epsilon):
    counts = exact_inertia(40, epsilon)
    for n in range(1, 41):
        spectrum = jacobi_eigenvalues(build(IntegerSet.first_n(n)))
        assert counts[n - 1] == sign_counts(spectrum.eigenvalues), n


def test_known_defect_power_gcd_sign_at_minus_sixty():
    """Known defect (ROADMAP item 6): Jacobi gets a sign wrong on a graded family.

    For gcd^-60 on {1..4} the solver prints lambda_3 = 4.341e-17, whose true
    value is about -4.34e-19 (mpmath, 80 digits). The error lies within the
    solver's absolute target of 1e-12 * ||A||_F and nothing in the output flags
    it, so the float sign counts disagree with the exact inertia. Item 6's
    relative accuracy route is expected to flip this test.
    """
    spectrum = jacobi_eigenvalues(power_gcd_matrix(IntegerSet.first_n(4), -60.0))
    assert sign_counts(spectrum.eigenvalues) == (2, 2, 0)
    assert exact_inertia(4, -60.0)[-1] == (1, 3, 0)
