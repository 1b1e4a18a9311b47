"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 is asserted exactly as stated over 3 <= n <= 200 for both
families. The lcm inner bound at n = 3 genuinely fails (the interlacing
step behind its +32 cross term reverses at order 3: by interlacing the
order-3 gap mu_3^(2) - mu_3^(1) is <= the order-4 gap, not >=), so that
single sub-case is expected to show up as a real failure here; see
tests/test_bounds.py::TestLcmBounds::test_n3_inner_min_bound_is_violated
for the pinned numbers. The criterion is left faithful rather than
weakened around the defect.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, sqrt

from smith_spectra.arith import (
    coprime_square_sum,
    gcd_square_row_sum,
    lcm_square_row_sum,
    power_table,
    s_squared_gcd,
    s_squared_lcm,
    sieve_totient,
    smith_determinant,
)
from smith_spectra.bounds import (
    closed_form_summary,
    gcd_bounds,
    hong_cn,
    hong_lower_bound,
    lcm_bounds,
    ws_bounds,
)
from smith_spectra.cli import main
from smith_spectra.eig import jacobi_eigenvalues, jacobi_spectra
from smith_spectra.matrices import IntegerSet, gcd_matrix, lcm_matrix

SWEEP_MAX = 200


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def run_cli_json(*argv: str) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--format", "json"])
    assert code == 0, f"CLI exited {code}"
    return json.loads(buf.getvalue())


@lru_cache(maxsize=1)
def sweep_spectra():
    """Solver spectra of both families for 2 <= n <= 200, solved once in one
    batch: the order n matrices are the leading blocks of the order 200 ones."""
    largest = [build(IntegerSet.first_n(SWEEP_MAX)) for build in (gcd_matrix, lcm_matrix)]
    orders = range(2, SWEEP_MAX + 1)
    solved = iter(jacobi_spectra([m.leading(n) for n in orders for m in largest]))
    return {n: (next(solved), next(solved)) for n in orders}


def test_criterion_1_gcd_reference_bounds_n20():
    start = time.perf_counter()
    payload = run_cli_json("bounds", "--family", "gcd", "--n", "20")
    elapsed = time.perf_counter() - start
    row = payload["rows"][0]
    expected = {
        "min_lower": -40.2114, "min_upper": 7.8123,
        "max_lower": 13.1876, "max_upper": 61.2114,
    }
    errors = {key: abs(row[key] - val) for key, val in expected.items()}
    ok = all(err <= 5e-4 for err in errors.values()) and elapsed < 1.0
    assert report(1, ok, f"gcd n=20 bound quadruple within 5e-4 in {elapsed:.3f}s"), \
        f"errors={errors}, elapsed={elapsed:.3f}s"


def test_criterion_2_small_order_reference_eigenvalues():
    start = time.perf_counter()
    gcd3 = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(3)))
    lcm4 = jacobi_eigenvalues(lcm_matrix(IntegerSet.first_n(4)))
    elapsed = time.perf_counter() - start
    checks = {
        "gcd3_lambda1": (gcd3.eigenvalues[0], 0.324),
        "gcd3_lambda2": (gcd3.eigenvalues[1], 1.460),
        "lcm4_mu1": (lcm4.eigenvalues[0], -8.843),
        "lcm4_mu3": (lcm4.eigenvalues[2], -0.312),
    }
    errors = {k: abs(a - e) for k, (a, e) in checks.items()}
    ok = all(err <= 5e-3 for err in errors.values()) and elapsed < 1.0
    assert report(2, ok, f"order-3/order-4 reference eigenvalues within 5e-3 in {elapsed:.3f}s"), \
        f"errors={errors}"


def test_criterion_3_exact_order2_lcm_spectrum():
    spec = jacobi_eigenvalues(lcm_matrix(IntegerSet.of(1, 2)))
    lo, hi = (3 - sqrt(17)) / 2, (3 + sqrt(17)) / 2
    err = max(abs(spec.eigenvalues[0] - lo), abs(spec.eigenvalues[1] - hi))
    ok = err <= 1e-10
    assert report(3, ok, f"lcm {{1,2}} spectrum matches (3 +- sqrt 17)/2, max err {err:.2e}"), err


def test_criterion_4_mh_interval_n20():
    payload = run_cli_json("compare", "--n", "20")
    row = payload["rows"][0]
    err_lo = abs(row["mh_lower"] - (-595.8214))
    err_hi = abs(row["mh_upper"] - 597.8214)
    ok = err_lo <= 1e-3 and err_hi <= 1e-3
    assert report(4, ok, f"n=20 interval endpoints within 1e-3 (errs {err_lo:.2e}, {err_hi:.2e})"), \
        (err_lo, err_hi)


def test_criterion_5_exact_identity_suite():
    start = time.perf_counter()
    bad = []

    gcd_rows = gcd_square_row_sum(300)
    lcm_rows = lcm_square_row_sum(300)
    for i in range(1, 301):
        if gcd_rows[i] != sum(gcd(i, j) ** 2 for j in range(1, i + 1)):
            bad.append(("gcd_rowsum", i))
        if lcm_rows[i] != sum(lcm(i, j) ** 2 for j in range(1, i + 1)):
            bad.append(("lcm_rowsum", i))
    for t in range(1, 501):
        if coprime_square_sum(t) != sum(k * k for k in range(1, t + 1) if gcd(k, t) == 1):
            bad.append(("coprime_square_sum", t))

    tr2_gcd = tr2_lcm = 1  # n = 1 contribution
    for n in range(2, 201):
        tr2_gcd += 2 * sum(gcd(n, j) ** 2 for j in range(1, n)) + n * n
        tr2_lcm += 2 * sum(lcm(n, j) ** 2 for j in range(1, n)) + n * n
        m = Fraction(n + 1, 2)
        if s_squared_gcd(n) != Fraction(tr2_gcd, n) - m * m:
            bad.append(("s_squared_gcd", n))
        if s_squared_lcm(n) != Fraction(tr2_lcm, n) - m * m:
            bad.append(("s_squared_lcm", n))

    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    assert report(5, ok, f"exact identities vs brute force (rows<=300, coprime<=500, "
                         f"s^2<=200) in {elapsed:.1f}s"), f"bad={bad[:5]}, elapsed={elapsed:.1f}"


def test_criterion_6_bracketing_sweep():
    start = time.perf_counter()
    violations = []
    for n in range(3, SWEEP_MAX + 1):
        gcd_spec, lcm_spec = sweep_spectra()[n]
        for family, spec, improved in (
            ("gcd", gcd_spec, gcd_bounds(n)),
            ("lcm", lcm_spec, lcm_bounds(n)),
        ):
            rep = improved.with_actual(spec)
            if not rep.brackets_actual():
                violations.append((family, n, "bracket", rep.actual_min, rep.lambda_min_upper))
                continue
            ws = ws_bounds(closed_form_summary(n, family), family)
            if not (rep.lambda_min_upper < ws.lambda_min_upper
                    and rep.lambda_max_lower > ws.lambda_max_lower):
                violations.append((family, n, "not tighter than ws"))
            s2 = closed_form_summary(n, family).s_squared
            if family == "gcd":
                gain = (n * s2 + 2 * (n - 1)) / Fraction(n * n - n) - s2 / (n - 1)
                expected_gain = Fraction(2, n)
            else:
                gain = (s2 + 32 * (n - 1)) / Fraction(n - 1) - s2 / (n - 1)
                expected_gain = Fraction(32)
            if gain != expected_gain:
                violations.append((family, n, "radicand gain", gain))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    assert report(6, ok, f"strict bracketing + improvement sweep 3..{SWEEP_MAX} "
                         f"in {elapsed:.1f}s ({len(violations)} violation(s))"), \
        f"violations={violations}"


def test_criterion_7_structural_invariants():
    bad = []
    spectra = sweep_spectra()

    for n in range(2, SWEEP_MAX + 1):
        gcd_spec, lcm_spec = spectra[n]
        if gcd_spec.min <= 0:
            bad.append(("gcd_positive_definite", n))
        if not (lcm_spec.min < 0 < lcm_spec.max):
            bad.append(("lcm_indefinite", n))

    for n in range(2, 26):
        det = 1.0
        for v in spectra[n][0].eigenvalues:
            det *= v
        expected = smith_determinant(n)
        if abs(det - expected) > 1e-6 * abs(expected):
            bad.append(("determinant", n, det, expected))

    # leading principal submatrix of order n is the order n-1 matrix
    for n in range(3, 61):
        for idx, family in ((0, "gcd"), (1, "lcm")):
            lam = spectra[n][idx].eigenvalues
            mu = spectra[n - 1][idx].eigenvalues
            slack = 1e-9 * max(abs(v) for v in lam)
            for k in range(n - 1):
                if not (lam[k] <= mu[k] + slack and mu[k] <= lam[k + 1] + slack):
                    bad.append(("interlacing", family, n, k))

    ok = not bad
    assert report(7, ok, "positive definiteness, totient-product determinant, "
                         "indefiniteness, interlacing"), f"bad={bad[:5]}"


def test_criterion_8_hong_constant_and_lower_bound():
    c2 = hong_cn(2).c_n
    err = abs(c2 - (3 - sqrt(5)) / 2)
    bad = []
    if err > 1e-10:
        bad.append(("c2", err))

    rng = random.Random(87)
    for n in range(2, 7):
        c_n = hong_cn(n).c_n
        for _ in range(5):
            elements = sorted(rng.sample(range(1, 61), n))
            s = IntegerSet.of(*elements)
            bound = hong_lower_bound(s, power_table(s.max, 1), c_n)
            smallest = jacobi_eigenvalues(gcd_matrix(s)).min
            if smallest < bound:
                bad.append((n, elements, smallest, bound))

    ok = not bad
    assert report(8, ok, f"c_2 exact within 1e-10 (err {err:.2e}); smallest eigenvalue "
                         f">= c_n * min phi on 5 random sets for each n in 2..6"), f"bad={bad}"
