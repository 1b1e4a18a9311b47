"""Bound-family tests. The in-house Jacobi solver provides actual extreme
eigenvalues; closed-form trace statistics are cross-checked against matrix
traces; golden constants for the small-order cross terms are recomputed
from the solver rather than hard-coded."""

import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import sqrt

import numpy as np
import pytest

from smith_spectra import arith, bounds, checks, matrices
from smith_spectra.arith import power_table, sieve_totient, zeta_table
from smith_spectra.bounds import (
    HONG_MAX_N,
    WS_FALLBACK_FLAG,
    BoundsReport,
    SpectralSummary,
    _hong_margin,
    _trace_certificates,
    _unit_lower,
    closed_form_summary,
    gcd_bounds,
    hong_cn,
    hong_lee_bounds,
    hong_lower_bound,
    improved_bounds,
    inner_radicand,
    lcm_bounds,
    mh_interval,
    spectral_summary,
    ws_bounds,
)
from smith_spectra.eig import jacobi_eigenvalues
from smith_spectra.matrices import (
    IntegerSet,
    divisibility_gram,
    gcd_matrix,
    lcm_matrix,
    reciprocal_lcm_matrix,
)


def solve(matrix):
    return jacobi_eigenvalues(matrix)


@lru_cache(maxsize=None)
def _hong_exhaustive(n):
    """Every unit lower-triangular 0/1 Y of order n in itertools.product
    order over the below-diagonal positions, row by row, as a (B, n, n)
    stack, with lambda_min(Y Y^T) from the solver, one matrix at a time,
    and from eigvalsh."""
    positions = [(i, j) for i in range(1, n) for j in range(i)]
    y = np.array([np.eye(n, dtype=np.int64)] * (1 << len(positions)))
    for k, bits in enumerate(product((0, 1), repeat=len(positions))):
        for bit, (i, j) in zip(bits, positions):
            y[k, i, j] = bit
    gram = (y @ y.transpose(0, 2, 1)).astype(np.float64)
    smallest = np.array([jacobi_eigenvalues(g).min for g in gram])
    return smallest, np.linalg.eigvalsh(gram)[:, 0], y


class TestSpectralSummary:
    def test_exact_is_read_from_the_values(self):
        assert SpectralSummary(3, Fraction(2), Fraction(1, 3)).exact
        assert closed_form_summary(7, "lcm").exact
        assert not SpectralSummary(3, 2.0, Fraction(1, 3)).exact
        assert not SpectralSummary(3, Fraction(2), 0.5).exact


class TestWolkowiczStyan:
    def test_equality_at_n2_gcd(self):
        rep = ws_bounds(spectral_summary(gcd_matrix(IntegerSet.of(1, 2))), "gcd")
        exact = (3 - sqrt(5)) / 2
        assert rep.lambda_min_lower == pytest.approx(exact, abs=1e-12)
        assert rep.lambda_min_upper == pytest.approx(exact, abs=1e-12)
        assert rep.lambda_max_lower == pytest.approx(3 - exact, abs=1e-12)

    def test_equality_at_n2_lcm(self):
        rep = ws_bounds(spectral_summary(lcm_matrix(IntegerSet.of(1, 2))), "lcm")
        exact = (3 - sqrt(17)) / 2
        assert rep.lambda_min_lower == pytest.approx(exact, abs=1e-12)
        assert rep.lambda_min_upper == pytest.approx(exact, abs=1e-12)

    def test_zero_variance_collapses_to_mean(self):
        rep = ws_bounds(SpectralSummary(5, Fraction(3), Fraction(0)), "custom")
        assert (
            rep.lambda_min_lower
            == rep.lambda_min_upper
            == rep.lambda_max_lower
            == rep.lambda_max_upper
            == 3.0
        )

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            ws_bounds(SpectralSummary(1, Fraction(1), Fraction(0)), "custom")

    @pytest.mark.parametrize("n", [2, 5, 20, 77])
    def test_closed_form_pipeline_is_bitwise_identical(self, n):
        # same exact rationals -> identical floats, for both families
        for family, build in (("gcd", gcd_matrix), ("lcm", lcm_matrix)):
            from_traces = ws_bounds(spectral_summary(build(IntegerSet.first_n(n))), family)
            from_closed = ws_bounds(closed_form_summary(n, family), family)
            assert from_traces == from_closed

    @pytest.mark.parametrize("n", [2, 6, 33])
    def test_brackets_contain_actual_extremes(self, n):
        for build, family in ((gcd_matrix, "gcd"), (lcm_matrix, "lcm")):
            m = build(IntegerSet.first_n(n))
            rep = ws_bounds(spectral_summary(m), family).with_actual(solve(m))
            tol = 1e-9 * max(1.0, abs(rep.actual_max))
            assert rep.lambda_min_lower - tol <= rep.actual_min <= rep.lambda_min_upper + tol
            assert rep.lambda_max_lower - tol <= rep.actual_max <= rep.lambda_max_upper + tol



def test_known_defect_ws_inner_bound_cancels_when_s_is_close_to_m():
    """Known defect (ROADMAP item 4): ws_bounds loses every digit of
    m - s/sqrt(n-1) when s/sqrt(n-1) is close to m.

    On the gcd matrix of {2, 3, 2^60}, m and s/sqrt(2) are both 3.84e17 and
    m - s/sqrt(2) is 2.4999999999999999973 (mpmath, 60 digits), but the float
    difference is 0: an upper bound on lambda_min that lies below the true
    lambda_min = 1.38196601125. The solver's actual_min is 2, the diagonal
    after 0 sweeps: the off-diagonal norm sqrt(12) = 3.46 is already under its
    target 1e-12 * ||A||_F = 1.15e6. Evaluating m - c*s from the exact
    rationals, as (m^2 - c^2 s^2)/(m + c*s), is expected to flip this test.
    """
    matrix = gcd_matrix(IntegerSet.of(2, 3, 1 << 60))
    summary = spectral_summary(matrix)
    spectrum = solve(matrix)
    rep = ws_bounds(summary, "gcd").with_actual(spectrum)
    assert rep.lambda_min_upper == 0.0 < 1.38196601125
    assert (spectrum.sweeps, rep.actual_min) == (0, 2.0)
    assert spectrum.off_norm == pytest.approx(sqrt(12))
    assert spectrum.off_norm < 1e-12 * np.linalg.norm(matrix.entries)
    # the exact route keeps the digits
    gap = summary.m ** 2 - summary.s_squared / 2
    assert float(gap) / (float(summary.m) + summary.s / sqrt(2)) == pytest.approx(2.5)


class TestGcdBounds:
    def test_reference_values_at_n20(self):
        rep = gcd_bounds(20)
        assert rep.m == pytest.approx(10.5)
        assert rep.trace == pytest.approx(210.0)
        assert rep.s == pytest.approx(11.634, abs=5e-4)
        assert rep.lambda_min_lower == pytest.approx(-40.2114, abs=5e-4)
        assert rep.lambda_min_upper == pytest.approx(7.8123, abs=5e-4)
        assert rep.lambda_max_lower == pytest.approx(13.1876, abs=5e-4)
        assert rep.lambda_max_upper == pytest.approx(61.2114, abs=5e-4)

    def test_n3_brackets_actual(self):
        rep = gcd_bounds(3).with_actual(solve(gcd_matrix(IntegerSet.first_n(3))))
        assert rep.actual_min == pytest.approx(0.324, abs=5e-3)
        assert rep.brackets_actual()

    def test_n2_falls_back_to_ws(self):
        rep = gcd_bounds(2)
        assert rep.flag == WS_FALLBACK_FLAG
        assert rep.method == "ws"
        assert rep == replace(ws_bounds(closed_form_summary(2, "gcd"), "gcd"),
                              flag=WS_FALLBACK_FLAG)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            gcd_bounds(1)

    @pytest.mark.parametrize("n", range(3, 61))
    def test_strict_bracketing_sweep(self, n):
        rep = gcd_bounds(n).with_actual(solve(gcd_matrix(IntegerSet.first_n(n))))
        assert rep.brackets_actual(), f"gcd bracket failed at n={n}: {rep}"

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_radicand_improves_ws_by_two_over_n(self, n):
        s2 = closed_form_summary(n, "gcd").s_squared
        improved = (n * s2 + 2 * (n - 1)) / Fraction(n * n - n)
        assert improved - s2 / (n - 1) == Fraction(2, n)
        assert inner_radicand(n, "gcd", s2) == improved
        assert gcd_bounds(n).lambda_max_lower == (n + 1) / 2 + sqrt(float(improved))

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_inner_bounds_strictly_tighter_than_ws(self, n):
        imp = gcd_bounds(n)
        ws = ws_bounds(closed_form_summary(n, "gcd"), "gcd")
        assert imp.lambda_min_upper < ws.lambda_min_upper
        assert imp.lambda_max_lower > ws.lambda_max_lower
        assert imp.lambda_min_lower == ws.lambda_min_lower
        assert imp.lambda_max_upper == ws.lambda_max_upper


class TestLcmBounds:
    def test_n4_brackets_actual(self):
        spec = solve(lcm_matrix(IntegerSet.first_n(4)))
        assert spec.eigenvalues[0] == pytest.approx(-8.843, abs=5e-3)
        assert spec.eigenvalues[2] == pytest.approx(-0.312, abs=5e-3)
        rep = lcm_bounds(4).with_actual(spec)
        assert rep.brackets_actual()

    @pytest.mark.parametrize("n", range(4, 61))
    def test_strict_bracketing_sweep_from_four(self, n):
        rep = lcm_bounds(n).with_actual(solve(lcm_matrix(IntegerSet.first_n(n))))
        assert rep.brackets_actual(), f"lcm bracket failed at n={n}: {rep}"

    def test_n3_inner_min_bound_is_violated(self):
        # Known edge case: the interlacing step behind the +32 cross term
        # reverses at order 3, so the smallest eigenvalue (about -3.609)
        # sits above its claimed upper bound (about -4.976). Pin it so a
        # change in behavior is noticed.
        rep = lcm_bounds(3).with_actual(solve(lcm_matrix(IntegerSet.first_n(3))))
        assert rep.actual_min == pytest.approx(-3.6087, abs=1e-3)
        assert rep.actual_min > rep.lambda_min_upper
        assert rep.lambda_min_upper == pytest.approx(-4.9761, abs=1e-3)
        # the remaining three sides hold even at n = 3
        assert rep.lambda_min_lower < rep.actual_min
        assert rep.lambda_max_lower < rep.actual_max < rep.lambda_max_upper

    def test_n2_falls_back_to_ws(self):
        rep = lcm_bounds(2)
        assert rep.flag == WS_FALLBACK_FLAG
        assert rep == replace(ws_bounds(closed_form_summary(2, "lcm"), "lcm"),
                              flag=WS_FALLBACK_FLAG)
        exact = (3 - sqrt(17)) / 2
        assert rep.lambda_min_lower == pytest.approx(exact, abs=1e-12)
        assert rep.lambda_min_upper == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_radicand_improves_ws_by_thirty_two(self, n):
        s2 = closed_form_summary(n, "lcm").s_squared
        improved = (s2 + 32 * (n - 1)) / Fraction(n - 1)
        assert improved - s2 / (n - 1) == 32
        assert inner_radicand(n, "lcm", s2) == improved
        assert lcm_bounds(n).lambda_max_lower == (n + 1) / 2 + sqrt(float(improved))

    @pytest.mark.parametrize("n", [5, 30])
    def test_cross_term_inequalities(self, n):
        # spread > 2 max offdiag = 2n(n-1); second gap beats the order-4 gap
        spec = solve(lcm_matrix(IntegerSet.first_n(n)))
        assert spec.max - spec.min > 2 * n * (n - 1)
        order4 = solve(lcm_matrix(IntegerSet.first_n(4)))
        gap4 = order4.eigenvalues[2] - order4.eigenvalues[0]
        assert spec.eigenvalues[-2] - spec.min > gap4

    @pytest.mark.parametrize("n", [4, 25])
    def test_gcd_cross_term_inequalities(self, n):
        spec = solve(gcd_matrix(IntegerSet.first_n(n)))
        assert spec.max - spec.min > n - 1
        order3 = solve(gcd_matrix(IntegerSet.first_n(3)))
        gap3 = order3.eigenvalues[1] - order3.eigenvalues[0]
        assert spec.eigenvalues[-2] - spec.min > gap3



def _radicand_by_operators(n, family, s2):
    if family == "gcd":
        return (n * s2 + 2 * (n - 1)) / Fraction(n * n - n)
    return (s2 + 32 * (n - 1)) / Fraction(n - 1)


def _rational_improved_floats(n, family, prefix):
    """m, s, the trace and the four bounds of the improved row of order n
    by the rational algebra: s^2 as a difference of two fractions, m, the
    trace and the radicand by Fraction operators, float() of each at the
    end. ``prefix[n]`` is the sum of the first n row sums."""
    s2 = Fraction(2 * prefix[n], n) - Fraction(7 * n * n + 12 * n + 5, 12)
    m = Fraction(n + 1, 2)
    s = sqrt(float(s2))
    inner = s / sqrt(n - 1) if n == 2 else sqrt(float(_radicand_by_operators(n, family, s2)))
    center, outer = float(m), s * sqrt(n - 1)
    return (center, s, float(m * n),
            center - outer, center - inner, center + inner, center + outer)


class TestImprovedBounds:
    @pytest.mark.parametrize("family, row_sums", [
        ("gcd", arith.gcd_square_row_sum), ("lcm", arith.lcm_square_row_sum)])
    def test_floats_are_those_of_the_rational_algebra(self, family, row_sums):
        # every float of a row is one correctly rounded division of exact
        # integers, so it is bit for bit float() of the exact rational
        prefix = list(accumulate(row_sums(2000).values))
        for n in range(2, 2001):
            rep = improved_bounds(n, family)
            got = (rep.m, rep.s, rep.trace, rep.lambda_min_lower, rep.lambda_min_upper,
                   rep.lambda_max_lower, rep.lambda_max_upper)
            expected = _rational_improved_floats(n, family, prefix)
            assert list(map(float.hex, got)) == list(map(float.hex, expected)), n

    @pytest.mark.parametrize("family", ["gcd", "lcm"])
    def test_radicand_is_the_operator_form_off_the_true_variance(self, family):
        # the values verify's corruptions feed it: zero, negative, one
        # billionth high and one low
        for n in range(3, 201):
            s2 = arith.s_squared(n, family)
            for value in (Fraction(0), -s2, s2 * (1 + Fraction(1, 10**9)), s2 - 1):
                expected = _radicand_by_operators(n, family, value)
                assert inner_radicand(n, family, value) == expected, (n, value)

    def test_radicand_gain_check_tests_inner_radicand(self, monkeypatch):
        # verify's radicand-gain rows read the code's radicand, so a wrong
        # lcm radicand fails them all, and no gcd row
        def gain(failed):
            return [r.n for r in failed if r.check == "lcm_radicand_gain"]

        assert gain(checks.failures(checks.run_checks(12))) == []
        real = checks.inner_radicand

        def lcm_one_less(n, family, s2):
            return real(n, family, s2) - (1 if family == "lcm" else 0)

        monkeypatch.setattr(checks, "inner_radicand", lcm_one_less)
        failed = checks.failures(checks.run_checks(12))
        assert gain(failed) == list(range(3, 13))
        assert [r for r in failed if "gcd" in r.check] == []

    @pytest.mark.parametrize("call, family", [
        (lambda: arith.s_squared(5, "mixed"), "mixed"),
        (lambda: closed_form_summary(5, "mixed"), "mixed"),
        (lambda: inner_radicand(5, "mixed", Fraction(1)), "mixed"),
        (lambda: improved_bounds(5, "power-gcd"), "power-gcd"),
    ], ids=["s_squared", "closed_form_summary", "inner_radicand", "improved_bounds"])
    def test_unknown_family_is_named(self, call, family):
        with pytest.raises(ValueError, match=re.escape(repr(family))):
            call()


class TestMattilaHaukkanen:
    def test_reference_interval_at_n20(self):
        lo, hi = mh_interval(20, 1, 0)
        assert lo == pytest.approx(-595.8214, abs=1e-3)
        assert hi == pytest.approx(597.8214, abs=1e-3)

    def test_degenerate_n1(self):
        assert mh_interval(1, 1, 0) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_contains_gcd_spectrum(self):
        lo, hi = mh_interval(20, 1, 0)
        spec = solve(gcd_matrix(IntegerSet.first_n(20)))
        assert lo < spec.min and spec.max < hi

    @pytest.mark.parametrize("n", [5, 20, 45])
    def test_dominates_improved_gcd_bracket(self, n):
        lo, hi = mh_interval(n, 1, 0)
        rep = gcd_bounds(n)
        assert lo < rep.lambda_min_lower and rep.lambda_max_upper < hi

    def test_sliced_gram_equals_a_fresh_build(self):
        gram = divisibility_gram(60)
        for n in range(1, 61):
            t_n = jacobi_eigenvalues(gram.leading(n)).max
            assert repr(mh_interval(n, 1, 0, t_n)) == repr(mh_interval(n, 1, 0))

    def test_checks_share_one_jordan_table(self, monkeypatch):
        # verify passes every order its T_n and its max |J_1| from one table
        # at the top order, and gets the intervals of fresh calls
        tables, calls = [], []
        real_jordan, real_mh = arith.jordan_totient, checks.mh_interval

        def counting_jordan(*args):
            tables.append(args)
            return real_jordan(*args)

        def recording_mh(*args):
            calls.append((args, real_mh(*args)))
            return calls[-1][1]

        monkeypatch.setattr(arith, "jordan_totient", counting_jordan)
        monkeypatch.setattr(checks, "mh_interval", recording_mh)
        checks.run_checks(checks.MH_CAP)
        assert tables == [(checks.MH_CAP, 1)]
        assert [args[0] for args, _ in calls] == list(range(2, checks.MH_CAP + 1))
        monkeypatch.undo()
        for args, interval in calls:
            assert len(args) == 5
            assert repr(interval) == repr(mh_interval(args[0], 1, 0))

    def test_run_checks_builds_each_matrix_once(self, monkeypatch):
        builds = []
        for name in ("gcd_matrix", "lcm_matrix", "divisibility_gram"):
            real = getattr(matrices, name)

            def counting(*args, real=real, name=name):
                builds.append(name)
                return real(*args)

            for module in (matrices, bounds, checks):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        checks.run_checks(80)
        assert sorted(builds) == ["divisibility_gram", "gcd_matrix", "lcm_matrix"]

    def test_rejects_non_integral_exponent_difference(self):
        with pytest.raises(ValueError):
            mh_interval(10, 1.5, 0.0)
        with pytest.raises(ValueError):
            mh_interval(10, 0.0, 1.0)


class TestHongLee:
    def test_singleton(self):
        assert hong_lee_bounds(IntegerSet.of(1), 1.0, 1) == (1.0, 1.0)

    def test_two_elements(self):
        mean_bound, kth = hong_lee_bounds(IntegerSet.of(1, 2), 1.0, 1)
        assert mean_bound == pytest.approx(0.75)
        assert kth == pytest.approx(0.5)

    def test_bounds_hold_on_first_ten(self):
        s = IntegerSet.first_n(10)
        spec = solve(reciprocal_lcm_matrix(s, 1.0))
        mean_bound, _ = hong_lee_bounds(s, 1.0, 1)
        assert 0 < spec.min <= mean_bound
        for k in range(1, 11):
            _, kth = hong_lee_bounds(s, 1.0, k)
            assert spec.eigenvalues[k - 1] <= kth + 1e-12

    def test_rejects_bad_k_and_r(self):
        with pytest.raises(ValueError):
            hong_lee_bounds(IntegerSet.of(1, 2), 1.0, 3)
        with pytest.raises(ValueError):
            hong_lee_bounds(IntegerSet.of(1, 2), -1.0, 1)


class TestHongConstant:
    def test_c2_exact(self):
        const = hong_cn(2)
        assert const.c_n == pytest.approx((3 - sqrt(5)) / 2, abs=1e-10)
        assert const.witness == ((1, 0), (1, 1))

    def test_c3_matches_independent_exhaustion(self):
        # oracle: same exhaustion, but LAPACK eigenvalues
        best = min(
            np.linalg.eigvalsh(y @ y.T)[0]
            for bits in product((0, 1), repeat=3)
            for y in [np.array([[1, 0, 0], [bits[0], 1, 0], [bits[1], bits[2], 1]], float)]
        )
        assert hong_cn(3).c_n == pytest.approx(best, abs=1e-10)

    def test_nonincreasing_through_five(self):
        values = [hong_cn(n).c_n for n in range(2, 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    def test_witness_achieves_minimum(self):
        const = hong_cn(4)
        y = np.array(const.witness, float)
        assert np.array_equal(np.triu(y, 1), np.zeros((4, 4)))
        assert np.array_equal(np.diagonal(y), np.ones(4))
        assert jacobi_eigenvalues(y @ y.T).min == pytest.approx(const.c_n, abs=1e-12)

    def test_rejects_out_of_cap(self):
        with pytest.raises(ValueError, match=r"c_7 must certify 2\^21 = 2097152 matrices"):
            hong_cn(7)

    @pytest.mark.parametrize("n", range(2, HONG_MAX_N + 1))
    def test_witness_is_the_odd_difference_toeplitz_pattern(self, n):
        # y_ij = 1 iff i >= j and i - j is 0 or odd
        assert hong_cn(n).witness == tuple(
            tuple(int(i == j or (i > j and (i - j) % 2 == 1)) for j in range(n))
            for i in range(n))

    def test_c6_and_witness_pinned(self):
        const = hong_cn(6)
        assert const.c_n == 0.014827585246472342
        assert const.witness == (
            (1, 0, 0, 0, 0, 0),
            (1, 1, 0, 0, 0, 0),
            (0, 1, 1, 0, 0, 0),
            (1, 0, 1, 1, 0, 0),
            (0, 1, 0, 1, 1, 0),
            (1, 0, 1, 0, 1, 1),
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_per_matrix_solves(self, n):
        # reference: every Y solved, in itertools.product order over the
        # below-diagonal positions, first minimum kept
        smallest, _, y = _hong_exhaustive(n)
        first = int(np.argmin(smallest))
        const = hong_cn(n)
        assert const.c_n == float(smallest[first])
        assert const.witness == tuple(tuple(int(v) for v in row) for row in y[first])
        with pytest.raises(ValueError):
            hong_cn(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_inverse_is_exact_and_certifies_the_smallest_eigenvalue(self, n):
        _, reference, y = _hong_exhaustive(n)
        assert all(np.array_equal(_unit_lower(n, k), y[k]) for k in range(y.shape[0]))
        inverse = np.rint(np.linalg.inv(y)).astype(np.int64)
        identity = y @ inverse
        assert identity.dtype == np.int64
        assert np.array_equal(identity, np.broadcast_to(np.eye(n, dtype=np.int64),
                                                        identity.shape))
        certificates = _trace_certificates(n)
        assert certificates.dtype == np.int64
        assert np.array_equal(certificates, (inverse * inverse).sum(axis=(1, 2)))
        assert np.all(1.0 / certificates <= reference)

    def test_certificates_stay_small_in_memory(self):
        # the last row of Y^-1 is never built for all 2^15 patterns at once
        _trace_certificates(6)
        tracemalloc.start()
        try:
            _trace_certificates(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, f"_trace_certificates(6) peaked at {peak} bytes"

    @staticmethod
    def _solved_patterns(n, monkeypatch):
        """The pattern numbers of the matrices hong_cn(n) solves, in the
        order solved (Z = Y Y^T fixes the unit lower-triangular Y)."""
        _, _, y = _hong_exhaustive(n)
        pattern_of = {g.tobytes(): k for k, g in
                      enumerate((y @ y.transpose(0, 2, 1)).astype(np.float64))}
        solved = []

        def recording(matrix, *args, **kwargs):
            solved.append(pattern_of[np.asarray(matrix, np.float64).tobytes()])
            return jacobi_eigenvalues(matrix, *args, **kwargs)

        monkeypatch.setattr(bounds, "jacobi_eigenvalues", recording)
        return hong_cn(n), solved

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 1), (6, 1)])
    def test_number_of_solves(self, n, count, monkeypatch):
        _, solved = self._solved_patterns(n, monkeypatch)
        assert len(solved) == count, f"hong_cn({n}) solved {len(solved)} matrices"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_unsolved_matrix_is_excluded_by_its_certificate(self, n, monkeypatch):
        const, solved = self._solved_patterns(n, monkeypatch)
        assert len(set(solved)) == len(solved)
        cutoff = Fraction(const.c_n) + Fraction(_hong_margin(n))
        certificates = _trace_certificates(n)
        unsolved = np.setdiff1d(np.arange(certificates.size), solved)
        assert all(Fraction(1, int(certificates[k])) > cutoff for k in unsolved)

    @pytest.mark.parametrize("slack,count", [(Fraction(0), 4), (Fraction(1, 10**40), 1)])
    def test_cutoff_admits_a_certificate_equal_to_it(self, slack, count, monkeypatch):
        # best + margin = 1/61 - slack exactly: the three T = 61 matrices
        # join the witness (T = 70) iff the slack is 0, and a cutoff
        # rounded to floats would lose the 1e-40
        expected = hong_cn(6)
        margin = Fraction(1, 61) - Fraction(expected.c_n) - slack
        monkeypatch.setattr(bounds, "_hong_margin", lambda n: margin)
        const, solved = self._solved_patterns(6, monkeypatch)
        assert len(solved) == count and len(set(solved)) == count
        assert const == expected

    def test_margin_exceeds_the_solver_error(self):
        smallest, reference, _ = _hong_exhaustive(6)
        error = float(np.max(np.abs(smallest - reference)))
        assert error < _hong_margin(6)


class TestHongLowerBound:
    def test_identity_function_on_first_n(self):
        # f = N makes (f * mu) = phi, whose minimum on {1..n} is phi(1) = 1
        c3 = hong_cn(3).c_n
        bound = hong_lower_bound(IntegerSet.first_n(3), power_table(3, 1), c3)
        assert bound == pytest.approx(c3)

    def test_even_set(self):
        c2 = hong_cn(2).c_n
        bound = hong_lower_bound(IntegerSet.of(2, 4), power_table(4, 1), c2)
        assert bound == pytest.approx(c2 * 1)  # min(phi(2), phi(4)) = 1

    def test_actual_eigenvalue_respects_bound(self):
        for elements in [(1, 2, 3), (2, 4, 8), (3, 5, 15), (2, 3, 5, 7, 11), (6, 10, 15)]:
            s = IntegerSet.of(*elements)
            c = hong_cn(len(s)).c_n
            bound = hong_lower_bound(s, power_table(s.max, 1), c)
            spec = solve(gcd_matrix(s))
            assert spec.min >= bound

    def test_rejects_short_table(self):
        with pytest.raises(ValueError):
            hong_lower_bound(IntegerSet.of(2, 8), power_table(4, 1), 0.3)

    def test_reports_positivity_violation(self):
        # f = zeta gives (f * mu) = unit, which vanishes at divisor 2 of 4
        with pytest.raises(ValueError, match=r"\(f\*mu\)\(2\)"):
            hong_lower_bound(IntegerSet.of(2, 4), zeta_table(4), 0.3)


class TestBoundsReportContract:
    def test_inverted_bracket_rejected(self):
        with pytest.raises(ValueError):
            BoundsReport(
                n=3, family="gcd", method="ws", m=1.0, s=1.0, trace=3.0,
                lambda_min_lower=2.0, lambda_min_upper=1.0,
                lambda_max_lower=1.0, lambda_max_upper=2.0,
            )

    def test_brackets_actual_requires_actuals(self):
        with pytest.raises(ValueError):
            gcd_bounds(5).brackets_actual()
