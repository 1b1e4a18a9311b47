import io
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smith_spectra.bounds import spectral_summary
from smith_spectra.matrices import (
    IntegerSet,
    divisibility_gram,
    divisibility_matrix,
    gcd_matrix,
    lcm_matrix,
    matrix_to_csv,
    mixed_power_matrix,
    power_gcd_matrix,
    reciprocal_lcm_matrix,
)


class TestIntegerSet:
    def test_first_n(self):
        assert IntegerSet.first_n(4).elements == (1, 2, 3, 4)

    def test_parse(self):
        assert IntegerSet.parse("4,6,10").elements == (4, 6, 10)

    @pytest.mark.parametrize("bad", [(), (0, 1), (2, 2), (3, 1), (-1,)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            IntegerSet(tuple(bad))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntegerSet.parse("1,two,3")


class TestGcdMatrix:
    def test_s2(self):
        m = gcd_matrix(IntegerSet.of(1, 2))
        assert m.exact.tolist() == [[1, 1], [1, 2]]

    def test_consecutive_integers_coprime(self):
        m = gcd_matrix(IntegerSet.first_n(3))
        assert np.array_equal(m.entries, [[1, 1, 1], [1, 2, 1], [1, 1, 3]])

    def test_euclid_oracle_set(self):
        m = gcd_matrix(IntegerSet.of(4, 6, 10))
        assert m.exact[0][1] == 2 and m.exact[1][2] == 2 and m.exact[0][2] == 2

    def test_diagonal_is_set(self):
        s = IntegerSet.of(3, 7, 21, 40)
        assert list(gcd_matrix(s).diagonal()) == [3, 7, 21, 40]


class TestLcmMatrix:
    def test_s2(self):
        m = lcm_matrix(IntegerSet.of(1, 2))
        assert m.exact.tolist() == [[1, 2], [2, 2]]

    def test_last_offdiagonal_on_first_n(self):
        m = lcm_matrix(IntegerSet.first_n(4))
        assert m.exact[2][3] == 12
        assert m.exact[3][2] == 12

    def test_pairwise_lcm_thirty(self):
        m = lcm_matrix(IntegerSet.of(6, 10, 15))
        off = [m.exact[i][j] for i in range(3) for j in range(3) if i != j]
        assert off == [30] * 6


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=8))
def test_gcd_lcm_entry_product_identity(elements):
    s = IntegerSet(tuple(sorted(elements)))
    g, l = gcd_matrix(s), lcm_matrix(s)
    n = len(s)
    for i in range(n):
        for j in range(n):
            assert g.exact[i][j] * l.exact[i][j] == s.elements[i] * s.elements[j]


# sets on both sides of n * max_entry^2 < 2^63, where the exact array
# switches from int64 to Python ints
INT64_BOUNDARY = [
    (gcd_matrix, (1, 2**31 - 1), np.int64),
    (gcd_matrix, (1, 2**31), object),
    (gcd_matrix, (2, 2**64), object),
    (lcm_matrix, (46340, 46341), np.int64),
    (lcm_matrix, (46341, 46342), object),
    (lcm_matrix, (69999999, 70000001), object),
    (lcm_matrix, (3, 94906265, 94906267), object),
]


@pytest.mark.parametrize("build, elements, dtype", INT64_BOUNDARY)
def test_exact_dtype_boundary(build, elements, dtype):
    op = gcd if build is gcd_matrix else lcm
    rows = [[op(a, b) for b in elements] for a in elements]
    n = len(elements)
    m = build(IntegerSet(elements))
    assert m.exact.dtype == dtype
    assert m.exact.tolist() == rows
    assert m.entries.tobytes() == np.array(rows, dtype=np.float64).tobytes()
    # every row's sum of squares, which int64 must hold
    mean = Fraction(sum(rows[i][i] for i in range(n)), n)
    trace_sq = sum(v * v for row in rows for v in row)
    assert spectral_summary(m).s_squared == Fraction(trace_sq, n) - mean * mean


class TestPowerFamilies:
    def test_power_one_equals_gcd(self):
        s = IntegerSet.of(3, 6, 8)
        assert np.array_equal(power_gcd_matrix(s, 1.0).entries, gcd_matrix(s).entries)

    def test_power_zero_is_all_ones(self):
        m = power_gcd_matrix(IntegerSet.of(2, 5, 9), 0.0)
        assert np.array_equal(m.entries, np.ones((3, 3)))

    def test_power_two_squares_entries(self):
        s = IntegerSet.first_n(3)
        assert np.array_equal(power_gcd_matrix(s, 2.0).entries, gcd_matrix(s).entries ** 2)

    def test_negative_exponent_allowed(self):
        m = power_gcd_matrix(IntegerSet.of(2, 4), -1.0)
        assert m.entries[0, 1] == pytest.approx(0.5)

    def test_reciprocal_lcm_singleton(self):
        m = reciprocal_lcm_matrix(IntegerSet.of(1), 3.0)
        assert np.array_equal(m.entries, [[1.0]])

    def test_reciprocal_lcm_values(self):
        m = reciprocal_lcm_matrix(IntegerSet.of(1, 2), 1.0)
        assert np.allclose(m.entries, [[1, 0.5], [0.5, 0.5]])
        m2 = reciprocal_lcm_matrix(IntegerSet.of(2, 3), 2.0)
        assert m2.entries[0, 1] == pytest.approx(1 / 36)

    def test_reciprocal_lcm_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            reciprocal_lcm_matrix(IntegerSet.of(1, 2), 0.0)

    def test_mixed_power_special_cases(self):
        n = 6
        sn = IntegerSet.first_n(n)
        assert np.array_equal(mixed_power_matrix(n, 1, 0).entries, gcd_matrix(sn).entries)
        assert np.array_equal(mixed_power_matrix(n, 0, 1).entries, lcm_matrix(sn).entries)
        # gcd * lcm == product of the indices
        assert mixed_power_matrix(3, 1, 1).entries[1, 2] == pytest.approx(6.0)


class TestDivisibilityMatrix:
    def test_n2(self):
        assert divisibility_matrix(2).tolist() == [[1, 0], [1, 1]]

    def test_row_four(self):
        assert divisibility_matrix(4)[3].tolist() == [1, 1, 0, 1]

    def test_lower_triangular_unit_diagonal(self):
        e = divisibility_matrix(12)
        assert np.array_equal(np.triu(e, 1), np.zeros_like(e))
        assert np.array_equal(np.diagonal(e), np.ones(12, dtype=np.int64))

    def test_gram_counts_common_divisors(self):
        g = divisibility_gram(20)
        from smith_spectra.arith import divisors

        for i in range(1, 21):
            for j in range(1, 21):
                common = len(set(divisors(i)) & set(divisors(j)))
                assert g.exact[i - 1][j - 1] == common


class TestImmutability:
    def test_entries_are_read_only(self):
        m = gcd_matrix(IntegerSet.first_n(5))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 99.0


LEADING_BUILDS = {
    "gcd": lambda n: gcd_matrix(IntegerSet.first_n(n)),
    "lcm": lambda n: lcm_matrix(IntegerSet.first_n(n)),
    "divisibility_gram": divisibility_gram,
    "power_gcd": lambda n: power_gcd_matrix(IntegerSet.first_n(n), 0.5),
}


class TestLeadingBlock:
    @pytest.mark.parametrize("family", LEADING_BUILDS)
    def test_equals_the_direct_build(self, family):
        build = LEADING_BUILDS[family]
        full = build(12)
        for k in range(1, 13):
            block, direct = full.leading(k), build(k)
            assert block.order == k
            assert block.entries.tobytes() == direct.entries.tobytes()
            if direct.exact is None:
                assert block.exact is None
            else:
                assert block.exact.tolist() == direct.exact.tolist()
                assert np.shares_memory(block.exact, full.exact)
                with pytest.raises(ValueError):
                    block.exact[0, 0] = 99
            assert block.source_set == direct.source_set
            assert (block.family, block.params) == (direct.family, direct.params)
            assert np.shares_memory(block.entries, full.entries)
            with pytest.raises(ValueError):
                block.entries[0, 0] = 99.0

    @pytest.mark.parametrize("k", [-1, 0, 13])
    def test_rejects_orders_outside_the_matrix(self, k):
        with pytest.raises(ValueError, match="1..12"):
            gcd_matrix(IntegerSet.first_n(12)).leading(k)


class TestCsvExport:
    def test_integer_family_round_trip(self):
        m = lcm_matrix(IntegerSet.first_n(4))
        buf = io.StringIO()
        matrix_to_csv(m, buf)
        rows = [[int(v) for v in line.split(",")] for line in buf.getvalue().splitlines()]
        assert rows == [[lcm(i, j) for j in range(1, 5)] for i in range(1, 5)]

    def test_float_family_round_trip(self):
        m = reciprocal_lcm_matrix(IntegerSet.of(1, 2, 3), 1.0)
        buf = io.StringIO()
        matrix_to_csv(m, buf)
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in buf.getvalue().splitlines()]
        )
        assert np.allclose(parsed, m.entries, atol=1e-9)
