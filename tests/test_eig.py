"""Solver tests: exact 2x2 spectra, an independent LAPACK oracle
(numpy.linalg.eigvalsh) for larger matrices, the structural spectrum
properties (trace consistency, interlacing, determinant), and the
stack kernel against the per-matrix numpy kernel, bit for bit. The solver
tests run once through each kernel that exists."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smith_spectra import _jacobi_py, eig
from smith_spectra.arith import smith_determinant
from smith_spectra.eig import (
    JacobiConvergenceError,
    available_backends,
    jacobi_eigenvalues,
    jacobi_eigenvalues_stack,
    spectral_summary,
)
from smith_spectra.matrices import IntegerSet, gcd_matrix, lcm_matrix


@pytest.fixture
def backend(request, monkeypatch):
    """Each kernel that exists, made the one the solvers run."""
    monkeypatch.setattr(eig, "_kernel", available_backends()[request.param])
    assert eig.default_backend() == request.param


def by_backend(cls):
    cls = pytest.mark.usefixtures("backend")(cls)
    return pytest.mark.parametrize("backend", list(available_backends()), indirect=True)(cls)


def rng_symmetric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


@by_backend
class TestExactSpectra:
    def test_gcd_s2_quadratic_roots(self):
        spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.of(1, 2)))
        assert spec.eigenvalues[0] == pytest.approx((3 - sqrt(5)) / 2, abs=1e-14)
        assert spec.eigenvalues[1] == pytest.approx((3 + sqrt(5)) / 2, abs=1e-14)

    def test_lcm_s2_quadratic_roots(self):
        spec = jacobi_eigenvalues(lcm_matrix(IntegerSet.of(1, 2)))
        assert spec.eigenvalues[0] == pytest.approx((3 - sqrt(17)) / 2, abs=1e-12)
        assert spec.eigenvalues[1] == pytest.approx((3 + sqrt(17)) / 2, abs=1e-12)

    def test_gcd_s3_small_eigenvalues(self):
        # 0.324 / 1.460 to three decimals; oracle: numpy eigvalsh agrees below
        spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(3)))
        assert spec.eigenvalues[0] == pytest.approx(0.324, abs=5e-3)
        assert spec.eigenvalues[1] == pytest.approx(1.460, abs=5e-3)

    def test_diagonal_matrix_is_fixed_point(self):
        spec = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert spec.eigenvalues == (-1.0, 2.0, 3.0)
        assert spec.sweeps == 0

    def test_single_entry(self):
        assert jacobi_eigenvalues(np.array([[7.0]])).eigenvalues == (7.0,)

    def test_zero_matrix(self):
        spec = jacobi_eigenvalues(np.zeros((4, 4)))
        assert spec.eigenvalues == (0.0, 0.0, 0.0, 0.0)


@by_backend
class TestAgainstLapackOracle:
    @pytest.mark.parametrize("n", [5, 20, 57])
    def test_gcd_and_lcm_matrices(self, n):
        for build in (gcd_matrix, lcm_matrix):
            m = build(IntegerSet.first_n(n))
            ours = np.array(jacobi_eigenvalues(m).eigenvalues)
            lapack = np.linalg.eigvalsh(m.entries)
            scale = np.max(np.abs(lapack))
            assert np.max(np.abs(ours - lapack)) < 1e-9 * scale

    @pytest.mark.parametrize("n,seed", [(10, 0), (40, 1)])
    def test_random_symmetric(self, n, seed):
        a = rng_symmetric(n, seed)
        ours = np.array(jacobi_eigenvalues(a).eigenvalues)
        lapack = np.linalg.eigvalsh(a)
        assert np.max(np.abs(ours - lapack)) < 1e-10 * max(1.0, np.max(np.abs(lapack)))


@by_backend
class TestSolverContract:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite_entries(self):
        # caught before the symmetry test and before a sweep-0 "convergence"
        for bad in (float("nan"), float("inf"), 1e200):
            a = np.eye(3)
            a[1, 1] = bad
            with pytest.raises(ValueError, match="not finite"):
                jacobi_eigenvalues(a)

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                jacobi_eigenvalues(np.eye(3), tol=tol)

    def test_nonconvergence_reports_residual(self):
        a = rng_symmetric(30, 3)
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues(a, max_sweeps=1)
        assert err.value.residual > 0

    def test_input_not_mutated(self):
        a = rng_symmetric(8, 4)
        before = a.copy()
        jacobi_eigenvalues(a)
        assert np.array_equal(a, before)

    def test_trace_consistency(self):
        for n in (5, 30, 80):
            m = lcm_matrix(IntegerSet.first_n(n))
            spec = jacobi_eigenvalues(m)
            scale = 1e-8 * n * np.max(np.abs(m.entries))
            assert abs(sum(spec.eigenvalues) - np.trace(m.entries)) < scale
            assert abs(
                sum(v * v for v in spec.eigenvalues) - np.sum(m.entries**2)
            ) < scale * np.max(np.abs(m.entries))


@by_backend
class TestSpectrumProperties:
    @pytest.mark.parametrize("n", list(range(2, 61, 7)) + [60])
    def test_cauchy_interlacing(self, n):
        # leading principal (n-1) x (n-1) submatrix interlaces the full spectrum
        for build in (gcd_matrix, lcm_matrix):
            full = jacobi_eigenvalues(build(IntegerSet.first_n(n)))
            sub_entries = build(IntegerSet.first_n(n)).entries[: n - 1, : n - 1]
            sub = jacobi_eigenvalues(np.array(sub_entries))
            lam, mu = full.eigenvalues, sub.eigenvalues
            tol = 1e-9 * max(abs(v) for v in lam)
            for k in range(n - 1):
                assert lam[k] <= mu[k] + tol
                assert mu[k] <= lam[k + 1] + tol

    def test_diagonal_bracketing(self):
        for n in (4, 25, 70):
            for build in (gcd_matrix, lcm_matrix):
                m = build(IntegerSet.first_n(n))
                spec = jacobi_eigenvalues(m)
                assert spec.min <= min(m.diagonal())
                assert spec.max >= max(m.diagonal())
                # gcd diagonal runs 1..n, so the spread is at least n-1
                if build is gcd_matrix:
                    assert spec.max - spec.min >= n - 1

    def test_spread_exceeds_twice_max_offdiagonal(self):
        for n in (5, 40):
            m = lcm_matrix(IntegerSet.first_n(n))
            spec = jacobi_eigenvalues(m)
            off = m.entries - np.diag(m.diagonal())
            assert spec.max - spec.min >= 2 * np.max(np.abs(off))
            assert spec.max - spec.min >= 2 * n * (n - 1)

    def test_gcd_positive_definite(self):
        for n in (2, 17, 60):
            spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(n)))
            assert spec.min > 0

    def test_eigenvalue_product_is_totient_product(self):
        for n in (4, 10, 25):
            spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(n)))
            det = float(np.prod(spec.eigenvalues))
            expected = smith_determinant(n)
            assert det == pytest.approx(expected, rel=1e-6)


@by_backend
class TestSpectralSummary:
    def test_gcd_s2_exact(self):
        summary = spectral_summary(gcd_matrix(IntegerSet.of(1, 2)))
        assert summary.exact
        assert summary.m == pytest.approx(1.5)
        assert float(summary.s_squared) == pytest.approx(1.25)

    def test_lcm_s2_exact(self):
        summary = spectral_summary(lcm_matrix(IntegerSet.of(1, 2)))
        assert float(summary.s_squared) == pytest.approx(4.25)

    def test_identity_matrix_summary(self):
        from smith_spectra.matrices import SymMatrix

        n = 6
        eye_rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        m = SymMatrix(n, np.eye(n), "custom", IntegerSet.first_n(n), exact=eye_rows)
        summary = spectral_summary(m)
        assert summary.exact
        assert summary.m == 1
        assert summary.s_squared == 0

    def test_all_ones_matrix_summary(self):
        from smith_spectra.matrices import power_gcd_matrix

        m = power_gcd_matrix(IntegerSet.of(2, 3, 5, 7), 0.0)  # all-ones matrix
        summary = spectral_summary(m)
        assert not summary.exact
        assert summary.m == pytest.approx(1.0)
        # all-ones: s^2 = n - 1
        assert summary.s_squared == pytest.approx(3.0)


@st.composite
def integer_stacks(draw) -> np.ndarray:
    """A (B, n, n) stack of symmetric integer matrices of order 1-7, with
    exact zeros among the entries and some slices already diagonal."""
    n = draw(st.integers(1, 7))
    count = draw(st.integers(1, 6))
    stack = np.zeros((count, n, n))
    for k in range(count):
        entries = draw(st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n))
        a = np.array(entries, dtype=np.float64).reshape(n, n)
        a = np.tril(a) + np.tril(a, -1).T
        if draw(st.booleans()):
            a = np.diag(np.diagonal(a))
        stack[k] = a
    return stack


class TestStackKernel:
    @settings(max_examples=300, deadline=None)
    @given(integer_stacks())
    def test_every_slice_is_bit_identical_to_cyclic_jacobi(self, stack):
        rotated = stack.copy()
        sweeps, off = _jacobi_py.cyclic_jacobi_stack(rotated, 1e-12, 100)
        values = jacobi_eigenvalues_stack(stack)
        for k in range(len(stack)):
            single = stack[k].copy()
            assert (sweeps[k], off[k]) == _jacobi_py.cyclic_jacobi(single, 1e-12, 100)
            assert np.array_equal(rotated[k], single)
            assert tuple(values[k]) == jacobi_eigenvalues(stack[k]).eigenvalues

    def test_diagonal_slices_take_no_sweep(self):
        stack = np.array([np.diag([3.0, -1.0, 2.0]), [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0],
                                                       [0.0, 1.0, 2.0]]])
        sweeps, _ = _jacobi_py.cyclic_jacobi_stack(stack.copy(), 1e-12, 100)
        assert sweeps[0] == 0 and sweeps[1] > 0

    def test_nonconvergence_names_lowest_unconverged_matrix(self):
        stack = np.array([np.diag(np.arange(8.0)), rng_symmetric(8, 3), rng_symmetric(8, 4)])
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues_stack(stack, max_sweeps=1)
        with pytest.raises(JacobiConvergenceError) as single:
            jacobi_eigenvalues(stack[1], max_sweeps=1)
        assert (err.value.sweeps, err.value.residual, err.value.target) == (
            single.value.sweeps, single.value.residual, single.value.target)

    def test_rejects_non_finite_matrix(self):
        for bad in (float("nan"), float("inf"), 1e200):
            stack = np.array([np.eye(3), np.eye(3)])
            stack[1, 1, 1] = bad
            with pytest.raises(ValueError, match="matrix 1 of the stack is out of float range"):
                jacobi_eigenvalues_stack(stack)

    def test_rejects_asymmetric_matrix(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="matrix 1 of the stack is not symmetric"):
            jacobi_eigenvalues_stack(stack)

    def test_rejects_bad_shape_and_tolerance(self):
        with pytest.raises(ValueError, match="stack of square matrices"):
            jacobi_eigenvalues_stack(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="stack of square matrices"):
            jacobi_eigenvalues_stack(np.eye(3))
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                jacobi_eigenvalues_stack(np.array([np.eye(3)]), tol=tol)

    def test_input_not_mutated(self):
        stack = np.array([rng_symmetric(5, 1), rng_symmetric(5, 2)])
        before = stack.copy()
        jacobi_eigenvalues_stack(stack)
        assert np.array_equal(stack, before)
