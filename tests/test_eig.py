"""Solver tests: exact 2x2 spectra, an independent LAPACK oracle
(numpy.linalg.eigvalsh) for larger matrices, and the structural spectrum
properties (trace consistency, interlacing, inertia, determinant)."""

from math import sqrt

import numpy as np
import pytest

from smith_spectra.arith import smith_determinant
from smith_spectra.eig import (
    Inertia,
    JacobiConvergenceError,
    Spectrum,
    available_backends,
    inertia,
    jacobi_eigenvalues,
    spectral_summary,
)
from smith_spectra.matrices import IntegerSet, gcd_matrix, lcm_matrix

BACKENDS = list(available_backends())

pytestmark = pytest.mark.parametrize("backend", BACKENDS)


def rng_symmetric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


class TestExactSpectra:
    def test_gcd_s2_quadratic_roots(self, backend):
        spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.of(1, 2)), backend=backend)
        assert spec.eigenvalues[0] == pytest.approx((3 - sqrt(5)) / 2, abs=1e-14)
        assert spec.eigenvalues[1] == pytest.approx((3 + sqrt(5)) / 2, abs=1e-14)

    def test_lcm_s2_quadratic_roots(self, backend):
        spec = jacobi_eigenvalues(lcm_matrix(IntegerSet.of(1, 2)), backend=backend)
        assert spec.eigenvalues[0] == pytest.approx((3 - sqrt(17)) / 2, abs=1e-12)
        assert spec.eigenvalues[1] == pytest.approx((3 + sqrt(17)) / 2, abs=1e-12)

    def test_gcd_s3_small_eigenvalues(self, backend):
        # 0.324 / 1.460 to three decimals; oracle: numpy eigvalsh agrees below
        spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(3)), backend=backend)
        assert spec.eigenvalues[0] == pytest.approx(0.324, abs=5e-3)
        assert spec.eigenvalues[1] == pytest.approx(1.460, abs=5e-3)

    def test_diagonal_matrix_is_fixed_point(self, backend):
        spec = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]), backend=backend)
        assert spec.eigenvalues == (-1.0, 2.0, 3.0)
        assert spec.sweeps == 0

    def test_single_entry(self, backend):
        assert jacobi_eigenvalues(np.array([[7.0]]), backend=backend).eigenvalues == (7.0,)

    def test_zero_matrix(self, backend):
        spec = jacobi_eigenvalues(np.zeros((4, 4)), backend=backend)
        assert spec.eigenvalues == (0.0, 0.0, 0.0, 0.0)


class TestAgainstLapackOracle:
    @pytest.mark.parametrize("n", [5, 20, 57])
    def test_gcd_and_lcm_matrices(self, backend, n):
        for build in (gcd_matrix, lcm_matrix):
            m = build(IntegerSet.first_n(n))
            ours = np.array(jacobi_eigenvalues(m, backend=backend).eigenvalues)
            lapack = np.linalg.eigvalsh(m.entries)
            scale = np.max(np.abs(lapack))
            assert np.max(np.abs(ours - lapack)) < 1e-9 * scale

    @pytest.mark.parametrize("n,seed", [(10, 0), (40, 1)])
    def test_random_symmetric(self, backend, n, seed):
        a = rng_symmetric(n, seed)
        ours = np.array(jacobi_eigenvalues(a, backend=backend).eigenvalues)
        lapack = np.linalg.eigvalsh(a)
        assert np.max(np.abs(ours - lapack)) < 1e-10 * max(1.0, np.max(np.abs(lapack)))


class TestSolverContract:
    def test_rejects_asymmetric(self, backend):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]), backend=backend)

    def test_rejects_non_finite_entries(self, backend):
        # caught before the symmetry test and before a sweep-0 "convergence"
        for bad in (float("nan"), float("inf"), 1e200):
            a = np.eye(3)
            a[1, 1] = bad
            with pytest.raises(ValueError, match="not finite"):
                jacobi_eigenvalues(a, backend=backend)

    def test_rejects_bad_tolerance(self, backend):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                jacobi_eigenvalues(np.eye(3), tol=tol, backend=backend)

    def test_nonconvergence_reports_residual(self, backend):
        a = rng_symmetric(30, 3)
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues(a, max_sweeps=1, backend=backend)
        assert err.value.residual > 0

    def test_input_not_mutated(self, backend):
        a = rng_symmetric(8, 4)
        before = a.copy()
        jacobi_eigenvalues(a, backend=backend)
        assert np.array_equal(a, before)

    def test_trace_consistency(self, backend):
        for n in (5, 30, 80):
            m = lcm_matrix(IntegerSet.first_n(n))
            spec = jacobi_eigenvalues(m, backend=backend)
            scale = 1e-8 * n * np.max(np.abs(m.entries))
            assert abs(sum(spec.eigenvalues) - np.trace(m.entries)) < scale
            assert abs(
                sum(v * v for v in spec.eigenvalues) - np.sum(m.entries**2)
            ) < scale * np.max(np.abs(m.entries))


class TestSpectrumProperties:
    @pytest.mark.parametrize("n", list(range(2, 61, 7)) + [60])
    def test_cauchy_interlacing(self, backend, n):
        # leading principal (n-1) x (n-1) submatrix interlaces the full spectrum
        for build in (gcd_matrix, lcm_matrix):
            full = jacobi_eigenvalues(build(IntegerSet.first_n(n)), backend=backend)
            sub_entries = build(IntegerSet.first_n(n)).entries[: n - 1, : n - 1]
            sub = jacobi_eigenvalues(np.array(sub_entries), backend=backend)
            lam, mu = full.eigenvalues, sub.eigenvalues
            tol = 1e-9 * max(abs(v) for v in lam)
            for k in range(n - 1):
                assert lam[k] <= mu[k] + tol
                assert mu[k] <= lam[k + 1] + tol

    def test_diagonal_bracketing(self, backend):
        for n in (4, 25, 70):
            for build in (gcd_matrix, lcm_matrix):
                m = build(IntegerSet.first_n(n))
                spec = jacobi_eigenvalues(m, backend=backend)
                assert spec.min <= min(m.diagonal())
                assert spec.max >= max(m.diagonal())
                # gcd diagonal runs 1..n, so the spread is at least n-1
                if build is gcd_matrix:
                    assert spec.max - spec.min >= n - 1

    def test_spread_exceeds_twice_max_offdiagonal(self, backend):
        for n in (5, 40):
            m = lcm_matrix(IntegerSet.first_n(n))
            spec = jacobi_eigenvalues(m, backend=backend)
            off = m.entries - np.diag(m.diagonal())
            assert spec.max - spec.min >= 2 * np.max(np.abs(off))
            assert spec.max - spec.min >= 2 * n * (n - 1)

    def test_gcd_positive_definite(self, backend):
        for n in (2, 17, 60):
            spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(n)), backend=backend)
            assert spec.min > 0

    def test_eigenvalue_product_is_totient_product(self, backend):
        for n in (4, 10, 25):
            spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(n)), backend=backend)
            det = float(np.prod(spec.eigenvalues))
            expected = smith_determinant(n)
            assert det == pytest.approx(expected, rel=1e-6)


class TestSpectralSummary:
    def test_gcd_s2_exact(self, backend):
        summary = spectral_summary(gcd_matrix(IntegerSet.of(1, 2)))
        assert summary.exact
        assert summary.m == pytest.approx(1.5)
        assert float(summary.s_squared) == pytest.approx(1.25)

    def test_lcm_s2_exact(self, backend):
        summary = spectral_summary(lcm_matrix(IntegerSet.of(1, 2)))
        assert float(summary.s_squared) == pytest.approx(4.25)

    def test_identity_matrix_summary(self, backend):
        from smith_spectra.matrices import SymMatrix

        n = 6
        eye_rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        m = SymMatrix(n, np.eye(n), "custom", IntegerSet.first_n(n), exact=eye_rows)
        summary = spectral_summary(m)
        assert summary.exact
        assert summary.m == 1
        assert summary.s_squared == 0

    def test_all_ones_matrix_summary(self, backend):
        from smith_spectra.matrices import power_gcd_matrix

        m = power_gcd_matrix(IntegerSet.of(2, 3, 5, 7), 0.0)  # all-ones matrix
        summary = spectral_summary(m)
        assert not summary.exact
        assert summary.m == pytest.approx(1.0)
        # all-ones: s^2 = n - 1
        assert summary.s_squared == pytest.approx(3.0)


class TestInertia:
    def test_lcm_s2_split(self, backend):
        spec = jacobi_eigenvalues(lcm_matrix(IntegerSet.of(1, 2)), backend=backend)
        assert inertia(spec) == Inertia(1, 1, 0, inertia(spec).zero_tolerance)

    def test_gcd_all_positive(self, backend):
        for n in (3, 12, 50):
            spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(n)), backend=backend)
            result = inertia(spec)
            assert (result.positive, result.negative, result.zero) == (n, 0, 0)

    def test_zero_matrix_all_zero(self, backend):
        spec = jacobi_eigenvalues(np.zeros((5, 5)), backend=backend)
        result = inertia(spec)
        assert (result.positive, result.negative, result.zero) == (0, 0, 5)

    def test_explicit_tolerance(self, backend):
        spec = Spectrum((-0.5, 0.001, 2.0), 1e-12, 1, 0.0)
        result = inertia(spec, zero_tol=0.01)
        assert (result.positive, result.negative, result.zero) == (1, 1, 1)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                inertia(spec, zero_tol=bad)
