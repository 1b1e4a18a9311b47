"""Solver tests: exact 2x2 spectra, an independent LAPACK oracle
(numpy.linalg.eigvalsh) for larger matrices, and the structural spectrum
properties (trace consistency, interlacing, determinant). The solver
tests run once through each kernel that exists. The batch solver
``jacobi_spectra`` is held to the sequential loop of single solves."""

import os
import threading
from math import sqrt

import numpy as np
import pytest

from smith_spectra import _jacobi_py, eig
from smith_spectra.arith import smith_determinant
from smith_spectra.bounds import spectral_summary
from smith_spectra.checks import MH_CAP
from smith_spectra.eig import (
    JacobiConvergenceError,
    available_backends,
    jacobi_eigenvalues,
    jacobi_spectra,
)
from smith_spectra.matrices import IntegerSet, divisibility_gram, gcd_matrix, lcm_matrix


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

    def test_nonconvergence_reports_residual(self, monkeypatch):
        a = rng_symmetric(30, 3)
        monkeypatch.setattr(eig, "DEFAULT_MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues(a)
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


def verify_blocks(n_max: int = 80) -> list:
    """The matrices ``verify --n-max n_max`` solves: the gcd and lcm blocks
    of orders 2..n_max, then the divisibility Gram blocks of orders
    2..min(n_max, MH_CAP)."""
    gcd, lcm = (build(IntegerSet.first_n(n_max)) for build in (gcd_matrix, lcm_matrix))
    top = min(n_max, MH_CAP)
    gram = divisibility_gram(top)
    return ([m.leading(n) for n in range(2, n_max + 1) for m in (gcd, lcm)]
            + [gram.leading(n) for n in range(2, top + 1)])


def sequential(matrices) -> list:
    return [jacobi_eigenvalues(m) for m in matrices]


@pytest.fixture
def kernel_threads(monkeypatch) -> list[int]:
    """The thread of each kernel call the solvers make from now on."""
    threads = []
    real = eig._kernel.cyclic_jacobi

    def recording(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(eig._kernel, "cyclic_jacobi", recording)
    return threads


class TestJacobiSpectra:
    def test_equals_the_sequential_loop_on_the_verify_blocks(self):
        blocks = verify_blocks()
        assert len(blocks) == 217
        assert repr(jacobi_spectra(blocks)) == repr(sequential(blocks))

    def test_equals_the_sequential_loop_on_the_numpy_kernel(self, monkeypatch):
        monkeypatch.setattr(eig, "_kernel", _jacobi_py)
        blocks = [m for m in verify_blocks() if m.order <= 30]
        assert repr(jacobi_spectra(blocks)) == repr(sequential(blocks))

    def test_empty_and_single(self):
        assert jacobi_spectra([]) == []
        a = rng_symmetric(6, 5)
        assert repr(jacobi_spectra([a])) == repr(sequential([a]))

    def test_raises_the_first_error_in_input_order(self):
        not_finite = np.eye(3)
        not_finite[1, 1] = float("inf")
        batch = [rng_symmetric(5, 6), np.array([[1.0, 2.0], [0.0, 1.0]]),
                 not_finite, rng_symmetric(7, 7)]
        with pytest.raises(ValueError) as looped:
            sequential(batch)
        with pytest.raises(ValueError) as batched:
            jacobi_spectra(batch)
        assert str(batched.value) == str(looped.value) == "matrix is not symmetric"

    def test_solves_through_the_module_name(self, monkeypatch):
        # a wrapper installed on the module sees every solve of a batch
        solved = []
        real = eig.jacobi_eigenvalues
        monkeypatch.setattr(eig, "jacobi_eigenvalues",
                            lambda m: solved.append(len(m)) or real(m))
        jacobi_spectra([np.eye(2), np.eye(3), np.eye(4)])
        assert sorted(solved) == [2, 3, 4]

    @pytest.mark.skipif(eig._cpus() < 2, reason="needs 2 CPUs")
    def test_runs_the_kernel_on_more_than_one_thread(self, kernel_threads):
        jacobi_spectra(verify_blocks())
        assert len(kernel_threads) == 217
        assert len(set(kernel_threads)) > 1

    @pytest.mark.parametrize("cpus", ["affinity", "cpu_count"])
    def test_one_cpu_gives_the_same_results_on_one_thread(self, monkeypatch,
                                                          kernel_threads, cpus):
        blocks = verify_blocks(40)
        expected = repr(sequential(blocks))
        kernel_threads.clear()
        if cpus == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:  # a platform without sched_getaffinity, where cpu_count is unknown
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert repr(jacobi_spectra(blocks)) == expected
        assert len(set(kernel_threads)) == 1


# spectral_summary lives in bounds and calls no kernel; these tests keep
# the per-backend ids they had when it lived in eig.
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
