"""GCD/LCM-family matrices: exact trace statistics, eigenvalue bounds and spectra.

The package builds gcd, lcm and related matrices on sets of positive
integers, computes their spectra with a self-contained cyclic Jacobi
eigensolver (its sweep in C where a compiler is found, else in numpy, with
bit-identical results), evaluates the exact arithmetical closed
forms for the trace statistics m and s^2, and produces the associated
eigenvalue bounds, comparison intervals and exact inertia tables.
"""

from smith_spectra.arith import (
    ArithTable,
    coprime_square_sum,
    dirichlet_convolve,
    divisors,
    exact_inertia,
    gcd_square_row_sum,
    jordan_totient,
    lcm_square_row_sum,
    s_squared_gcd,
    s_squared_lcm,
    sieve_mobius,
    sieve_totient,
    smith_determinant,
)
from smith_spectra.matrices import (
    IntegerSet,
    SymMatrix,
    divisibility_gram,
    divisibility_matrix,
    gcd_matrix,
    lcm_matrix,
    matrix_to_csv,
    mixed_power_matrix,
    power_gcd_matrix,
    reciprocal_lcm_matrix,
)
from smith_spectra.eig import (
    JacobiConvergenceError,
    SpectralSummary,
    Spectrum,
    default_backend,
    jacobi_eigenvalues,
    spectral_summary,
)
from smith_spectra.bounds import (
    BoundsReport,
    HongConstant,
    gcd_bounds,
    hong_cn,
    hong_lee_bounds,
    hong_lower_bound,
    improved_bounds,
    inner_radicand,
    lcm_bounds,
    mh_interval,
    ws_bounds,
)
from smith_spectra.checks import CheckResult, run_checks

__version__ = "0.1.0"
