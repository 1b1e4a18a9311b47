"""GCD/LCM-family matrices: exact trace statistics, eigenvalue bounds and spectra.

Every public name is imported from the module that defines it; this
namespace holds only ``__version__``. The modules, in dependency order:
``arith`` (exact closed forms in Python integers), ``matrices``,
``_jacobi_py`` and ``_jacobi_c`` (the Jacobi sweep in numpy or C, with
bit-identical results), ``eig`` (the eigensolver), ``bounds`` (the
paper's bounds), ``checks`` (the ``verify`` suites) and ``cli``.
"""

__version__ = "0.1.0"
