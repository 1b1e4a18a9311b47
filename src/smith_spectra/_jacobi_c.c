/* The rotations of one row-cyclic Jacobi sweep, in C.

   Same order and same formulas as the numpy sweep in
   smith_spectra/_jacobi_py.py, so every rotated matrix is bit-identical
   to it.  Each operation of a rotation, the root included, is one
   correctly rounded IEEE 754 +, -, *, / or sqrt, in C as in Python.  So
   build with -ffp-contract=off and never -ffast-math: a fused
   multiply-add or a reordered sum rounds differently.  The convergence
   test stays in Python, with numpy's norms.

   Where the numpy sweep writes rows p and q and then columns p and q,
   this one rotates the two rows in a loop of their own over restrict
   pointers, which the compiler vectorizes, and then copies them into the
   columns; only the order of the stores differs.  Column q is copied
   after every rotation; column p once, when the rotations (p, q) for
   every q > p are done.  That defers nothing anyone reads: while p is
   fixed, each rotation (p, q) reads rows p and q in full, and the only
   entry of column p among them that the deferral leaves stale is a[q][p],
   which the rotation rotates into a[p][p] and a[q][p], the two entries it
   then overwrites (with app - t apq and 0, as numpy does).  Row p itself
   is always current, and numpy's matrix is symmetric after every
   rotation, so copying row p into column p at the end gives numpy's.

   Both copies also skip the finished rows k < p: a rotation (p', q') with
   p' >= p reads only rows p' and q'.  The writes skipped are those to
   a[k][j] with k < p <= j, all above the diagonal.  Every entry on or
   below it, and every entry of a row >= p, gets every write it got
   before; rows are rotated in full, so the lower triangle is never stale.
   Each rotation thus reads numpy's operands, and at the end of the sweep
   the lower triangle is that of numpy's matrix, which is symmetric, so
   one loop mirrors it into the upper triangle. */

#include <math.h>
#include <stddef.h>

/* x, y <- c x - s y, s x + c y, entry by entry.  With glibc on x86-64 a
   clone for AVX2 and one for the baseline CPU, with the same operations
   per entry, are built, and glibc picks one when the library loads. */
#ifndef __has_attribute
#define __has_attribute(x) 0
#endif
#if defined(__x86_64__) && defined(__GLIBC__) && __has_attribute(target_clones)
__attribute__((target_clones("avx2", "default")))
#endif
static void rotate(double *restrict x, double *restrict y, int n, double c, double s)
{
    for (int k = 0; k < n; k++) {
        double xk = x[k], yk = y[k];
        x[k] = c * xk - s * yk;
        y[k] = s * xk + c * yk;
    }
}

/* One sweep over the C-contiguous n x n symmetric matrix a, in place. */
void jacobi_sweep(double *a, int n)
{
    for (int p = 0; p < n - 1; p++) {
        double *row_p = a + (size_t)p * n;
        for (int q = p + 1; q < n; q++) {
            double *row_q = a + (size_t)q * n;
            double apq = row_p[q], app = row_p[p], aqq = row_q[q];
            double tau, root, t, c, s;

            if (apq == 0.0)
                continue;
            tau = (aqq - app) / (2.0 * apq);
            /* all a rotation needs (Rutishauser 1966; Golub & Van Loan 8.5);
               past 2^500 the 1 is below tau^2's last bit, near 2^512 tau^2 overflows */
            root = fabs(tau) < 0x1p500 ? sqrt(1.0 + tau * tau) : fabs(tau);
            t = 1.0 / (tau >= 0.0 ? tau + root : tau - root);
            c = 1.0 / sqrt(1.0 + t * t);
            s = t * c;
            rotate(row_p, row_q, n, c, s);
            for (int k = p; k < n; k++)
                a[(size_t)k * n + q] = row_q[k];
            /* the four crossing entries, as numpy's sweep sets them */
            row_p[p] = app - t * apq;
            row_q[q] = aqq + t * apq;
            row_p[q] = row_q[p] = 0.0;
        }
        for (int k = p; k < n; k++)
            a[(size_t)k * n + p] = row_p[k];
    }
    for (int i = 1; i < n; i++)
        for (int j = 0; j < i; j++)
            a[(size_t)j * n + i] = a[(size_t)i * n + j];
}
