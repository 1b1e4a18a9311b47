/* The rotations of one row-cyclic Jacobi sweep, in C.

   Same order and same formulas as the numpy sweep in
   smith_spectra/_jacobi_py.py, so every rotated matrix is bit-identical
   to it.  Build with -ffp-contract=off and never -ffast-math: a fused
   multiply-add or a reordered sum rounds differently.  The convergence
   test stays in Python, with numpy's norms.

   Where the numpy sweep writes rows p and q and then columns p and q,
   this one rotates the two rows in a loop of their own over restrict
   pointers, which the compiler vectorizes, and then copies them into the
   columns.  Every stored value is still the same expression of the same
   operands, so the order of the stores is all that differs.  Column q is
   copied after every rotation; column p only once, when the rotations
   (p, q) for every q > p are done.  That defers nothing anyone reads:
   while p is fixed, each rotation (p, q) reads rows p and q in full, and
   the only entry of column p among them that the deferral leaves stale is
   a[q][p], which the rotation rotates into a[p][p] and a[q][p], the two
   entries it then overwrites (with app - t apq and 0, as numpy does).
   Row p itself is always current, and the matrix is exactly symmetric
   before and after every rotation in numpy, so copying row p into column
   p at the end gives numpy's column p. */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef struct { double hi, lo; } double_length;

static inline double_length dl_fast_sum(double a, double b)
{
    double x = a + b;
    return (double_length){x, (a - x) + b};
}

static inline double_length dl_mul(double x, double y)
{
    double z = x * y;
    return (double_length){z, fma(x, y, -z)};
}

/* vector_norm of CPython 3.11's Modules/mathmodule.c for two finite
   magnitudes a, b <= max; math.hypot of CPython 3.10 to 3.13 gives the
   same bits. */
static double norm2(double a, double b, double max)
{
    double v[2] = {a, b}, csum = 1.0, frac1 = 0.0, frac2 = 0.0, scale, h, x;
    double_length pr, sm;
    uint64_t bits;
    int max_e, i;

    if (max == 0.0)
        return max;
    memcpy(&bits, &max, sizeof bits);
    bits >>= 52;  /* the biased exponent: max is positive */
    if (bits >= 1 && bits <= 2044) {
        /* normal, and 2^-max_e is normal too: frexp's max_e is
           bits - 1022, so 2^-max_e has the biased exponent 2045 - bits */
        bits = (2045 - bits) << 52;
        memcpy(&scale, &bits, sizeof scale);
    } else {  /* subnormal, or 2^-max_e is */
        frexp(max, &max_e);
        if (max_e < -1023)  /* ldexp(1.0, -max_e) would overflow */
            return DBL_MIN * norm2(a / DBL_MIN, b / DBL_MIN, max / DBL_MIN);
        scale = ldexp(1.0, -max_e);
    }
    for (i = 0; i < 2; i++) {
        x = v[i] * scale;
        pr = dl_mul(x, x);
        sm = dl_fast_sum(csum, pr.hi);
        csum = sm.hi;
        frac1 += pr.lo;
        frac2 += sm.lo;
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    x = csum - 1.0 + (frac1 + frac2);
    h += x / (2.0 * h);
    return h / scale;
}

/* math.hypot(x, y) bit for bit; glibc's hypot differs from it in the last
   bit on some inputs, enough to change most spectra. */
static inline double hypot_port(double x, double y)
{
    double a = fabs(x), b = fabs(y), max = 0.0;

    if (a > max)
        max = a;
    if (b > max)
        max = b;
    if (isinf(max))
        return max;
    if (isnan(a) || isnan(b))
        return NAN;
    return norm2(a, b, max);
}

/* hypot_port, exported for the tests */
double py_hypot(double x, double y)
{
    return hypot_port(x, y);
}

/* x, y <- c x - s y, s x + c y, entry by entry */
static inline void rotate(double *restrict x, double *restrict y, int n, double c, double s)
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
            root = hypot_port(1.0, tau);
            t = 1.0 / (tau >= 0.0 ? tau + root : tau - root);
            c = 1.0 / sqrt(1.0 + t * t);
            s = t * c;
            rotate(row_p, row_q, n, c, s);
            for (int k = 0; k < n; k++)
                a[(size_t)k * n + q] = row_q[k];
            /* the four crossing entries, as numpy's sweep sets them */
            row_p[p] = app - t * apq;
            row_q[q] = aqq + t * apq;
            row_p[q] = row_q[p] = 0.0;
        }
        for (int k = 0; k < n; k++)
            a[(size_t)k * n + p] = row_p[k];
    }
}
