/* The rotations of one row-cyclic Jacobi sweep, in C.

   Same order and same formulas as the numpy sweep in
   smith_spectra/_jacobi_py.py, so every rotated matrix is bit-identical
   to it.  Build with -ffp-contract=off and never -ffast-math: a fused
   multiply-add or a reordered sum rounds differently.  The convergence
   test stays in Python, with numpy's norms. */

#include <float.h>
#include <math.h>
#include <stddef.h>

typedef struct { double hi, lo; } double_length;

static double_length dl_fast_sum(double a, double b)
{
    double x = a + b;
    return (double_length){x, (a - x) + b};
}

static double_length dl_mul(double x, double y)
{
    double z = x * y;
    return (double_length){z, fma(x, y, -z)};
}

/* vector_norm of CPython 3.11's Modules/mathmodule.c for two finite
   magnitudes a, b <= max. */
static double norm2(double a, double b, double max)
{
    double v[2] = {a, b}, csum = 1.0, frac1 = 0.0, frac2 = 0.0, scale, h, x;
    double_length pr, sm;
    int max_e, i;

    if (max == 0.0)
        return max;
    frexp(max, &max_e);
    if (max_e < -1023)  /* ldexp(1.0, -max_e) would overflow */
        return DBL_MIN * norm2(a / DBL_MIN, b / DBL_MIN, max / DBL_MIN);
    scale = ldexp(1.0, -max_e);
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
   bit on some inputs. */
double py_hypot(double x, double y)
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
            root = py_hypot(1.0, tau);
            t = 1.0 / (tau >= 0.0 ? tau + root : tau - root);
            c = 1.0 / sqrt(1.0 + t * t);
            s = t * c;
            /* rows p and q, mirrored into columns p and q; the four
               entries where they cross come out wrong here (a[p][q] is
               overwritten before k = q reads it) and are set after the
               loop, as numpy's sweep sets them */
            for (int k = 0; k < n; k++) {
                double rp = row_p[k], rq = row_q[k];
                row_p[k] = a[(size_t)k * n + p] = c * rp - s * rq;
                row_q[k] = a[(size_t)k * n + q] = s * rp + c * rq;
            }
            row_p[p] = app - t * apq;
            row_q[q] = aqq + t * apq;
            row_p[q] = row_q[p] = 0.0;
        }
    }
}
