"""Command-line front end.

Subcommands:

* ``bounds``          eigenvalue bound rows per n (csv/json/table)
* ``spectrum``        sorted eigenvalues plus trace statistics
* ``verify``          run the invariant suites over an n range
* ``inertia-sweep``   positive/negative/zero eigenvalue counts per n
* ``compare``         interval comparison against the actual extremes
* ``reproduce-paper`` golden-number regression table
* ``export-matrix``   raw matrix CSV

Output is deterministic: identical arguments give byte-identical output
(metadata headers carry the configuration, never a timestamp). Exit codes:
0 success, 1 verification/convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from math import sqrt

from smith_spectra import __version__, arith
from smith_spectra.bounds import (
    closed_form_summary,
    gcd_bounds,
    hong_cn,
    lcm_bounds,
    mh_interval,
    ws_bounds,
)
from smith_spectra.checks import failures, run_checks
from smith_spectra.eig import (
    JacobiConvergenceError,
    default_backend,
    inertia,
    jacobi_eigenvalues,
    spectral_summary,
)
from smith_spectra.matrices import (
    IntegerSet,
    SymMatrix,
    gcd_matrix,
    lcm_matrix,
    matrix_to_csv,
    mixed_power_matrix,
    power_gcd_matrix,
    reciprocal_lcm_matrix,
)

BOUNDS_CAP = 2000  # bound evaluation only, no eigensolve
SOLVE_CAP = 500  # anything that runs the O(n^3)-per-sweep solver
CAP_ENV_VAR = "SMITH_SPECTRA_MAX_N"

FAMILIES = ("gcd", "lcm", "power-gcd", "recip-lcm", "mixed")

BOUNDS_COLUMNS = [
    "n", "family", "method", "m", "s",
    "min_lower", "min_upper", "max_lower", "max_upper",
    "actual_min", "actual_max", "flag",
]


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated per-invocation settings shared by the subcommands."""

    command: str
    n_values: list[int]
    family: str = "gcd"
    explicit_set: IntegerSet | None = None
    epsilon: float = 1.0
    r: float = 1.0
    alpha: float = 1.0
    beta: float = 0.0
    tol: float = 1e-12
    zero_tol: float | None = None
    with_actual: bool = False
    fmt: str = "table"
    out: str | None = None
    exact_only: bool = False
    allow_large: bool = False

    def cap(self, default_cap: int) -> int:
        env = os.environ.get(CAP_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise UsageError(f"{CAP_ENV_VAR}={env!r} is not an integer") from None
        return default_cap

    def enforce_cap(self, needs_solve: bool) -> None:
        limit = self.cap(SOLVE_CAP if needs_solve else BOUNDS_CAP)
        top = max(self.n_values) if self.n_values else 0
        if self.explicit_set is not None:
            top = max(top, len(self.explicit_set))
        if top <= limit:
            return
        if self.allow_large:
            print(
                f"warning: n={top} exceeds the default cap {limit}; "
                f"proceeding (--allow-large)", file=sys.stderr)
            return
        raise UsageError(
            f"n={top} exceeds the cap {limit}; pass --allow-large or set "
            f"{CAP_ENV_VAR} to override")


def parse_n_range(text: str) -> list[int]:
    """'20' -> [20]; '3..10' -> [3..10] inclusive."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise UsageError(f"empty range {text!r}")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"cannot parse n or n range from {text!r}") from None


# ---------------------------------------------------------------------------
# formatting


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def emit(config: RunConfig, columns: list[str], rows: list[dict], meta: dict) -> None:
    text = render(config.fmt, columns, rows, meta)
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def render(fmt: str, columns: list[str], rows: list[dict], meta: dict) -> str:
    if fmt == "json":
        payload = {"meta": meta, "rows": rows}
        return json.dumps(payload, indent=2, default=str) + "\n"
    if fmt == "csv":
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(format_value(row.get(col)) for col in columns))
        return "\n".join(lines) + "\n"
    # table
    cells = [[format_value(row.get(col)) or "-" for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    for line in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines) + "\n"


def base_meta(config: RunConfig, **extra) -> dict:
    meta = {"tool": "smith-spectra", "version": __version__, "command": config.command}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# matrix construction shared by spectrum/bounds/export


def build_matrix(config: RunConfig, n: int | None = None) -> SymMatrix:
    s = config.explicit_set or IntegerSet.first_n(n)
    if config.family == "gcd":
        return gcd_matrix(s)
    if config.family == "lcm":
        return lcm_matrix(s)
    if config.family == "power-gcd":
        return power_gcd_matrix(s, config.epsilon)
    if config.family == "recip-lcm":
        return reciprocal_lcm_matrix(s, config.r)
    if config.family == "mixed":
        if config.explicit_set is not None:
            raise UsageError("family 'mixed' is defined on {1..n}; use --n, not --set")
        return mixed_power_matrix(n, config.alpha, config.beta)
    raise UsageError(f"unknown family {config.family!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(config: RunConfig) -> int:
    config.enforce_cap(needs_solve=config.with_actual)

    def one_row(n: int | None) -> dict:
        # the improved methods apply to {1..n} only; explicit sets and the
        # real-exponent families get Wolkowicz-Styan from their traces
        matrix = None
        if config.explicit_set is None and config.family == "gcd":
            report = gcd_bounds(n)
        elif config.explicit_set is None and config.family == "lcm":
            report = lcm_bounds(n)
        else:
            matrix = build_matrix(config, n)
            report = ws_bounds(spectral_summary(matrix), config.family)
        if config.with_actual:
            if matrix is None:
                matrix = build_matrix(config, n)
            report = report.with_actual(jacobi_eigenvalues(matrix, tol=config.tol))
        return {
            "n": report.n, "family": report.family, "method": report.method,
            "m": report.m, "s": report.s,
            "min_lower": report.lambda_min_lower, "min_upper": report.lambda_min_upper,
            "max_lower": report.lambda_max_lower, "max_upper": report.lambda_max_upper,
            "actual_min": report.actual_min, "actual_max": report.actual_max,
            "flag": report.flag,
        }

    if config.explicit_set is not None:
        rows = [one_row(None)]
    else:
        rows = [one_row(n) for n in config.n_values]
    meta = base_meta(config, family=config.family, with_actual=config.with_actual)
    emit(config, BOUNDS_COLUMNS, rows, meta)
    return 0


def _single_n(config: RunConfig) -> int | None:
    if len(config.n_values) > 1:
        raise UsageError(f"{config.command} takes a single --n, not a range")
    return config.n_values[0] if config.n_values else None


def cmd_spectrum(config: RunConfig) -> int:
    config.enforce_cap(needs_solve=True)
    matrix = build_matrix(config, _single_n(config))
    spec = jacobi_eigenvalues(matrix, tol=config.tol)
    summary = spectral_summary(matrix)
    rows = [{"index": i + 1, "eigenvalue": v} for i, v in enumerate(spec.eigenvalues)]
    meta = base_meta(
        config,
        family=matrix.label(),
        set=",".join(str(x) for x in matrix.source_set.elements),
        n=matrix.order,
        m=str(summary.m),
        s_squared=str(summary.s_squared),
        s=format_value(summary.s),
        exact=summary.exact,
        sweeps=spec.sweeps,
        backend=default_backend(),
    )
    emit(config, ["index", "eigenvalue"], rows, meta)
    return 0


def cmd_verify(config: RunConfig) -> int:
    n_max = max(config.n_values)
    config.enforce_cap(needs_solve=not config.exact_only)
    results = run_checks(n_max, exact_only=config.exact_only, tol=config.tol)
    bad = failures(results)
    if config.fmt == "table":
        # aggregate per check, then list each failure
        order: list[str] = []
        totals: dict[str, list[int]] = {}
        for result in results:
            if result.check not in totals:
                order.append(result.check)
                totals[result.check] = [0, 0]
            totals[result.check][int(result.ok)] += 1
        rows = [
            {"check": name, "passed": totals[name][1],
             "failed": totals[name][0],
             "status": totals[name][0] == 0}
            for name in order
        ]
        for f in bad:
            rows.append({"check": f"FAILED {f.check}", "passed": f.n,
                         "failed": f.observed, "status": False})
        meta = base_meta(config, n_max=n_max, exact_only=config.exact_only,
                         checks=len(results), failures=len(bad))
        emit(config, ["check", "passed", "failed", "status"], rows, meta)
    else:
        rows = [
            {"check": r.check, "n": r.n, "ok": r.ok, "observed": r.observed}
            for r in results
        ]
        meta = base_meta(config, n_max=n_max, exact_only=config.exact_only,
                         checks=len(results), failures=len(bad))
        emit(config, ["check", "n", "ok", "observed"], rows, meta)
    return 1 if bad else 0


def cmd_inertia_sweep(config: RunConfig) -> int:
    config.enforce_cap(needs_solve=True)
    rows = []
    for n in config.n_values:
        spec = jacobi_eigenvalues(build_matrix(config, n), tol=config.tol)
        result = inertia(spec, zero_tol=config.zero_tol)
        rows.append({
            "n": n, "family": config.family,
            "positive": result.positive, "negative": result.negative,
            "zero": result.zero, "pos_minus_neg": result.positive - result.negative,
        })
    meta = base_meta(config, family=config.family)
    emit(config, ["n", "family", "positive", "negative", "zero", "pos_minus_neg"], rows, meta)
    return 0


def cmd_compare(config: RunConfig) -> int:
    if config.family != "gcd":
        raise UsageError("compare is defined for --family gcd")
    config.enforce_cap(needs_solve=True)
    rows = []
    for n in config.n_values:
        lo, hi = mh_interval(n, 1, 0, tol=config.tol)
        spec = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(n)), tol=config.tol)
        row = {
            "n": n, "mh_lower": lo, "mh_upper": hi,
            "actual_min": spec.min, "actual_max": spec.max,
        }
        spread = spec.max - spec.min
        if n >= 2:
            report = gcd_bounds(n)
            row.update({
                "min_lower": report.lambda_min_lower, "min_upper": report.lambda_min_upper,
                "max_lower": report.lambda_max_lower, "max_upper": report.lambda_max_upper,
                "bracket_width_ratio": (report.lambda_max_upper - report.lambda_min_lower) / spread,
            })
        row["mh_width_ratio"] = (hi - lo) / spread if spread > 0 else None
        rows.append(row)
    columns = ["n", "mh_lower", "mh_upper", "min_lower", "min_upper", "max_lower",
               "max_upper", "actual_min", "actual_max", "mh_width_ratio",
               "bracket_width_ratio"]
    emit(config, columns, rows, base_meta(config))
    return 0


def cmd_reproduce_paper(config: RunConfig) -> int:
    """Recompute the published reference values and compare at fixed tolerances."""
    rows = []

    def check(name: str, actual: float, expected: float, tol: float) -> None:
        rows.append({
            "check": name, "expected": expected, "actual": actual,
            "abs_tol": tol, "status": abs(actual - expected) <= tol,
        })

    rep = gcd_bounds(20)
    check("gcd20_min_lower", rep.lambda_min_lower, -40.2114, 5e-4)
    check("gcd20_min_upper", rep.lambda_min_upper, 7.8123, 5e-4)
    check("gcd20_max_lower", rep.lambda_max_lower, 13.1876, 5e-4)
    check("gcd20_max_upper", rep.lambda_max_upper, 61.2114, 5e-4)

    spec3 = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(3)), tol=config.tol)
    check("gcd3_lambda1", spec3.eigenvalues[0], 0.324, 5e-3)
    check("gcd3_lambda2", spec3.eigenvalues[1], 1.460, 5e-3)

    spec4 = jacobi_eigenvalues(lcm_matrix(IntegerSet.first_n(4)), tol=config.tol)
    check("lcm4_mu1", spec4.eigenvalues[0], -8.843, 5e-3)
    check("lcm4_mu3", spec4.eigenvalues[2], -0.312, 5e-3)

    spec2 = jacobi_eigenvalues(lcm_matrix(IntegerSet.of(1, 2)), tol=config.tol)
    check("lcm2_mu1_exact", spec2.eigenvalues[0], (3 - sqrt(17)) / 2, 1e-10)
    check("lcm2_mu2_exact", spec2.eigenvalues[1], (3 + sqrt(17)) / 2, 1e-10)

    lo, hi = mh_interval(20, 1, 0, tol=config.tol)
    check("mh20_lower", lo, -595.8214, 1e-3)
    check("mh20_upper", hi, 597.8214, 1e-3)

    bad = [row for row in rows if not row["status"]]
    meta = base_meta(config, checks=len(rows), failures=len(bad))
    emit(config, ["check", "expected", "actual", "abs_tol", "status"], rows, meta)
    return 1 if bad else 0


def cmd_export_matrix(config: RunConfig) -> int:
    config.enforce_cap(needs_solve=False)
    matrix = build_matrix(config, _single_n(config))
    if config.out:
        with open(config.out, "w") as handle:
            matrix_to_csv(matrix, handle)
    else:
        matrix_to_csv(matrix, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smith-spectra",
        description="gcd/lcm-family matrices: spectra, trace statistics and eigenvalue bounds",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, family_default: str | None = "gcd"):
        if family_default is not None:
            p.add_argument("--family", choices=FAMILIES, default=family_default)
        p.add_argument("--n", help="single n or inclusive range lo..hi")
        p.add_argument("--set", dest="explicit_set", metavar="A,B,C",
                       help="explicit strictly increasing integer set")
        p.add_argument("--epsilon", type=float, default=1.0, help="power-gcd exponent")
        p.add_argument("--r", type=float, default=1.0, help="recip-lcm exponent")
        p.add_argument("--alpha", type=float, default=1.0, help="mixed gcd exponent")
        p.add_argument("--beta", type=float, default=0.0, help="mixed lcm exponent")
        p.add_argument("--tol", type=float, default=1e-12, help="solver tolerance")
        p.add_argument("--zero-tol", type=float, default=None,
                       help="inertia zero threshold (default 1e-9 * Frobenius norm)")
        p.add_argument("--format", dest="fmt", choices=("table", "csv", "json"),
                       default="table")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--allow-large", action="store_true",
                       help="exceed the default n caps (warns)")

    p_bounds = sub.add_parser("bounds", help="eigenvalue bound rows")
    common(p_bounds)
    p_bounds.add_argument("--with-actual", action="store_true",
                          help="also solve and report the actual extremes")

    p_spectrum = sub.add_parser("spectrum", help="sorted eigenvalues plus summary")
    common(p_spectrum)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    common(p_verify, family_default=None)
    p_verify.add_argument("--n-max", type=int, default=50)
    p_verify.add_argument("--exact-only", action="store_true",
                          help="only the exact arithmetic identities")

    p_inertia = sub.add_parser("inertia-sweep", help="eigenvalue sign counts per n")
    common(p_inertia, family_default="lcm")
    p_inertia.add_argument("--n-max", type=int, default=None)

    p_compare = sub.add_parser("compare", help="interval comparison for the gcd family")
    common(p_compare)

    p_repro = sub.add_parser("reproduce-paper", help="golden-number regression table")
    common(p_repro)

    p_export = sub.add_parser("export-matrix", help="write the matrix as CSV")
    common(p_export)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    explicit = None
    if getattr(args, "explicit_set", None):
        explicit = IntegerSet.parse(args.explicit_set)

    n_values: list[int] = []
    if getattr(args, "n", None):
        n_values = parse_n_range(args.n)
    elif getattr(args, "n_max", None):
        if args.n_max < 2:
            raise UsageError(f"--n-max must be >= 2, got {args.n_max}")
        n_values = list(range(2, args.n_max + 1))

    command = args.command
    if not n_values and explicit is None and command != "reproduce-paper":
        raise UsageError(f"{command} needs --n or --set")
    if any(n < 1 for n in n_values):
        raise UsageError("n must be >= 1")

    return RunConfig(
        command=command,
        n_values=n_values,
        family=getattr(args, "family", "gcd") or "gcd",
        explicit_set=explicit,
        epsilon=args.epsilon,
        r=args.r,
        alpha=args.alpha,
        beta=args.beta,
        tol=args.tol,
        zero_tol=args.zero_tol,
        with_actual=getattr(args, "with_actual", False),
        fmt=args.fmt,
        out=args.out,
        exact_only=getattr(args, "exact_only", False),
        allow_large=args.allow_large,
    )


COMMANDS = {
    "bounds": cmd_bounds,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "inertia-sweep": cmd_inertia_sweep,
    "compare": cmd_compare,
    "reproduce-paper": cmd_reproduce_paper,
    "export-matrix": cmd_export_matrix,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return COMMANDS[config.command](config)
    except (ValueError, OverflowError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JacobiConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
