"""Command-line front end.

Subcommands:

* ``bounds``          eigenvalue bound rows per n (csv/json/table)
* ``spectrum``        sorted eigenvalues plus trace statistics
* ``verify``          run the invariant suites over an n range
* ``inertia-sweep``   exact positive/negative/zero eigenvalue counts per n
* ``compare``         interval comparison against the actual extremes
* ``reproduce-paper`` golden-number regression table
* ``export-matrix``   raw matrix CSV

Each subcommand takes exactly the options its command function reads;
any other option is an argparse usage error. Output is deterministic:
identical arguments give byte-identical output (metadata headers carry the
configuration, never a timestamp). Exit codes: 0 success,
1 verification/convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate
from math import isfinite, sqrt

from smith_spectra import __version__, arith
from smith_spectra.bounds import (gcd_bounds, improved_bounds, mh_interval, spectral_summary,
                                  ws_bounds)
from smith_spectra.checks import failures, run_checks
from smith_spectra.eig import (
    JacobiConvergenceError,
    default_backend,
    jacobi_eigenvalues,
    jacobi_spectra,
)
from smith_spectra.matrices import (
    IntegerSet,
    SymMatrix,
    divisibility_gram,
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


def enforce_cap(top: int, needs_solve: bool, allow_large: bool) -> None:
    """Refuse an order above the cap (SMITH_SPECTRA_MAX_N, else the solve or
    bounds default); --allow-large goes ahead with a warning instead."""
    limit = SOLVE_CAP if needs_solve else BOUNDS_CAP
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            raise UsageError(f"{CAP_ENV_VAR}={env!r} is not an integer") from None
        if limit < 1:
            raise UsageError(f"{CAP_ENV_VAR}={env!r} must be >= 1")
    if top <= limit:
        return
    if allow_large:
        print(
            f"warning: n={top} exceeds the default cap {limit}; "
            f"proceeding (--allow-large)", file=sys.stderr)
        return
    raise UsageError(
        f"n={top} exceeds the cap {limit}; pass --allow-large or set "
        f"{CAP_ENV_VAR} to override")


def parse_n_range(text: str) -> list[int]:
    """'20' -> [20]; '3..10' -> [3..10] inclusive; every n must be >= 1."""
    lo_text, _, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if ".." in text else lo
    except ValueError:
        raise UsageError(f"cannot parse n or n range from {text!r}") from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    if lo < 1:
        raise UsageError("n must be >= 1")
    return list(range(lo, hi + 1))


def read_target(args: argparse.Namespace, needs_solve: bool) -> tuple[list[int], IntegerSet | None]:
    """The --n orders or the parsed --set of a command that takes either
    (not both), checked against the cap (the top order or the set size)."""
    if args.n and args.explicit_set:
        raise UsageError(f"{args.command} takes --n or --set, not both")
    explicit = IntegerSet.parse(args.explicit_set) if args.explicit_set else None
    n_values = parse_n_range(args.n) if args.n else []
    if not n_values and explicit is None:
        raise UsageError(f"{args.command} needs --n or --set")
    enforce_cap(max([*n_values, len(explicit) if explicit else 0]), needs_solve,
                args.allow_large)
    return n_values, explicit


# ---------------------------------------------------------------------------
# formatting


def format_value(value) -> str:
    if isinstance(value, float):  # most cells: tested first
        return f"{value:.10g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return str(value)


def emit(args: argparse.Namespace, columns: list[str], rows: list[dict], meta: dict) -> None:
    text = render(args.fmt, columns, rows, meta)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def render(fmt: str, columns: list[str], rows: list[dict], meta: dict) -> str:
    if fmt == "json":
        payload = {"meta": meta, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join([format_value(row.get(col)) for col in columns]))
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


def base_meta(args: argparse.Namespace, **extra) -> dict:
    meta = {"tool": "smith-spectra", "version": __version__, "command": args.command}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# matrix construction shared by spectrum/bounds/export


def family_exponent(args: argparse.Namespace) -> float:
    """The epsilon of the power-gcd matrix the family is congruent to
    (:func:`exact_inertia`); every --family command refuses one not finite."""
    if args.family == "recip-lcm" and args.r <= 0:
        raise UsageError(f"exponent r must be > 0, got {args.r}")
    epsilon, option = {
        "gcd": (1.0, "--family"), "lcm": (-1.0, "--family"),
        "power-gcd": (args.epsilon, "--epsilon"), "recip-lcm": (args.r, "--r"),
        "mixed": (args.alpha - args.beta, "--alpha minus --beta"),
    }[args.family]
    if not isfinite(epsilon):
        raise UsageError(f"{option} must be finite, got {epsilon}")
    return epsilon


def build_matrix(args: argparse.Namespace, explicit: IntegerSet | None,
                 n: int | None) -> SymMatrix:
    family_exponent(args)
    s = explicit or IntegerSet.first_n(n)
    if args.family == "gcd":
        return gcd_matrix(s)
    if args.family == "lcm":
        return lcm_matrix(s)
    if args.family == "power-gcd":
        return power_gcd_matrix(s, args.epsilon)
    if args.family == "recip-lcm":
        return reciprocal_lcm_matrix(s, args.r)
    # the one family left, mixed, is defined on {1..n} only
    if explicit is not None:
        raise UsageError("family 'mixed' is defined on {1..n}; use --n, not --set")
    return mixed_power_matrix(n, args.alpha, args.beta)


def _single_n(args: argparse.Namespace, n_values: list[int]) -> int | None:
    if len(n_values) > 1:
        raise UsageError(f"{args.command} takes a single --n, not a range")
    return n_values[0] if n_values else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args: argparse.Namespace) -> int:
    n_values, explicit = read_target(args, needs_solve=args.with_actual)
    # an explicit set is the one order len(set), whose leading block is the matrix
    orders = n_values or [len(explicit)]
    # the improved methods apply to {1..n} only; explicit sets and the
    # real-exponent families get Wolkowicz-Styan from their traces
    improved = explicit is None and args.family in ("gcd", "lcm")
    if args.with_actual or not improved:
        # every order's matrix is a leading block of the one at the top order
        top = build_matrix(args, explicit, orders[-1])
        blocks = [top.leading(n) for n in orders]
    # the solves run first, in one batch; without --with-actual there are none
    actuals = jacobi_spectra(blocks) if args.with_actual else None
    rows = []
    for i, n in enumerate(orders):
        if improved:
            report = improved_bounds(n, args.family)
        else:
            report = ws_bounds(spectral_summary(blocks[i]), args.family)
        if actuals:
            report = report.with_actual(actuals[i])
        rows.append({
            "n": report.n, "family": report.family, "method": report.method,
            "m": report.m, "s": report.s,
            "min_lower": report.lambda_min_lower, "min_upper": report.lambda_min_upper,
            "max_lower": report.lambda_max_lower, "max_upper": report.lambda_max_upper,
            "actual_min": report.actual_min, "actual_max": report.actual_max,
            "flag": report.flag,
        })
    meta = base_meta(args, family=args.family, with_actual=args.with_actual)
    emit(args, BOUNDS_COLUMNS, rows, meta)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    n_values, explicit = read_target(args, needs_solve=True)
    matrix = build_matrix(args, explicit, _single_n(args, n_values))
    spec = jacobi_eigenvalues(matrix)
    summary = spectral_summary(matrix)
    rows = [{"index": i + 1, "eigenvalue": v} for i, v in enumerate(spec.eigenvalues)]
    meta = base_meta(
        args,
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
    emit(args, ["index", "eigenvalue"], rows, meta)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise UsageError(f"--n-max must be >= 2, got {args.n_max}")
    enforce_cap(args.n_max, not args.exact_only, args.allow_large)
    results = run_checks(args.n_max, exact_only=args.exact_only)
    bad = failures(results)
    meta = base_meta(args, n_max=args.n_max, exact_only=args.exact_only,
                     checks=len(results), failures=len(bad))
    if args.fmt == "table":
        # aggregate per check, in order of first appearance, then list each failure
        totals: dict[str, list[int]] = {}
        for result in results:
            totals.setdefault(result.check, [0, 0])[result.ok] += 1
        rows = [{"check": name, "passed": passed, "failed": failed, "status": failed == 0}
                for name, (failed, passed) in totals.items()]
        for f in bad:
            rows.append({"check": f"FAILED {f.check}", "passed": f.n,
                         "failed": f.observed, "status": False})
        emit(args, ["check", "passed", "failed", "status"], rows, meta)
    else:
        rows = [
            {"check": r.check, "n": r.n, "ok": r.ok, "observed": r.observed}
            for r in results
        ]
        emit(args, ["check", "n", "ok", "observed"], rows, meta)
    return 1 if bad else 0


def cmd_inertia_sweep(args: argparse.Namespace) -> int:
    # exact counts, no matrix: each family is congruent to a power-gcd one (arith.exact_inertia)
    n_values = parse_n_range(args.n)
    enforce_cap(max(n_values), False, args.allow_large)
    counts = arith.exact_inertia(n_values[-1], family_exponent(args))
    rows = [{"n": n, "family": args.family, "positive": pos, "negative": neg,
             "zero": zero, "pos_minus_neg": pos - neg}
            for n, (pos, neg, zero) in zip(n_values, counts[n_values[0] - 1:])]
    meta = base_meta(args, family=args.family)
    emit(args, ["n", "family", "positive", "negative", "zero", "pos_minus_neg"], rows, meta)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    n_values = parse_n_range(args.n)
    enforce_cap(max(n_values), True, args.allow_large)
    # every order's gcd and Gram matrix is a leading block of the top order's
    top = gcd_matrix(IntegerSet.first_n(n_values[-1]))
    gram = divisibility_gram(n_values[-1])
    # the gcd blocks and the Gram blocks (for T_n) solved in one batch
    solved = jacobi_spectra([*(top.leading(n) for n in n_values),
                             *(gram.leading(n) for n in n_values)])
    # max |J_1(i)| over i <= n, from one table at the top order
    j_max = list(accumulate(arith.jordan_totient(n_values[-1], 1).values[1:], max))
    rows = []
    for n, spec, gram_spec in zip(n_values, solved, solved[len(n_values):]):
        lo, hi = mh_interval(n, 1, 0, gram_spec.max, j_max[n - 1])
        row = {"n": n, "mh_lower": lo, "mh_upper": hi,
               "actual_min": spec.min, "actual_max": spec.max}
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
    emit(args, columns, rows, base_meta(args))
    return 0


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
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

    spec3 = jacobi_eigenvalues(gcd_matrix(IntegerSet.first_n(3)))
    check("gcd3_lambda1", spec3.eigenvalues[0], 0.324, 5e-3)
    check("gcd3_lambda2", spec3.eigenvalues[1], 1.460, 5e-3)

    spec4 = jacobi_eigenvalues(lcm_matrix(IntegerSet.first_n(4)))
    check("lcm4_mu1", spec4.eigenvalues[0], -8.843, 5e-3)
    check("lcm4_mu3", spec4.eigenvalues[2], -0.312, 5e-3)

    spec2 = jacobi_eigenvalues(lcm_matrix(IntegerSet.of(1, 2)))
    check("lcm2_mu1_exact", spec2.eigenvalues[0], (3 - sqrt(17)) / 2, 1e-10)
    check("lcm2_mu2_exact", spec2.eigenvalues[1], (3 + sqrt(17)) / 2, 1e-10)

    lo, hi = mh_interval(20, 1, 0)
    check("mh20_lower", lo, -595.8214, 1e-3)
    check("mh20_upper", hi, 597.8214, 1e-3)

    bad = [row for row in rows if not row["status"]]
    meta = base_meta(args, checks=len(rows), failures=len(bad))
    emit(args, ["check", "expected", "actual", "abs_tol", "status"], rows, meta)
    return 1 if bad else 0


def cmd_export_matrix(args: argparse.Namespace) -> int:
    n_values, explicit = read_target(args, needs_solve=False)
    matrix = build_matrix(args, explicit, _single_n(args, n_values))
    if args.out:
        with open(args.out, "w") as handle:
            matrix_to_csv(matrix, handle)
    else:
        matrix_to_csv(matrix, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# Every option with its one default. Each subcommand adds the options its
# command function reads, in the order its SUBCOMMANDS entry lists them.
OPTIONS: dict[str, dict] = {
    "--family": dict(choices=FAMILIES, default="gcd"),
    "--n": dict(help="single n or inclusive range lo..hi"),
    "--set": dict(dest="explicit_set", metavar="A,B,C",
                  help="explicit strictly increasing integer set"),
    "--epsilon": dict(type=float, default=1.0, help="power-gcd exponent"),
    "--r": dict(type=float, default=1.0, help="recip-lcm exponent"),
    "--alpha": dict(type=float, default=1.0, help="mixed gcd exponent"),
    "--beta": dict(type=float, default=0.0, help="mixed lcm exponent"),
    "--format": dict(dest="fmt", choices=("table", "csv", "json"), default="table"),
    "--out": dict(help="write output to this path"),
    "--allow-large": dict(action="store_true", help="exceed the default n caps (warns)"),
    "--with-actual": dict(action="store_true",
                          help="also solve and report the actual extremes"),
    "--n-max": dict(type=int, default=50),
    "--exact-only": dict(action="store_true", help="only the exact arithmetic identities"),
}

_MATRIX = ("--family", "--n", "--set", "--epsilon", "--r", "--alpha", "--beta")
_N_REQUIRED = {"--n": dict(required=True)}

# name: (command function, help, options, overrides of OPTIONS)
SUBCOMMANDS = {
    "bounds": (cmd_bounds, "eigenvalue bound rows",
               (*_MATRIX, "--format", "--out", "--allow-large", "--with-actual"), {}),
    "spectrum": (cmd_spectrum, "sorted eigenvalues plus summary",
                 (*_MATRIX, "--format", "--out", "--allow-large"), {}),
    "verify": (cmd_verify, "run the invariant suites",
               ("--format", "--out", "--allow-large", "--n-max", "--exact-only"), {}),
    "inertia-sweep": (cmd_inertia_sweep, "eigenvalue sign counts per n",
                      ("--family", "--n", "--epsilon", "--r", "--alpha", "--beta",
                       "--format", "--out", "--allow-large"),
                      {"--family": dict(default="lcm"), **_N_REQUIRED}),
    "compare": (cmd_compare, "interval comparison for the gcd family",
                ("--n", "--format", "--out", "--allow-large"), _N_REQUIRED),
    "reproduce-paper": (cmd_reproduce_paper, "golden-number regression table",
                        ("--format", "--out"), {}),
    "export-matrix": (cmd_export_matrix, "write the matrix as CSV",
                      (*_MATRIX, "--out", "--allow-large"), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smith-spectra",
        description="gcd/lcm-family matrices: spectra, trace statistics and eigenvalue bounds",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, overrides) in SUBCOMMANDS.items():
        # no prefix matching, so an option a subcommand lacks (verify --n)
        # is never taken for one it has (--n-max)
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **{**OPTIONS[option], **overrides.get(option, {})})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return SUBCOMMANDS[args.command][0](args)
    except (ValueError, OverflowError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JacobiConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
