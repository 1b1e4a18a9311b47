"""Oracles for the benchmark's workloads, independent of the package.

Each oracle parses the captured output of one pass and recomputes what it
checks from first principles: brute-force trace sums, a distinct-prime-factor
sieve, ``numpy.linalg.eigvalsh`` and the bound formulas of the paper. Nothing
here imports ``smith_spectra``. Oracles run in the parent process, outside
all timing.

Each workload also has a corruption that a correct oracle must reject; the
benchmark applies it to every accepted output, so an oracle that stops
looking shows up as a wrong run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt

import numpy as np

BOUNDS_N = range(2, 2001)
INERTIA_N = range(2, 101)
VERIFY_N_MAX = 80
HONG_N = 6

# The one failure the package reports by design: the +32 cross term behind
# the improved lcm bracket needs interlacing from order 4, so at n = 3 the
# smallest eigenvalue lies outside its inner bound.
KNOWN_FAILURES = {"verify": {("improved_lcm_bracket", 3)}}


@dataclass
class Verdict:
    """Items attempted in one pass, and one message per item that failed."""

    items: int
    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)


def _whole_pass_failed(items: int, reason: str) -> Verdict:
    return Verdict(items, [reason] * items)


def _close(value: float, ref: float, scale: float) -> bool:
    # CSV floats carry 10 significant digits; the scale term covers the
    # rounding of m -+ r when the two nearly cancel
    return abs(value - ref) <= 1e-9 * abs(ref) + 1e-12 * scale


def _lcm_table(n: int) -> np.ndarray:
    x = np.arange(1, n + 1, dtype=np.int64)
    return np.lcm.outer(x, x)


def _gcd_table(n: int) -> np.ndarray:
    x = np.arange(1, n + 1, dtype=np.int64)
    return np.gcd.outer(x, x)


def _s_squared(table: np.ndarray) -> Fraction:
    """s^2 = tr(A^2)/n - (tr A / n)^2, exact; each row sum fits in int64."""
    n = table.shape[0]
    tr2 = sum(int(v) for v in (table * table).sum(axis=1))
    m = Fraction(int(np.trace(table)), n)
    return Fraction(tr2, n) - m * m


def _expected_lcm_brackets(n: int) -> tuple[float, float, float, float, float]:
    """(s, min_lower, min_upper, max_lower, max_upper) for the lcm matrix on {1..n}.

    Outer endpoints are Wolkowicz-Styan, m -+ s sqrt(n-1). Inner ones are
    m -+ s/sqrt(n-1) at n = 2 and m -+ sqrt(s^2/(n-1) + 32) from n = 3 on.
    """
    m = (n + 1) / 2
    s2 = _s_squared(_lcm_table(n))
    s = sqrt(float(s2))
    inner = s / sqrt(n - 1) if n == 2 else sqrt(float(s2 / (n - 1) + 32))
    outer = s * sqrt(n - 1)
    return s, m - outer, m - inner, m + inner, m + outer


def _expected_gcd_brackets(n: int) -> tuple[float, float, float, float]:
    """Inner radicand s^2/(n-1) + 2/n, outer Wolkowicz-Styan, n >= 3."""
    m = (n + 1) / 2
    s2 = _s_squared(_gcd_table(n))
    inner = sqrt(float(s2 / (n - 1) + Fraction(2, n)))
    outer = sqrt(float(s2)) * sqrt(n - 1)
    return m - outer, m - inner, m + inner, m + outer


def _parse_csv(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _render_csv(text: str, rows: list[dict[str, str]]) -> str:
    meta = [line for line in text.splitlines() if line.startswith("#")]
    header = list(rows[0])
    body = [",".join(row[col] for col in header) for row in rows]
    return "\n".join(meta + [",".join(header)] + body) + "\n"


# ---------------------------------------------------------------------------
# bounds-lcm


def sample_bounds(rng: random.Random) -> list[int]:
    """n = 2 (the Wolkowicz-Styan fallback), n = 3 (where the +32 of the inner
    radicand is largest against s^2/(n-1)) and five seed-picked orders."""
    return [2, 3] + sorted(rng.sample(range(4, BOUNDS_N.stop), 5))


def check_bounds(text: str, code: int, sample: list[int]) -> Verdict:
    items = len(BOUNDS_N)
    if code != 0:
        return _whole_pass_failed(items, f"exit code {code}")
    try:
        rows = _parse_csv(text)
    except (IndexError, ValueError):
        return _whole_pass_failed(items, "unparseable csv")
    if [r.get("n") for r in rows] != [str(n) for n in BOUNDS_N]:
        return _whole_pass_failed(items, "rows are not n = 2..2000 in order")
    out = Verdict(items)
    for n, row in zip(BOUNDS_N, rows):
        try:
            out.failures += _bounds_row_failures(n, row, n in sample)
        except (KeyError, ValueError):
            out.failures.append(f"n={n}: unparseable row")
    return out


def _bounds_row_failures(n: int, row: dict[str, str], spot_check: bool) -> list[str]:
    method, flag = ("ws", "ws_equality") if n == 2 else ("improved_lcm", "")
    if (row["family"], row["method"], row["flag"]) != ("lcm", method, flag):
        return [f"n={n}: labels {row['family']},{row['method']},{row['flag']}"]
    if float(row["m"]) != (n + 1) / 2:
        return [f"n={n}: m={row['m']} != (n+1)/2"]
    if not spot_check:
        return []
    expected = _expected_lcm_brackets(n)
    cols = ("s", "min_lower", "min_upper", "max_lower", "max_upper")
    bad = [c for c, ref in zip(cols, expected)
           if not _close(float(row[c]), ref, abs(expected[-1]))]
    return [f"n={n}: {','.join(bad)} differ from brute force"] if bad else []


def corrupt_bounds(text: str, sample: list[int]) -> str:
    rows = _parse_csv(text)
    row = next(r for r in rows if int(r["n"]) == sample[-1])
    row["min_upper"] = f"{float(row['min_upper']) + 1e-3 * abs(float(row['max_upper'])):.10g}"
    return _render_csv(text, rows)


# ---------------------------------------------------------------------------
# inertia-lcm


def _omega_even_counts(limit: int) -> list[int]:
    """counts[n] = #{d <= n : d has an even number of distinct prime factors}."""
    omega = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if omega[p] == 0:  # no smaller prime divides p
            for k in range(p, limit + 1, p):
                omega[k] += 1
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        counts[d] = counts[d - 1] + (omega[d] % 2 == 0)
    return counts


def sample_inertia(rng: random.Random) -> list[int]:
    """Orders whose counts are also taken from eigvalsh."""
    return sorted(rng.sample(INERTIA_N, 3))


def check_inertia(text: str, code: int, sample: list[int]) -> Verdict:
    items = len(INERTIA_N)
    if code != 0:
        return _whole_pass_failed(items, f"exit code {code}")
    try:
        rows = _parse_csv(text)
    except (IndexError, ValueError):
        return _whole_pass_failed(items, "unparseable csv")
    if [r.get("n") for r in rows] != [str(n) for n in INERTIA_N]:
        return _whole_pass_failed(items, "rows are not n = 2..100 in order")
    even = _omega_even_counts(INERTIA_N.stop - 1)
    out = Verdict(items)
    for n, row in zip(INERTIA_N, rows):
        pos, neg = even[n], n - even[n]
        if n in sample:
            values = np.linalg.eigvalsh(_lcm_table(n).astype(np.float64))
            if (int(np.sum(values > 0)), int(np.sum(values < 0))) != (pos, neg):
                out.failures.append(f"n={n}: eigvalsh disagrees with the omega count")
                continue
        try:
            got = (row["family"], int(row["positive"]), int(row["negative"]),
                   int(row["zero"]), int(row["pos_minus_neg"]))
        except (KeyError, ValueError):
            out.failures.append(f"n={n}: unparseable row")
            continue
        if got != ("lcm", pos, neg, 0, pos - neg):
            out.failures.append(f"n={n}: got {got[1:]}, expected {(pos, neg, 0, pos - neg)}")
    return out


def corrupt_inertia(text: str, sample: list[int]) -> str:
    rows = _parse_csv(text)
    row = next(r for r in rows if int(r["n"]) == sample[0])
    row["positive"] = str(int(row["positive"]) + 1)
    return _render_csv(text, rows)


# ---------------------------------------------------------------------------
# verify


def sample_verify(rng: random.Random) -> list[int]:
    """n = 3 (the known failure) and three seed-picked orders whose improved
    bracket rows are recomputed from eigvalsh and brute-force s^2."""
    return [3] + sorted(rng.sample(range(4, VERIFY_N_MAX + 1), 3))


def _brackets_hold(n: int, family: str) -> bool:
    table = _gcd_table(n) if family == "gcd" else _lcm_table(n)
    values = np.linalg.eigvalsh(table.astype(np.float64))
    if family == "gcd":
        lo_l, lo_u, hi_l, hi_u = _expected_gcd_brackets(n)
    else:
        lo_l, lo_u, hi_l, hi_u = _expected_lcm_brackets(n)[1:]
    return bool(lo_l < values[0] < lo_u and hi_l < values[-1] < hi_u)


def check_verify(text: str, code: int, sample: list[int]) -> Verdict:
    try:
        payload = json.loads(text)
        rows = payload["rows"]
        meta = payload["meta"]
        failed = {(r["check"], r["n"]) for r in rows if not r["ok"]}
    except (ValueError, KeyError, TypeError):
        return _whole_pass_failed(1, "unparseable json")
    out = Verdict(max(len(rows), 1))
    known = KNOWN_FAILURES["verify"]
    out.known = [f"{check}@n={n}" for check, n in sorted(failed & known)]
    out.failures += [f"{check}@n={n} failed" for check, n in sorted(failed - known)]
    out.failures += [f"known failure {check}@n={n} missing" for check, n in sorted(known - failed)]
    if code != (1 if failed else 0):
        out.failures.append(f"exit code {code} with {len(failed)} failed checks")
    if (meta.get("checks"), meta.get("failures")) != (len(rows), len(failed)):
        out.failures.append(f"meta counts {meta.get('checks')}/{meta.get('failures')} "
                            f"!= rows {len(rows)}/{len(failed)}")
    by_key = {(r["check"], r["n"]): r["ok"] for r in rows}
    for n in sample:
        for family in ("gcd", "lcm"):
            key = (f"improved_{family}_bracket", n)
            if key not in by_key:
                out.failures.append(f"{key[0]}@n={n} missing")
            elif by_key[key] != _brackets_hold(n, family):
                out.failures.append(f"{key[0]}@n={n} disagrees with eigvalsh")
    return out


def corrupt_verify(text: str, sample: list[int]) -> str:
    payload = json.loads(text)
    row = next(r for r in payload["rows"] if r["ok"])
    row["ok"] = False
    payload["meta"]["failures"] += 1
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# hong-c6


def _hong_smallest_eigenvalues(n: int) -> np.ndarray:
    """Smallest eigenvalue of Y Y^T for every unit lower-triangular 0/1 Y."""
    rows, cols = np.tril_indices(n, -1)
    count = 1 << len(rows)
    bits = (np.arange(count)[:, None] >> np.arange(len(rows))) & 1
    y = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    y[:, rows, cols] = bits
    return np.linalg.eigvalsh(y @ y.transpose(0, 2, 1))[:, 0]


def sample_hong(rng: random.Random) -> list[int]:
    """hong-c6 is checked in full, so the seed picks nothing."""
    return []


def check_hong(text: str, code: int, sample: list[int]) -> Verdict:
    items = 1 << (HONG_N * (HONG_N - 1) // 2)
    if code != 0:
        return _whole_pass_failed(items, f"exit code {code}")
    try:
        result = json.loads(text)
        c_n = float(result["c_n"])
        w = np.array(result["witness"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return _whole_pass_failed(items, "unparseable result")
    ref = float(np.min(_hong_smallest_eigenvalues(HONG_N)))
    if result.get("n") != HONG_N or abs(c_n - ref) > 1e-9:
        return _whole_pass_failed(items, f"c_{HONG_N} = {c_n!r}, eigvalsh gives {ref!r}")
    unit_lower = (w.shape == (HONG_N, HONG_N) and np.all(np.diag(w) == 1)
                  and np.all(np.triu(w, 1) == 0) and np.all((w == 0) | (w == 1)))
    if not unit_lower:
        return _whole_pass_failed(items, "witness is not unit lower-triangular 0/1")
    if abs(np.linalg.eigvalsh(w @ w.T)[0] - c_n) > 1e-9:
        return _whole_pass_failed(items, "witness does not attain c_n")
    return Verdict(items)


def corrupt_hong(text: str, sample: list[int]) -> str:
    result = json.loads(text)
    result["c_n"] += 1e-3
    return json.dumps(result)


ORACLES = {
    "bounds-lcm": (sample_bounds, check_bounds, corrupt_bounds),
    "inertia-lcm": (sample_inertia, check_inertia, corrupt_inertia),
    "verify": (sample_verify, check_verify, corrupt_verify),
    "hong-c6": (sample_hong, check_hong, corrupt_hong),
}
