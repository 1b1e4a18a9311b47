"""Every verify check can fail.

Each spectral check passes on its true context and fails on a copy with one
field corrupted just past the check's bound; eight one-line mutants of
``checks.py`` each accept such a copy, which the real check rejects; and
each exact check fails exactly on the row whose closed form is off by one.
The exact checks' brute-force references come from one pass that takes each
gcd once, so one wrong gcd fails every row built on it and no other.
The corrupted copies come from ``dataclasses.replace`` on the contexts that
``_spectral_checks`` really builds.
"""

import sys
import types
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from smith_spectra import arith, checks

ORDERS = (2, 5, 30)
FAMILIES = ("gcd", "lcm")


@pytest.fixture(scope="module")
def contexts():
    """The context of every (n, family) up to the largest order, recorded by
    running the real `_spectral_checks` with a one-entry table that keeps them."""
    seen = {}

    def record(c):
        seen[c.n, c.family] = c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_CHECKS", (record,))
        assert checks._spectral_checks(max(ORDERS)) == []
    return seen


def moved(spec, k, value):
    """``spec`` with its k-th eigenvalue replaced by ``value``."""
    values = list(spec.eigenvalues)
    values[k] = value
    return replace(spec, eigenvalues=tuple(values))


def with_spec(c, k, value):
    return replace(c, spec=moved(c.spec, k, value))


def off_diagonal(c):
    return float(np.max(np.abs(c.matrix.entries - np.diag(c.matrix.diagonal()))))


def cross_term_bound(c):
    return c.n - 1 if c.family == "gcd" else 2 * c.n * (c.n - 1)


def trace_kept_squares_moved(c):
    # one eigenvalue up and one down by the same amount: the trace stays,
    # the sum of squares moves by about 2 d (max - min)
    d = 1e-5 * c.n * c.scale
    return replace(c, spec=moved(moved(c.spec, 0, c.spec.min + d), -1, c.spec.max - d))


def at_bound(k, attr):
    """The k-th eigenvalue moved onto the improved bracket's ``attr``; the
    bracket is strict, so that fails it."""
    return lambda c: None if c.improved is None else with_spec(c, k, getattr(c.improved, attr))


def base_gap_reached(c):
    if c.base is None:
        return None
    lam = c.spec.eigenvalues
    return replace(c, base=moved(c.base, -2, c.base.min + (lam[-2] - lam[0])))


# check -> {corruption: the corrupted context, or None where it does not apply}
CORRUPTIONS = {
    "_definiteness": {
        "min at zero": lambda c: with_spec(c, 0, 0.0),
        "lcm max at zero": lambda c: with_spec(c, -1, 0.0) if c.family == "lcm" else None,
    },
    "_trace_consistency": {
        "one eigenvalue moved": lambda c: with_spec(c, 0, c.spec.min + 1e-5 * c.n * c.scale),
        "trace kept, squares moved": trace_kept_squares_moved,
    },
    "_diagonal_bracketing": {
        "min above the diagonal": lambda c: with_spec(
            c, 0, c.matrix.diagonal().min() + 1e-6 * c.scale),
        "max below the diagonal": lambda c: with_spec(
            c, -1, c.matrix.diagonal().max() - 1e-6 * c.scale),
    },
    "_spread_bound": {
        "spread 1.5 max|off|": lambda c: with_spec(c, -1, c.spec.min + 1.5 * off_diagonal(c)),
    },
    "_ws_consistency": {
        "closed s^2 off": lambda c: replace(
            c, closed=replace(c.closed, s_squared=c.closed.s_squared * (1 + Fraction(1, 10**9)))),
    },
    "_ws_equality_at_2": {
        "min below": lambda c: with_spec(c, 0, c.spec.min - 1e-6 * c.scale),
        "max above": lambda c: with_spec(c, -1, c.spec.max + 1e-6 * c.scale),
    },
    "_cauchy_interlacing": {
        "lower side": lambda c: replace(c, prev=moved(
            c.prev, 0, c.spec.min - 1e-6 * max(map(abs, c.spec.eigenvalues)))),
        "upper side": lambda c: replace(c, prev=moved(
            c.prev, -1, c.spec.max + 1e-6 * max(map(abs, c.spec.eigenvalues)))),
    },
    "_smith_determinant_eigenproduct": {
        "one eigenvalue scaled": lambda c: with_spec(c, 0, c.spec.min * (1 + 1e-5)),
    },
    "_mh_contains_gcd_spectrum": {
        "min below": lambda c: with_spec(c, 0, c.mh[0] - 1e-6 * c.scale),
        "max above": lambda c: with_spec(c, -1, c.mh[1] + 1e-6 * c.scale),
    },
    "_mh_dominates_gcd_bracket": {
        "lower end out": lambda c: replace(
            c, improved=replace(c.improved, lambda_min_lower=c.mh[0])),
        "upper end out": lambda c: replace(
            c, improved=replace(c.improved, lambda_max_upper=c.mh[1])),
    },
    "_improved_bracket": {
        "min at its lower bound": at_bound(0, "lambda_min_lower"),
        "min at its upper bound": at_bound(0, "lambda_min_upper"),
        "max at its lower bound": at_bound(-1, "lambda_max_lower"),
        "max at its upper bound": at_bound(-1, "lambda_max_upper"),
    },
    "_cross_term": {
        "spread just under the bound": lambda c: with_spec(
            c, -1, c.spec.min + cross_term_bound(c) * (1 - 1e-6)),
        "base gap reached": base_gap_reached,
    },
}


def test_the_table_is_the_output_order():
    assert [f.__name__ for f in checks._CHECKS] == [
        "_definiteness", "_trace_consistency", "_diagonal_bracketing", "_spread_bound",
        "_ws_consistency", "_ws_equality_at_2", "_cauchy_interlacing",
        "_smith_determinant_eigenproduct", "_mh_contains_gcd_spectrum",
        "_mh_dominates_gcd_bracket", "_improved_bracket", "_radicand_gain", "_cross_term",
    ]
    # every check but the radicand gain (below) has corruptions here
    assert set(CORRUPTIONS) | {"_radicand_gain"} == {f.__name__ for f in checks._CHECKS}


def test_each_context_holds_the_batch_lookups(contexts):
    for (n, family), c in contexts.items():
        prev = contexts.get((n - 1, family))
        assert c.prev is (prev.spec if prev else None)
        base = 3 if family == "gcd" else 4
        assert c.base is (contexts[base, family].spec if n > base else None)
        assert (c.improved is None) == (n < 3)
        assert (c.mh is not None) == (family == "gcd")  # every order here is <= MH_CAP
        assert c.scale == np.max(np.abs(c.matrix.entries))


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("check", checks._CHECKS, ids=lambda f: f.__name__)
def test_true_context_passes(contexts, check, n):
    results = [check(contexts[n, family]) for family in FAMILIES]
    assert [r for r in results if r is not None and not r.ok] == []


@pytest.mark.parametrize("check", checks._CHECKS, ids=lambda f: f.__name__)
def test_every_check_applies_at_a_tested_order(contexts, check):
    assert any(check(contexts[n, family]) is not None for n in ORDERS for family in FAMILIES)


@pytest.mark.parametrize("name, corruption", [
    (name, corruption) for name, cases in CORRUPTIONS.items() for corruption in cases])
def test_corrupted_context_fails(contexts, name, corruption):
    check, corrupt = getattr(checks, name), CORRUPTIONS[name][corruption]
    tried = []
    for n in ORDERS:
        for family in FAMILIES:
            c = contexts[n, family]
            if check(c) is None:
                continue
            bad = corrupt(c)
            if bad is None:
                continue
            result = check(bad)
            assert result is not None and not result.ok, (n, family, result)
            tried.append((n, family))
    assert tried


@pytest.mark.parametrize("n, family", [(n, f) for n in ORDERS[1:] for f in FAMILIES])
def test_radicand_gain_fails_on_a_radicand_one_billionth_off(contexts, monkeypatch, n, family):
    # the gain is an identity in s^2, so no corrupted field can fail it: what
    # it tests is the code's radicand, read from the module at call time
    c = contexts[n, family]
    assert checks._radicand_gain(c).ok
    real = checks.inner_radicand
    monkeypatch.setattr(checks, "inner_radicand",
                        lambda *args: real(*args) + Fraction(1, 10**9))
    assert not checks._radicand_gain(c).ok


# ---------------------------------------------------------------------------
# mutants: one-line edits of checks.py, each of which the tests above kill

# mutant -> (old, new, the check, the corruption that kills it at n = 5, family)
MUTANTS = {
    "slack 1e-9 scale to 1e-3 scale": (
        "return 1e-9 * self.scale", "return 1e-3 * self.scale",
        "_diagonal_bracketing", "min above the diagonal", "gcd"),
    "trace tolerance 1e-8 to 1e-2": (
        "ok = trace_err <= 1e-8 * n * scale and sq_err <= 1e-8 * n * scale * scale",
        "ok = trace_err <= 1e-2 * n * scale and sq_err <= 1e-2 * n * scale * scale",
        "_trace_consistency", "one eigenvalue moved", "gcd"),
    "interlacing loosened by 1": (
        "slack = 1e-9 * max(abs(v) for v in lam)",
        "slack = 1e-9 * max(abs(v) for v in lam) + 1",
        "_cauchy_interlacing", "lower side", "gcd"),
    "cross_term_lcm to spread > 0": (
        "else 2 * c.n * (c.n - 1))", "else 0)",
        "_cross_term", "spread just under the bound", "lcm"),
    "cross_term_gcd to spread > 0": (
        '(c.n - 1 if c.family == "gcd"', '(0 if c.family == "gcd"',
        "_cross_term", "spread just under the bound", "gcd"),
    "determinant tolerance 1e-6 to 1e-1": (
        "ok = abs(det - expected) <= 1e-6 * abs(expected)",
        "ok = abs(det - expected) <= 1e-1 * abs(expected)",
        "_smith_determinant_eigenproduct", "one eigenvalue scaled", "gcd"),
    "spread factor 2 to 1": (
        ">= 2 * np.max(np.abs(off))", ">= 1 * np.max(np.abs(off))",
        "_spread_bound", "spread 1.5 max|off|", "gcd"),
    "mh_dominates_gcd_bracket on one side": (
        "ok = c.mh[0] < c.improved.lambda_min_lower and c.improved.lambda_max_upper < c.mh[1]",
        "ok = c.mh[0] < c.improved.lambda_min_lower",
        "_mh_dominates_gcd_bracket", "upper end out", "gcd"),
}


def mutant_module(monkeypatch, old, new):
    """A fresh module run from the source of ``checks.py`` with one edit."""
    source = Path(checks.__file__).read_text()
    assert source.count(old) == 1, f"stale mutant: {old!r} matches {source.count(old)} times"
    module = types.ModuleType("smith_spectra.checks_mutant")
    # dataclass looks its module up while it builds a class
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), module.__name__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_accepts_a_context_the_real_check_rejects(contexts, monkeypatch, mutant):
    old, new, name, corruption, family = MUTANTS[mutant]
    module = mutant_module(monkeypatch, old, new)
    bad = CORRUPTIONS[name][corruption](contexts[5, family])
    assert not getattr(checks, name)(bad).ok
    # rebuilt in the mutant's own context class, so that its slack is the one read
    bad = module._Context(**{f.name: getattr(bad, f.name) for f in fields(bad)})
    assert getattr(module, name)(bad).ok


# ---------------------------------------------------------------------------
# exact checks

EXACT_N, EXACT_AT = 12, 7


def corrupt_for_exact_checks(monkeypatch, name, change):
    """Make ``arith.<name>`` return one changed value at EXACT_AT, but only to
    ``_exact_checks``: the closed forms built on it inside ``arith`` see the
    real one, so only the row that reads it directly can fail."""
    real = getattr(arith, name)

    def corrupted(n, *args):
        value = real(n, *args)
        if sys._getframe(1).f_code is not checks._exact_checks.__code__:
            return value
        if isinstance(value, arith.ArithTable):
            values = list(value.values)
            values[EXACT_AT] = change(values[EXACT_AT])
            return replace(value, values=tuple(values))
        return change(value) if n == EXACT_AT else value

    monkeypatch.setattr(arith, name, corrupted)


def failed_exact_rows():
    return [(r.check, r.n) for r in checks.failures(checks.run_checks(EXACT_N, exact_only=True))]


def test_exact_checks_pass_unchanged():
    assert failed_exact_rows() == []


@pytest.mark.parametrize("name, check", [
    ("gcd_square_row_sum", "gcd_rowsum_oracle"),
    ("lcm_square_row_sum", "lcm_rowsum_oracle"),
    ("coprime_square_sum_table", "coprime_square_sum_oracle"),
    ("s_squared_gcd", "s_squared_gcd_exact"),
    ("s_squared_lcm", "s_squared_lcm_exact"),
])
def test_exact_check_fails_on_its_row_only(monkeypatch, name, check):
    corrupt_for_exact_checks(monkeypatch, name, lambda v: v + 1)
    assert failed_exact_rows() == [(check, EXACT_AT)]


@pytest.mark.parametrize("family", FAMILIES)
def test_s_squared_positive_fails_at_zero(monkeypatch, family):
    corrupt_for_exact_checks(monkeypatch, f"s_squared_{family}", lambda v: 0 * v)
    assert failed_exact_rows() == [(f"s_squared_{family}_exact", EXACT_AT),
                                   (f"s_squared_{family}_positive", EXACT_AT)]


def test_mobius_inversion_fails_on_a_broken_mobius_table(monkeypatch):
    # the round trip f * mu * zeta = f holds for any table f, so mu is what it tests
    corrupt_for_exact_checks(monkeypatch, "sieve_mobius", lambda v: v + 1)
    assert failed_exact_rows() == [("mobius_inversion[phi]", EXACT_N),
                                   ("mobius_inversion[N^2]", EXACT_N)]


def test_totient_zeta_fails_on_a_broken_totient_table(monkeypatch):
    corrupt_for_exact_checks(monkeypatch, "sieve_totient", lambda v: v + 1)
    assert failed_exact_rows() == [("totient_zeta_is_identity_map", EXACT_N)]


def test_one_wrong_gcd_fails_every_row_the_shared_pass_builds_from_it(monkeypatch):
    # the three oracles and both tr(A^2) sums read the one brute-force pass
    real = checks.gcd
    monkeypatch.setattr(checks, "gcd", lambda i, j: real(i, j) + ({i, j} == {EXACT_AT, 1}))
    assert failed_exact_rows() == [
        ("gcd_rowsum_oracle", EXACT_AT), ("lcm_rowsum_oracle", EXACT_AT),
        ("coprime_square_sum_oracle", EXACT_AT),
        *((f"s_squared_{family}_exact", n)
          for n in range(EXACT_AT, EXACT_N + 1) for family in FAMILIES)]


def test_the_brute_force_pass_takes_each_gcd_once(monkeypatch):
    real, pairs = checks.gcd, []

    def counted(i, j):
        pairs.append((min(i, j), max(i, j)))
        return real(i, j)

    monkeypatch.setattr(checks, "gcd", counted)
    checks._exact_checks(EXACT_N)
    assert len(pairs) == len(set(pairs)) == EXACT_N * (EXACT_N + 1) // 2
