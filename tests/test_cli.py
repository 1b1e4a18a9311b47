"""CLI contract tests: output schemas, exit codes, determinism, caps."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smith_spectra
from smith_spectra import arith, eig
from smith_spectra.cli import FAMILIES, SUBCOMMANDS, main
from smith_spectra.eig import jacobi_eigenvalues
from smith_spectra.matrices import IntegerSet, reciprocal_lcm_matrix


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def parse_json(text: str) -> dict:
    return json.loads(text)


class TestBoundsCommand:
    def test_gcd_reference_row(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "gcd", "--n", "20",
                            "--with-actual", "--format", "json")
        assert code == 0
        row = parse_json(out)["rows"][0]
        assert row["method"] == "improved_gcd"
        assert row["min_lower"] == pytest.approx(-40.2114, abs=5e-4)
        assert row["min_upper"] == pytest.approx(7.8123, abs=5e-4)
        assert row["max_lower"] == pytest.approx(13.1876, abs=5e-4)
        assert row["max_upper"] == pytest.approx(61.2114, abs=5e-4)
        assert row["min_lower"] < row["actual_min"] < row["min_upper"]
        assert row["max_lower"] < row["actual_max"] < row["max_upper"]

    def test_lcm_n2_is_flagged_ws_fallback(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "lcm", "--n", "2",
                            "--format", "csv")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["method"] == "ws"
        assert row["flag"] == "ws_equality"

    def test_range_rows_bracket_actual(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "gcd", "--n", "3..10",
                            "--with-actual", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        for row in rows:
            assert float(row["min_lower"]) < float(row["actual_min"]) < float(row["min_upper"])
            assert float(row["max_lower"]) < float(row["actual_max"]) < float(row["max_upper"])

    def test_explicit_set_uses_ws(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "gcd", "--set", "4,6,10",
                            "--format", "json")
        assert code == 0
        assert parse_json(out)["rows"][0]["method"] == "ws"

    def test_power_family_from_traces(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "power-gcd", "--n", "6",
                            "--epsilon", "2", "--with-actual", "--format", "json")
        assert code == 0
        row = parse_json(out)["rows"][0]
        assert row["min_lower"] <= row["actual_min"] + 1e-9
        assert row["actual_max"] <= row["max_upper"] + 1e-9

    def test_reciprocal_lcm_rows_are_ws(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "recip-lcm", "--r", "2",
                            "--n", "2..6", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert [row["n"] for row in rows] == ["2", "3", "4", "5", "6"]
        assert {row["method"] for row in rows} == {"ws"}

    def test_missing_n_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--family", "gcd")
        assert code == 2

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--family", "nope", "--n", "3"])
        assert err.value.code == 2

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the case
    @pytest.mark.parametrize("argv, message", [
        # an entry overflows a float
        (["--family", "power-gcd", "--epsilon", "400", "--n", "10"], "power_gcd(epsilon=400)"),
        # OSError
        (["--family", "gcd", "--n", "5", "--out", "{tmp}/missing-dir/x.csv"], "missing-dir"),
        # finite entries whose squares overflow the trace statistics
        (["--family", "mixed", "--alpha", "200", "--beta", "150", "--n", "3"],
         "mixed(alpha=200,beta=150)"),
        # a range whose top is below its bottom
        (["--family", "gcd", "--n", "5..3"], "error: empty range '5..3'"),
        (["--family", "mixed", "--set", "1,2,3"],
         "error: family 'mixed' is defined on {1..n}; use --n, not --set"),
    ], ids=["overflow", "unwritable-out", "mixed-overflow", "empty-range", "mixed-set"])
    def test_bad_input_is_usage_error(self, capsys, tmp_path, argv, message):
        code = main(["bounds"] + [arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--set", "1,2", "--n", "3000"],  # was refused by the cap for --n
        ["bounds", "--set", "1,2", "--n", "5"],  # silently dropped the 5
        ["spectrum", "--set", "1,2", "--n", "2"],
        ["export-matrix", "--set", "1,2", "--n", "3"],
    ], ids=["bounds-over-cap", "bounds", "spectrum", "export-matrix"])
    def test_set_together_with_n_is_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {argv[0]} takes --n or --set, not both\n"
        assert captured.out == ""


class TestSpectrumCommand:
    def test_exact_lcm_pair(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--family", "lcm", "--set", "1,2",
                            "--format", "json")
        assert code == 0
        values = [row["eigenvalue"] for row in parse_json(out)["rows"]]
        assert values[0] == pytest.approx((3 - 17**0.5) / 2, abs=1e-10)
        assert values[1] == pytest.approx((3 + 17**0.5) / 2, abs=1e-10)

    def test_gcd_three(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--family", "gcd", "--n", "3",
                            "--format", "json")
        assert code == 0
        values = [row["eigenvalue"] for row in parse_json(out)["rows"]]
        assert values[0] == pytest.approx(0.324, abs=5e-3)
        assert values[1] == pytest.approx(1.460, abs=5e-3)
        assert len(values) == 3

    def test_trivial_single_element(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--family", "gcd", "--n", "1",
                            "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert [row["eigenvalue"] for row in payload["rows"]] == [1.0]

    def test_reciprocal_lcm_family(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--family", "recip-lcm", "--r", "2",
                            "--n", "5", "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["meta"]["family"] == "reciprocal_lcm(r=2)"
        expected = jacobi_eigenvalues(reciprocal_lcm_matrix(IntegerSet.first_n(5), 2.0))
        assert [row["eigenvalue"] for row in payload["rows"]] == list(expected.eigenvalues)

    def test_nonconvergence_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(eig, "DEFAULT_MAX_SWEEPS", 0)
        code = main(["spectrum", "--n", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: Jacobi iteration did not converge in 0 sweeps")

    def test_summary_metadata_is_exact(self, capsys):
        _, out = run_cli(capsys, "spectrum", "--family", "lcm", "--n", "2",
                         "--format", "json")
        meta = parse_json(out)["meta"]
        assert meta["m"] == "3/2"
        assert meta["s_squared"] == "17/4"


class TestVerifyCommand:
    def test_exact_only_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--n-max", "60", "--exact-only",
                            "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["meta"]["failures"] == 0
        assert all(row["ok"] for row in payload["rows"])

    def test_full_suite_reports_known_lcm_violation(self, capsys):
        # the +32 cross term is invalid at order 3; verify must report it
        code, out = run_cli(capsys, "verify", "--n-max", "10", "--format", "json")
        assert code == 1
        bad = [row for row in parse_json(out)["rows"] if not row["ok"]]
        assert [(row["check"], row["n"]) for row in bad] == [("improved_lcm_bracket", 3)]

    def test_n_max_two_confirms_ws_equality(self, capsys):
        code, out = run_cli(capsys, "verify", "--n-max", "2", "--format", "json")
        assert code == 0
        rows = parse_json(out)["rows"]
        names = {row["check"] for row in rows}
        assert "ws_equality_at_2[gcd]" in names
        assert "ws_equality_at_2[lcm]" in names
        # the improved brackets need n >= 3, so at n = 2 they are flagged skips
        skips = [row for row in rows if row["check"].startswith("improved_")]
        assert skips and all(row["ok"] and "skipped" in row["observed"] for row in skips)


class TestInertiaSweep:
    def test_small_orders(self, capsys):
        code, out = run_cli(capsys, "inertia-sweep", "--n", "2..8", "--format", "json")
        assert code == 0
        rows = parse_json(out)["rows"]
        assert rows[0] == {"n": 2, "family": "lcm", "positive": 1, "negative": 1,
                           "zero": 0, "pos_minus_neg": 0}
        four = next(row for row in rows if row["n"] == 4)
        assert (four["positive"], four["negative"], four["zero"]) == (1, 3, 0)

    def test_sign_counts_positive_through_fifty(self, capsys):
        code, out = run_cli(capsys, "inertia-sweep", "--n", "3..50", "--format", "json")
        assert code == 0
        for row in parse_json(out)["rows"]:
            assert row["positive"] >= 1
            assert row["negative"] >= 1

    def test_gcd_family_all_positive(self, capsys):
        code, out = run_cli(capsys, "inertia-sweep", "--family", "gcd", "--n", "5",
                            "--format", "json")
        assert code == 0
        (row,) = parse_json(out)["rows"]
        assert (row["positive"], row["negative"], row["zero"]) == (5, 0, 0)

    @pytest.mark.parametrize("argv, last_row", [
        # the smallest |lambda| (0.21) is below 1e-9 * ||A||_F (4.06)
        ("--family mixed --alpha 1 --beta 2 --n 120", "120,mixed,67,53,0,14"),
        # above the 500 solve cap: the counts need no solve
        ("--family lcm --n 800", "800,lcm,430,370,0,60"),
        ("--family recip-lcm --r 6 --n 300", "300,recip-lcm,300,0,0,300"),
        ("--family power-gcd --epsilon -3 --n 300", "300,power-gcd,164,136,0,28"),
        # no float matrix is built, so gcd^400 does not overflow
        ("--family power-gcd --epsilon 400 --n 10", "10,power-gcd,10,0,0,10"),
    ], ids=["mixed", "lcm-800", "recip-lcm", "power-gcd", "power-gcd-400"])
    def test_exact_counts(self, capsys, argv, last_row):
        code, out = run_cli(capsys, "inertia-sweep", *argv.split(), "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == last_row

    @pytest.mark.parametrize("argv, message", [
        ("--family power-gcd --epsilon nan", "--epsilon must be finite, got nan"),
        ("--family power-gcd --epsilon inf", "--epsilon must be finite, got inf"),
        ("--family mixed --alpha inf --beta inf",
         "--alpha minus --beta must be finite, got nan"),
        ("--family recip-lcm --r inf", "--r must be finite, got inf"),
        ("--family recip-lcm --r 0", "exponent r must be > 0, got 0.0"),
    ], ids=["epsilon-nan", "epsilon-inf", "mixed-inf", "r-inf", "r-zero"])
    def test_bad_exponent_is_usage_error(self, capsys, argv, message):
        code = main(["inertia-sweep", *argv.split(), "--n", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["spectrum", "bounds", "export-matrix", "inertia-sweep"])
@pytest.mark.parametrize("argv, message", [
    ("--family recip-lcm --r inf", "--r must be finite, got inf"),
    ("--family power-gcd --epsilon=-inf", "--epsilon must be finite, got -inf"),
], ids=["r-inf", "epsilon-minus-inf"])
def test_every_matrix_command_refuses_a_non_finite_exponent(capsys, command, argv, message):
    # one rule for every command that takes --family: a finite matrix could
    # be built from these (e1 e1^T, a 0/1 matrix), but it is not the family's
    code = main([command, *argv.split(), "--n", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestCompareCommand:
    def test_reference_endpoints(self, capsys):
        code, out = run_cli(capsys, "compare", "--n", "20", "--format", "json")
        assert code == 0
        row = parse_json(out)["rows"][0]
        assert row["mh_lower"] == pytest.approx(-595.8214, abs=1e-3)
        assert row["mh_upper"] == pytest.approx(597.8214, abs=1e-3)
        assert row["min_lower"] == pytest.approx(-40.2114, abs=5e-4)
        assert row["min_upper"] == pytest.approx(7.8123, abs=5e-4)

    def test_degenerate_single_order(self, capsys):
        code, out = run_cli(capsys, "compare", "--n", "1", "--format", "json")
        assert code == 0
        row = parse_json(out)["rows"][0]
        assert row["actual_min"] == row["actual_max"] == 1.0

    def test_bracket_inside_interval_over_range(self, capsys):
        code, out = run_cli(capsys, "compare", "--n", "5..50", "--format", "json")
        assert code == 0
        for row in parse_json(out)["rows"]:
            assert row["mh_lower"] < row["min_lower"]
            assert row["max_upper"] < row["mh_upper"]

    def test_one_jordan_table_for_the_range(self, capsys, monkeypatch):
        # every order's max |J_1| comes from one table at the top order
        tables = []
        real = arith.jordan_totient
        monkeypatch.setattr(arith, "jordan_totient",
                            lambda *args: tables.append(args) or real(*args))
        code, _ = run_cli(capsys, "compare", "--n", "2..30", "--format", "csv")
        assert (code, tables) == (0, [(30, 1)])

    def test_rejects_other_families(self):
        # compare is defined for the gcd family only, so it has no --family
        with pytest.raises(SystemExit) as err:
            main(["compare", "--family", "lcm", "--n", "4"])
        assert err.value.code == 2


class TestReproducePaper:
    def test_all_golden_numbers_pass(self, capsys):
        code, out = run_cli(capsys, "reproduce-paper", "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["meta"]["failures"] == 0
        assert len(payload["rows"]) == 12


class TestExportMatrix:
    def test_integer_entries(self, capsys):
        code, out = run_cli(capsys, "export-matrix", "--family", "lcm", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1,2,3", "2,2,6", "3,6,3"]

    def test_reciprocal_lcm_entries(self, capsys):
        code, out = run_cli(capsys, "export-matrix", "--family", "recip-lcm", "--r", "2",
                            "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1,0.25,0.1111111111", "0.25,0.25,0.02777777778",
                                    "0.1111111111,0.02777777778,0.1111111111"]

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "m.csv"
        code, _ = run_cli(capsys, "export-matrix", "--family", "gcd", "--n", "2",
                          "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines() == ["1,1", "1,2"]


class TestOutputContracts:
    def test_determinism_byte_identical(self, capsys):
        _, first = run_cli(capsys, "bounds", "--family", "gcd", "--n", "3..12",
                           "--with-actual", "--format", "csv")
        _, second = run_cli(capsys, "bounds", "--family", "gcd", "--n", "3..12",
                            "--with-actual", "--format", "csv")
        assert first == second

    def test_json_round_trip_is_exact(self, capsys):
        _, out = run_cli(capsys, "bounds", "--family", "lcm", "--n", "7",
                         "--with-actual", "--format", "json")
        assert parse_json(out) == parse_json(json.dumps(parse_json(out)))

    @pytest.mark.parametrize("argv, expected_code", [
        ("bounds --family lcm --n 2..6 --with-actual", 0),
        ("spectrum --family gcd --n 5", 0),
        ("verify --n-max 5", 1),
        ("inertia-sweep --n 2..8", 0),
        ("compare --n 2..6", 0),
        ("reproduce-paper", 0),
    ])
    def test_json_numbers_are_numbers(self, capsys, argv, expected_code):
        # render has no fallback encoder: a value JSON cannot encode raises
        # instead of being printed as a quoted string
        code, out = run_cli(capsys, *argv.split(), "--format", "json")
        assert code == expected_code
        rows = parse_json(out)["rows"]
        assert rows
        text_columns = {"family", "method", "flag", "check", "observed"}
        for row in rows:
            for column, value in row.items():
                if column not in text_columns:
                    assert type(value) in (int, float, bool), (column, value)

    def test_csv_matches_json_to_printed_precision(self, capsys):
        _, as_csv = run_cli(capsys, "bounds", "--family", "gcd", "--n", "9",
                            "--format", "csv")
        _, as_json = run_cli(capsys, "bounds", "--family", "gcd", "--n", "9",
                             "--format", "json")
        csv_row = parse_csv(as_csv)[0]
        json_row = parse_json(as_json)["rows"][0]
        for key in ("m", "s", "min_lower", "min_upper", "max_lower", "max_upper"):
            assert float(csv_row[key]) == pytest.approx(json_row[key], rel=1e-9)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, printed = run_cli(capsys, "bounds", "--family", "gcd", "--n", "4",
                                "--format", "csv", "--out", str(target))
        assert code == 0
        assert printed == ""
        assert "improved_gcd" in target.read_text()


# (argv, exit code, stdout sha256): the bytes these commands print must
# not change; spectrum is left out, as it prints the kernel backend
PINNED_OUTPUTS = [
    ("bounds --family lcm --n 2..2000 --format csv", 0,
     "75a1d5c3031999dcb377f97cb4e11d00a7370873de63e849c2bb748681b42e7f"),
    ("bounds --family gcd --n 2..2000 --format csv", 0,
     "cd56181279af91ad5393d37be8fde9c41d20cbfe457eee27c169b6689fb8ba5e"),
    ("bounds --family lcm --n 3..40 --with-actual --format csv", 0,
     "aa713432962e36d2879263ae2d9b71744b76a467c6d6a4efb09f00fdbb16df65"),
    ("compare --n 2..30 --format csv", 0,
     "9ac7e96f4f7a1c798adfd8fdde9d392cf3c4869253f5adb61019e8f0716bd42d"),
    ("verify --n-max 30 --format json", 1,
     "ce7e8a2e64a809d4e8db789089603c535a6e2db40ab9aa08a59d25c8d2033ed6"),
    ("verify --n-max 30 --format table", 1,
     "0c0c7fce35e4e5efa72b0bf28e34d375d9105efd5170e1b695c42e2ae948f64f"),
    ("reproduce-paper --format csv", 0,
     "dc1a6dc451124a261501ec9e26cd9683505e6077598be9cf191d8913a09c7d78"),
    ("bounds --set 4,6,10 --with-actual", 0,
     "721bbf77ad25a5aefc8c91b95e897bfca1384f26787f7c5309f4fccc22b2ec41"),
    # lcm entries whose squares overflow int64: an object exact array
    ("bounds --set 69999999,70000001 --family lcm --format csv", 0,
     "f0dd5438d1011deff6432047f02f9fb728a3291396abdc0a65b227f3f0f1b1d0"),
    ("bounds --set 3,94906265,94906267 --family lcm --with-actual --format csv", 0,
     "7fa97795a5b786ba29967eb7381f1f111e958aa038dc947f9aedb3074f3fa438"),
    # the benchmark's verify workload
    ("verify --n-max 80 --format json", 1,
     "b8c1ad3001ecd3ef1cbe3ab0b7ab7a603ed7c3839b8f80e1e3a50cfbbd0d03c1"),
    # the solver-free run: every exact check up to the bounds cap
    ("verify --exact-only --n-max 2000 --format json", 0,
     "89b32e8283420fbe923a0b3d469bc37efd566e6b1839b4e0c48b39e771588057"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_OUTPUTS,
                         ids=[argv for argv, _, _ in PINNED_OUTPUTS])
def test_pinned_output_bytes(capsys, argv, code, digest):
    exit_code, out = run_cli(capsys, *argv.split())
    assert (exit_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


class TestCaps:
    def test_solve_cap_enforced(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--family", "gcd", "--n", "501")
        assert code == 2

    def test_bounds_only_cap_is_larger(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--family", "gcd", "--n", "600")
        assert code == 0

    def test_allow_large_overrides(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--family", "gcd", "--n", "2200",
                          "--allow-large", "--format", "csv")
        assert code == 0

    def test_caps_stay_separate_whatever_the_environment(self, capsys, monkeypatch):
        # a former SMITH_SPECTRA_MAX_N replaced both caps with one number:
        # at 1000 it let an order-501 solve through and refused bounds to 1500
        monkeypatch.setenv("SMITH_SPECTRA_MAX_N", "1000")
        code, _ = run_cli(capsys, "spectrum", "--family", "gcd", "--n", "501")
        assert code == 2
        code, _ = run_cli(capsys, "bounds", "--family", "gcd", "--n", "2..1500",
                          "--format", "csv")
        assert code == 0


@pytest.mark.parametrize("argv", [
    "inertia-sweep --set 1,2,6",
    "inertia-sweep --n 3 --set 1,2,6",
    "inertia-sweep --n 2..5 --n-max 8",
    "inertia-sweep --n 5 --tol 1e-9",
    "inertia-sweep --n 5 --zero-tol 1",
    "verify --set 1,2",
    "verify --n 70..80",
    "bounds --n 4 --zero-tol 1",
    "spectrum --n 3 --zero-tol 1",
    "compare --n 5 --epsilon 2",
    "reproduce-paper --n 5",
    "export-matrix --n 3 --format json",
    # the solver tolerance is fixed at eig.DEFAULT_TOL; --tol 1e300 used to
    # print the diagonal as the spectrum with exit 0
    "spectrum --family lcm --n 30 --tol 1e300",
    "bounds --family lcm --n 5 --with-actual --tol 1e300",
    "verify --n-max 5 --tol 1e-9",
    "compare --n 5 --tol 1e-9",
    "reproduce-paper --tol 1e-9",
])
def test_option_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    # each subcommand takes only the options its command reads; any other
    # option is an argparse usage error, never silently ignored
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


# option values: mostly good ones, sometimes one at the edge of its type. Every
# integer here is at most 12, so no drawn command runs a large order.
FUZZ_GOOD = {
    "--n": ["1", "3", "12", "2..12"],
    "--set": ["1,2,6", "2,3,4", "12"],
    "--n-max": ["2", "3", "12"],
    "--family": list(FAMILIES),
    "--format": ["table", "csv", "json"],
}
FUZZ_GOOD_FLOAT = ["1", "2", "0.5", "-0.5", "-2"]
FUZZ_EDGES = ["0", "-1", "nan", "inf", "-inf", "1e308", "", "5..3", "1,1", "nope"]
FUZZ_FLAGS = ("--with-actual", "--exact-only")
FUZZ_FOREIGN = ("--set", "--n-max", "--tol", "--zero-tol", "--with-actual")


@st.composite
def fuzz_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    own = [o for o in SUBCOMMANDS[command][2] if o not in ("--out", "--allow-large")]
    names = draw(st.lists(st.sampled_from(own), max_size=5))
    if draw(st.integers(0, 7)) == 0:  # sometimes an option the command may not take
        names.append(draw(st.sampled_from(FUZZ_FOREIGN)))
    # a target first, which a drawn one overrides; verify's --n-max defaults to 50
    lead = "--n-max" if command == "verify" else "--n" if "--n" in own else None
    argv = [command]
    for option in ([lead] if lead else []) + names:
        argv.append(option)
        if option in FUZZ_FLAGS:
            continue
        good = FUZZ_GOOD.get(option, FUZZ_GOOD_FLOAT)
        argv.append(draw(st.sampled_from(good if draw(st.integers(0, 3)) else FUZZ_EDGES)))
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=fuzz_argv())
def test_any_argv_exits_0_1_or_2(argv):
    # never a traceback: a result or SystemExit with a code in {0, 1, 2}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, sink.getvalue()[-500:])


def test_console_script_installed():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(smith_spectra.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "smith_spectra.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert "smith-spectra" in proc.stdout
