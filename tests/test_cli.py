"""CLI surface: output formats, exit-code contract, JSON round-trips."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from sqzero import cli, counting, oracle, qbinom
from sqzero.cli import main
from sqzero.counting import NonPolynomialResultError
from sqzero.qpoly import InexactDivisionError, QLaurentPoly


def polynomial_from_json_terms(terms):
    """Rebuild a polynomial from a JSON record's term map (string keys and values)."""
    return QLaurentPoly({int(e): int(c) for e, c in terms.items()})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit():
    """Python's cap on int <-> str digits (3.11+), or None where there is none."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else None


@contextmanager
def unlimited_digits():
    """Lift the digit cap inside the test, to compare values past it."""
    old = digit_limit()
    if old is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestCompute:
    def test_polynomial_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "3", "--method", "closed")
        assert code == 0
        assert out.strip() == "-q + 2*q^2"

    def test_value_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "4", "--method", "closed", "--q", "2")
        assert code == 0
        assert out.strip() == "28"

    def test_recurrence_for_one(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "1", "--method", "recurrence")
        assert code == 0
        assert out.strip() == "1"

    @pytest.mark.parametrize("method", ["closed", "recurrence", "anna", "sumanna"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "compute", "--n", "6", "--method", method)
        assert code == 0
        assert out.strip() == str(counting.closed_form(6))

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "5", "--format", "json", "--q", "3")
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 5 and record["method"] == "closed" and record["q"] == 3
        poly = polynomial_from_json_terms(record["polynomial"])
        assert str(poly) == str(counting.closed_form(5))
        assert record["value"] == str(counting.closed_form(5).eval_at(3))

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "3", "--q", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "method", "q", "polynomial", "value"]
        assert rows[1] == ["3", "closed", "3", "-q + 2*q^2", "15"]

    def test_pure_evaluation_allows_any_positive_q(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "3", "--q", "6")
        assert code == 0
        assert out.strip() == str(2 * 36 - 6)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_value_past_the_int_str_digit_limit(self, capsys, fmt):
        limit = digit_limit()
        code, out, _ = run(capsys, "compute", "--n", "140", "--q", "9", "--format", fmt)
        assert code == 0
        assert digit_limit() == limit  # restored on return
        if fmt == "json":
            printed = json.loads(out)["value"]
        elif fmt == "csv":
            printed = list(csv.reader(io.StringIO(out)))[1][4]
        else:
            printed = out.strip()
        assert len(printed) > 4300
        with unlimited_digits():
            assert printed == str(counting.closed_form(140).eval_at(9))

    def test_invalid_n(self, capsys):
        code, _, err = run(capsys, "compute", "--n", "0")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "8")
        assert code == 0
        assert "verify: PASS" in out
        assert "n=8: OK" in out

    def test_trivial_bound(self, capsys):
        assert run(capsys, "verify", "--n-max", "1")[0] == 0

    def test_invalid_bound(self, capsys):
        assert run(capsys, "verify", "--n-max", "0")[0] == 2

    @pytest.mark.parametrize(
        "target,located",
        [
            ("closed_form", "MISMATCH n=4: closed"),
            ("constant_term_total", "MISMATCH n=4: sumanna"),
            ("constant_term_entry", "MISMATCH n=4 r=1: anna"),
        ],
        ids=["closed_form", "constant_term_total", "constant_term_entry"],
    )
    def test_corrupted_engine_fails_with_located_diff(self, capsys, monkeypatch, target, located):
        real = getattr(counting, target)

        def corrupted(n, *rest):
            poly = real(n, *rest)
            return poly + QLaurentPoly({0: 1}) if n == 4 else poly

        monkeypatch.setattr(counting, target, corrupted)
        code, out, _ = run(capsys, "verify", "--n-max", "5")
        assert code == 1
        assert located in out
        assert "verify: FAIL" in out
        assert "n=3: OK" in out

    def test_builds_one_reference_table(self, capsys, monkeypatch):
        # the reference rows come from one generator, drawn once each
        # from row 0 to row 40 and none past it
        real = counting.recurrence_rows
        calls, drawn = [], []

        def counted():
            calls.append(None)
            for row in real():
                drawn.append(len(row))
                yield row

        monkeypatch.setattr(counting, "recurrence_rows", counted)
        code, out, _ = run(capsys, "verify", "--n-max", "40")
        assert code == 0
        assert out.splitlines()[-1].startswith("verify: PASS")
        assert len(calls) == 1
        assert drawn == [n // 2 + 1 for n in range(41)]

    def test_a_wrong_stored_binomial_fails_both_constant_term_routes(self, capsys, monkeypatch):
        # anna and sumanna read their Gaussian binomials from one store;
        # a wrong entry there must fail verify, not cancel between them
        monkeypatch.setattr(qbinom, "_rows", {})
        counting.alternating_qbinomial_sum.cache_clear()
        try:
            qbinom.qbinomial(6, 3)
            row = qbinom._rows[6]
            qbinom._rows[6] = row[:2] + (row[2] + QLaurentPoly({0: 1}),) + row[3:]
            code, out, _ = run(capsys, "verify", "--n-max", "10")
        finally:
            counting.alternating_qbinomial_sum.cache_clear()
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert code == 1
        assert any(": anna [" in line for line in mismatches)
        assert any(": sumanna [" in line for line in mismatches)
        assert out.splitlines()[-1].startswith("verify: FAIL (5 mismatches")

    def test_reaches_n_60(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "60")
        assert code == 0
        assert out.splitlines() == [f"n={n}: OK" for n in range(1, 61)] + [
            "verify: PASS (all engines agree for 1 <= n <= 60)"
        ]


class TestOracle:
    def test_match_report(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "3", "--q", "2", "--workers", "1")
        assert code == 0
        assert "oracle count:  6" in out
        assert "formula value: 6" in out
        assert "MATCH" in out

    def test_two_by_two(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "3", "--workers", "1")
        assert code == 0
        assert "oracle count:  3" in out

    def test_by_rank_report(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--n", "3", "--q", "2", "--by-rank", "--workers", "1"
        )
        assert code == 0
        assert "rank 0: count 1" in out
        assert "rank 1: count 5" in out

    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--n", "3", "--q", "2", "--format", "json", "--workers", "1"
        )
        assert code == 0
        records = json.loads(out)
        assert [rec["method"] for rec in records] == ["oracle", "closed"]
        assert records[0]["value"] == records[1]["value"] == "6"
        assert "ranks" not in records[0]

    def test_unsupported_q(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "4", "--q", "6")
        assert code == 2
        assert "not a supported prime power" in err

    def test_budget_refusal(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--n", "6", "--q", "9", "--budget", "1000", "--workers", "1"
        )
        assert code == 2
        assert "enumeration budget exceeded" in err

    def test_oversized_run_is_refused_in_one_short_line(self, capsys):
        code, out, err = run(capsys, "oracle", "--n", "1000", "--q", "3")
        assert code == 2 and out == ""
        assert err == "error: enumeration budget exceeded: 3^499500 candidates > budget 100000000\n"
        assert len(err) < 200

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        real = counting.closed_form
        monkeypatch.setattr(
            counting, "closed_form", lambda n: real(n) + QLaurentPoly({0: 1})
        )
        code, out, _ = run(capsys, "oracle", "--n", "3", "--q", "2", "--workers", "1")
        assert code == 1
        assert "MISMATCH" in out


class TestOracleRanks:
    def test_by_rank_report_lines(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "3", "--q", "2", "--by-rank")
        assert code == 0
        assert out.splitlines()[1:] == [
            "oracle count:  6",
            "formula value: 6",
            "rank refinement:",
            "  rank 0: count 1  (entry formula at q: 1)",
            "  rank 1: count 5  (entry formula at q: 5)",
            "MATCH",
        ]

    def test_by_rank_enumerates_once(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count_square_zero called under --by-rank")

        monkeypatch.setattr(oracle, "count_square_zero", refuse)
        code, out, _ = run(capsys, "oracle", "--n", "4", "--q", "3", "--by-rank")
        assert code == 0
        assert "oracle count:  153" in out

    def test_rank_mismatch_exit_code(self, capsys, monkeypatch):
        real = counting.constant_term_entry
        monkeypatch.setattr(
            counting, "constant_term_entry", lambda n, r: real(n, r) + QLaurentPoly({0: 1})
        )
        code, out, _ = run(capsys, "oracle", "--n", "4", "--q", "2", "--by-rank")
        assert code == 1
        assert "MISMATCH rank 1: oracle count 17 != entry formula 18" in out
        assert "  rank 1: count 17  (entry formula at q: 18)" in out
        assert out.splitlines()[-1] == "MISMATCH"

    def test_rank_mismatch_in_json_goes_to_stderr(self, capsys, monkeypatch):
        real = counting.constant_term_entry
        monkeypatch.setattr(
            counting, "constant_term_entry", lambda n, r: real(n, r) + QLaurentPoly({0: 1})
        )
        code, out, err = run(
            capsys, "oracle", "--n", "3", "--q", "2", "--by-rank", "--format", "json"
        )
        assert code == 1
        records = json.loads(out)
        assert [rec["value"] for rec in records] == ["6", "6"]
        assert records[0]["ranks"] == {"0": "1", "1": "5"}
        assert "MISMATCH rank 0" in err


class TestImport:
    def test_cli_import_loads_no_process_pool(self):
        # A fresh interpreter: this one may have loaded either module already.
        probe = (
            "import sys, sqzero.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & sys.modules.keys()))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestEngineErrors:
    @pytest.mark.parametrize(
        "target,error,argv",
        [
            ("closed_form", InexactDivisionError, ["compute", "--n", "5"]),
            (
                "constant_term_total",
                NonPolynomialResultError,
                ["compute", "--n", "5", "--method", "sumanna"],
            ),
        ],
    )
    def test_one_line_and_exit_one(self, capsys, monkeypatch, target, error, argv):
        def broken(*args):
            raise error("engine broke")

        monkeypatch.setattr(counting, target, broken)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: engine broke\n"


class TestLemma2:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "lemma2", "--m-max", "10")
        assert code == 0
        assert "lemma2: PASS" in out

    def test_zero_bound(self, capsys):
        assert run(capsys, "lemma2", "--m-max", "0")[0] == 0

    def test_negative_bound_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lemma2", "--m-max", "-1")
        assert code == 2
        assert "error" in err


class TestTable:
    def test_csv_values_at_two(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "4", "--q-list", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "polynomial", "2"]
        assert [row[-1] for row in rows[1:]] == ["1", "2", "6", "28"]

    def test_single_row_text(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "1")
        assert code == 0
        assert out.strip() == "n=1  1"

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "3", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        for n, record in zip((1, 2, 3), records):
            assert record["n"] == n
            assert record["method"] == "closed"
            assert "value" not in record
            rebuilt = polynomial_from_json_terms(record["polynomial"])
            assert str(rebuilt) == str(counting.closed_form(n))

    def test_json_with_q_list_emits_record_per_pair(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n-max", "2", "--q-list", "2,3", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert [(rec["n"], rec["q"]) for rec in records] == [(1, 2), (1, 3), (2, 2), (2, 3)]
        assert records[3]["value"] == "3"

    def test_value_past_the_int_str_digit_limit(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "140", "--q-list", "9")
        assert code == 0
        printed = out.splitlines()[-1].split("q=9: ")[1]
        assert len(printed) > 4300
        with unlimited_digits():
            assert printed == str(counting.closed_form(140).eval_at(9))

    def test_bad_q_list_is_usage_error(self, capsys):
        assert run(capsys, "table", "--n-max", "3", "--q-list", "2,x")[0] == 2

    def test_invalid_bound(self, capsys):
        assert run(capsys, "table", "--n-max", "0")[0] == 2


class TestParserPlumbing:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_console_entry_point_matches_main(self, capsys):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert 'sqzero = "sqzero.cli:main"' in pyproject
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: sqzero ")

    def test_method_choices_are_the_engines_in_order(self):
        parse, default, _ = cli.COMMANDS["compute"][2]["method"]
        assert list(parse) == list(counting.ENGINES)
        assert default == "closed"

    def test_main_loads_neither_argparse_nor_locale(self):
        # A fresh interpreter: pytest itself has imported argparse here.
        probe = (
            "import sys, sqzero.cli; "
            "code = sqzero.cli.main(['verify', '--n-max', '3']); "
            "print(code, sorted({'argparse', 'locale'} & sys.modules.keys()))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == [
            "verify: PASS (all engines agree for 1 <= n <= 3)",
            "0 []",
        ]


# argv, and the canonical argv that must print the same, or None for a usage error
SPELLINGS = {
    "no_command": ([], None),
    "unknown_command": (["bogus", "--n", "3"], None),
    "unknown_option": (["verify", "--bogus", "3"], None),
    "short_option": (["compute", "-n", "3"], None),
    "ambiguous_prefix": (["oracle", "--n", "4", "--q", "2", "--b", "1"], None),
    "missing_value": (["compute", "--n"], None),
    "not_an_integer": (["compute", "--n", "x"], None),
    "bad_method": (["compute", "--n", "3", "--method", "bogus"], None),
    "bad_format": (["compute", "--n", "3", "--format", "xml"], None),
    "missing_required": (["oracle", "--n", "4"], None),
    "stray_positional": (["verify", "5"], None),
    "switch_with_value": (["oracle", "--n", "3", "--q", "2", "--by-rank=yes"], None),
    "equals_sign": (["verify", "--n-max=5"], ["verify", "--n-max", "5"]),
    "unique_prefix": (["verify", "--n-m", "5"], ["verify", "--n-max", "5"]),
    "last_repeat_wins": (["verify", "--n-max", "9", "--n-max", "5"], ["verify", "--n-max", "5"]),
    "prefixes_and_equals": (
        ["compute", "--n=7", "--me=anna", "--f", "json", "--q=3"],
        ["compute", "--n", "7", "--method", "anna", "--format", "json", "--q", "3"],
    ),
    "switch_prefix": (["oracle", "--n", "3", "--q", "2", "--by"], ["oracle", "--n", "3", "--q", "2", "--by-rank"]),
    "help_prefix": (["oracle", "--he"], ["oracle", "--help"]),
    "help_after_options": (["verify", "--n-max", "5", "-h"], ["verify", "--help"]),
}


@pytest.mark.parametrize("argv,canonical", SPELLINGS.values(), ids=SPELLINGS)
def test_spelling(capsys, argv, canonical):
    code, out, err = run(capsys, *argv)
    if canonical is not None:
        assert (code, out, err) == run(capsys, *canonical)
        assert code == 0 and out
        return
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert any("error: " in line for line in err.splitlines())
