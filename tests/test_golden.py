"""Golden outputs: the CLI's stdout, stderr and exit code, byte for byte.

Each case runs ``cli.main`` in-process and compares what it printed with
``tests/golden/<case>.json``.  Some cases first corrupt an engine, to pin
the text and order of the failure reports.  The help of ``sqzero`` and of
``sqzero oracle`` is pinned; usage errors are left out, as getopt words
some of them and its wording may differ between Python versions.  Each demo
under ``demos/`` runs as a script in a fresh interpreter, and its stdout
is compared with ``tests/golden/demo_<name>.txt``.

A golden file changes only together with a CHANGES.md entry naming it.
To rewrite every file from the current code, run this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqzero import cli, counting
from sqzero.counting import NonPolynomialResultError
from sqzero.qpoly import InexactDivisionError, QLaurentPoly

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _plus_one_at(name, *at):
    """Patch ``counting.<name>`` to add 1 to its result for the arguments ``at``."""

    def patch(monkeypatch):
        real = getattr(counting, name)

        def corrupted(*args):
            out = real(*args)
            return out + QLaurentPoly({0: 1}) if args == at else out

        monkeypatch.setattr(counting, name, corrupted)

    return patch


def _raise_at(name, error, *at):
    """Patch ``counting.<name>`` to raise ``error`` for the arguments ``at``."""

    def patch(monkeypatch):
        real = getattr(counting, name)

        def broken(*args):
            if args == at:
                raise error("engine broke")
            return real(*args)

        monkeypatch.setattr(counting, name, broken)

    return patch


def _all_of(*patches):
    def patch(monkeypatch):
        for p in patches:
            p(monkeypatch)

    return patch


def _cases():
    """(name, argv, patch or None) for every golden case."""
    cases = []
    for method in ("closed", "recurrence", "anna", "sumanna"):
        base = ["compute", "--n", "9", "--method", method]
        cases.append((f"compute_{method}_text", base, None))
        cases.append((f"compute_{method}_json", base + ["--q", "3", "--format", "json"], None))
        cases.append((f"compute_{method}_csv", base + ["--q", "3", "--format", "csv"], None))
    cases += [
        ("help", ["--help"], None),
        ("oracle_help", ["oracle", "--help"], None),
        ("compute_value_text", ["compute", "--n", "12", "--q", "5"], None),
        ("verify_20", ["verify", "--n-max", "20"], None),
        ("lemma2_60", ["lemma2", "--m-max", "60"], None),
    ]
    for n, q, extra in ((3, 2, []), (4, 3, ["--by-rank"]), (4, 9, [])):
        for fmt in ("text", "json"):
            argv = ["oracle", "--n", str(n), "--q", str(q), "--workers", "1", "--format", fmt]
            cases.append((f"oracle_{n}_{q}{'_by_rank' if extra else ''}_{fmt}", argv + extra, None))
    # the oracle workload's own commands, argv exactly as the benchmark runs them
    cases += [
        ("oracle_7_2_text", ["oracle", "--n", "7", "--q", "2", "--workers", "1"], None),
        (
            "oracle_5_4_by_rank_text",
            ["oracle", "--n", "5", "--q", "4", "--workers", "1", "--by-rank"],
            None,
        ),
        # larger points, as a user runs them
        ("oracle_6_3_by_rank_text", ["oracle", "--n", "6", "--q", "3", "--by-rank"], None),
        ("oracle_5_5_text", ["oracle", "--n", "5", "--q", "5"], None),
        # 2^36 and 3^21 candidates, past the default budget
        (
            "oracle_9_2_text",
            ["oracle", "--n", "9", "--q", "2", "--budget", "100000000000"],
            None,
        ),
        (
            "oracle_7_3_by_rank_text",
            ["oracle", "--n", "7", "--q", "3", "--by-rank", "--budget", "100000000000"],
            None,
        ),
    ]
    for fmt in ("csv", "json"):
        argv = ["table", "--n-max", "30", "--q-list", "9,16", "--format", fmt]
        cases.append((f"table_30_{fmt}", argv, None))
    cases += [
        (
            "verify_5_three_engines_corrupted",
            ["verify", "--n-max", "5"],
            _all_of(
                _plus_one_at("closed_form", 4),
                _plus_one_at("constant_term_total", 4),
                _plus_one_at("constant_term_entry", 4, 1),
            ),
        ),
        (
            "oracle_4_2_by_rank_mismatch_text",
            ["oracle", "--n", "4", "--q", "2", "--by-rank"],
            _plus_one_at("constant_term_entry", 4, 1),
        ),
        (
            "oracle_3_2_by_rank_mismatch_json",
            ["oracle", "--n", "3", "--q", "2", "--by-rank", "--format", "json"],
            _plus_one_at("constant_term_entry", 3, 0),
        ),
        (
            "compute_engine_error",
            ["compute", "--n", "5"],
            _raise_at("closed_form", InexactDivisionError, 5),
        ),
        (
            "verify_engine_error_mid_run",
            ["verify", "--n-max", "6"],
            _raise_at("constant_term_total", NonPolynomialResultError, 3),
        ),
    ]
    return cases


CASES = _cases()


def _run(argv, patch) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch:
        if patch is not None:
            patch(monkeypatch)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


@pytest.mark.parametrize("name,argv,patch", CASES, ids=[case[0] for case in CASES])
def test_matches_golden(name, argv, patch):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert _run(argv, patch) == expected


def _run_demo(demo: Path) -> bytes:
    """The demo's stdout, from a fresh interpreter that imports sqzero from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_matches_golden(demo):
    assert _run_demo(demo) == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(case[0] for case in CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [f"demo_{d.stem}" for d in DEMOS]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, patch in CASES:
        text = json.dumps(_run(argv, patch), indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    for demo in DEMOS:
        (GOLDEN / f"demo_{demo.stem}.txt").write_bytes(_run_demo(demo))
