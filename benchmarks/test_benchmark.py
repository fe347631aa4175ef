"""Tests of the benchmark itself: smoke sizes of each workload, the output
gates, and the tracer.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import run
from tracer import TARGETS, Target, Tracer
from workloads import lemma2_command, oracle_command, oracle_commands, verify_command

sys.path.insert(0, str(run.SRC))

import sqzero.cli  # noqa: E402
import sqzero.counting  # noqa: E402
import sqzero.qbinom  # noqa: E402

# Hand-counted: for n = 3 only (X^2)_{02} = x01*x12 can be nonzero, so the
# count is q(2q - 1), every nonzero solution has rank 1; n = 2 counts q.
SMOKE_ORACLE = ((3, 2, 6, None), (3, 4, 28, {0: 1, 1: 27}), (2, 9, 9, None))
SMOKE = {
    "verify": lambda seed: [verify_command(3)],
    "lemma2": lambda seed: [lemma2_command(5)],
    "oracle": lambda seed: oracle_commands(SMOKE_ORACLE, seed),
}

VERIFY_3 = "n=1: OK\nn=2: OK\nn=3: OK\nverify: PASS (all engines agree for 1 <= n <= 3)\n"
ORACLE_54 = (
    "n=5 q=4\noracle count:  16384\nformula value: 16384\nrank refinement (informational):\n"
    "  rank 0: count 1  (x)\n  rank 1: count 939  (x)\n  rank 2: count 15444  (x)\nMATCH\n"
)


class TestGates:
    def test_verify_accepts_every_row_then_pass(self):
        assert verify_command(3).gate(VERIFY_3) is None

    def test_verify_rejects_a_missing_row(self):
        out = VERIFY_3.replace("n=2: OK\n", "")
        assert "n=2: OK" in verify_command(3).gate(out)

    def test_verify_rejects_an_extra_row_and_a_short_run(self):
        assert verify_command(2).gate(VERIFY_3) is not None
        assert verify_command(4).gate(VERIFY_3) is not None

    def test_verify_rejects_a_failed_check(self):
        out = VERIFY_3.replace("n=3: OK", "MISMATCH n=3: closed [1] != recurrence [2]")
        assert verify_command(3).gate(out) is not None
        assert verify_command(3).gate(VERIFY_3.replace("PASS", "FAIL")) is not None

    def test_lemma2_pass_line_must_name_m_max(self):
        gate = lemma2_command(60).gate
        assert gate("lemma2: PASS (identity holds for 0 <= m <= 60)\n") is None
        assert gate("lemma2: PASS (identity holds for 0 <= m <= 59)\n") is not None
        assert gate("MISMATCH m=4: sum [1] != closed form [0]\n"
                    "lemma2: PASS (identity holds for 0 <= m <= 60)\n") is not None
        assert gate("") is not None

    def test_oracle_rejects_a_wrong_count(self):
        gate = oracle_command(5, 4, 16384, {0: 1, 1: 939, 2: 15444}).gate
        assert gate(ORACLE_54) is None
        assert "16383" in gate(ORACLE_54.replace("count:  16384", "count:  16383"))
        assert gate(ORACLE_54.replace("count 939", "count 938")) is not None
        assert gate(ORACLE_54.replace("  rank 2: count 15444  (x)\n", "")) is not None
        assert gate(ORACLE_54.replace("MATCH", "MISMATCH")) is not None

    def test_a_nonzero_exit_fails_the_command(self):
        sample = run.run_sample([verify_command(0)])
        assert sample.attempted == 1
        assert len(sample.problems) == 1 and "exit 2" in sample.problems[0]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_size_of_each_workload_passes_its_gates(workload):
    sample = run.run_sample(SMOKE[workload](seed=3))
    assert sample.problems == []
    assert sample.attempted == len(SMOKE[workload](seed=3))
    assert sample.setup_s > 0 and sample.wall_s > 0 and sample.cpu_s > 0 and sample.rss_mb > 0


def test_oracle_seed_orders_commands_only():
    orders = {tuple(c.argv for c in oracle_commands(SMOKE_ORACLE, seed)) for seed in range(20)}
    assert len(orders) > 1
    assert {frozenset(o) for o in orders} == {frozenset(next(iter(orders)))}


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_declared_metric(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setattr(run, "WORKLOADS", SMOKE)
    monkeypatch.setattr(run, "POOL_PROBE", (3, 2))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == run.declared_metrics(bool(trace))


def test_main_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


class TestTracer:
    def test_survives_a_missing_function(self):
        tracer = Tracer()
        tracer.install([
            Target("gone", "sqzero.counting", "NoSuchFunction", "counting"),
            Target("gone.module", "sqzero.no_such_module", "f", "counting"),
            Target("counting.closed_form", "sqzero.counting", "closed_form", "counting"),
        ])
        try:
            sqzero.counting.closed_form(5)
        finally:
            tracer.uninstall()
        report = tracer.report()
        assert report["missing"] == ["gone", "gone.module"]
        assert report["stats"]["counting.closed_form"]["calls"] == 1

    def test_metrics_of_a_deleted_class_are_absent(self, monkeypatch):
        monkeypatch.delattr(sqzero.counting, "WLaurent")
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            sqzero.counting.closed_form(4)
        finally:
            tracer.uninstall()
        metrics = run.layer_metrics(tracer.report())
        assert "counting.WLaurent.mul.s" not in metrics
        assert metrics["counting.closed_form.calls"] == (1, "count")

    def test_wraps_imported_names_and_restores_them(self):
        original = sqzero.qbinom.qbinomial
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            assert sqzero.counting.qbinomial is sqzero.qbinom.qbinomial is not original
            sqzero.cli.main(["lemma2", "--m-max", "4"])
        finally:
            tracer.uninstall()
        assert sqzero.counting.qbinomial is sqzero.qbinom.qbinomial is original
        stats = tracer.report()["stats"]
        assert stats["counting.alternating_qbinomial_sum"]["calls"] == 5
        assert stats["qbinom.qbinomial"]["calls"] == 1 + 1 + 2 + 2 + 3
        assert stats["qpoly.mul"]["term_pairs"] > 0

    def test_recursion_counts_calls_but_times_the_outermost_once(self, monkeypatch):
        fake = types.ModuleType("sqzero._recursive")

        def depth(k):
            return 0 if k == 0 else 1 + fake.depth(k - 1)

        fake.depth = depth
        monkeypatch.setitem(sys.modules, fake.__name__, fake)
        tracer = Tracer()
        tracer.install([Target("fake.depth", fake.__name__, "depth", "fake")])
        try:
            assert fake.depth(3) == 3
        finally:
            tracer.uninstall()
        report = tracer.report()
        assert report["stats"]["fake.depth"]["calls"] == 4
        assert 0 < report["self_s"]["fake"] <= report["stats"]["fake.depth"]["s"] * 1.01
        assert [span["parent"] for span in report["spans"]] == [-1, 0, 1, 2]
