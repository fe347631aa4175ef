"""The sqzero benchmark.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the root of a sqzero checkout; it needs only the sources under
``src/``. Every sample runs the workload's CLI commands through
``sqzero.cli.main`` in a fresh interpreter, one sample at a time, and gates
each command's output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics. The metric names printed in the last line are those
listed in BENCHMARK.json. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from workloads import POOL_PROBE, WORKLOADS, Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


@dataclass
class Sample:
    setup_s: Optional[float]
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    problems: list[str] = field(default_factory=list)  # one per failed command
    record: dict = field(default_factory=dict)


def run_sample(
    commands: list[Command], *, trace: bool = False, pool_probe: Optional[tuple[int, int]] = None
) -> Sample:
    """Run ``commands`` in a fresh interpreter and gate their outputs.

    CPU time and peak RSS come from the child's own rusage (``os.wait4``),
    so no earlier child's peak carries over into this sample."""
    spec = {
        "src": str(SRC),
        "argvs": [list(c.argv) for c in commands],
        "trace": trace,
        "pool_probe": pool_probe,
    }
    env = {**os.environ, "PYTHONHASHSEED": "0"}  # the same hashing in every sample
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "sample.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=env,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024  # Linux reports KiB
    try:
        record = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        record = None
    if proc.returncode != 0 or record is None:
        problem = f"sample exited with code {proc.returncode} and no result"
        return Sample(None, 0.0, cpu, rss, len(commands), [problem] * len(commands))
    problems = []
    for command, result in zip(commands, record["commands"]):
        name = " ".join(command.argv)
        if result["exit"] != 0:
            problems.append(f"{name}: exit {result['exit']}: {result['stderr'].strip()[-300:]}")
        else:
            problem = command.gate(result["stdout"])
            if problem is not None:
                problems.append(f"{name}: {problem}")
    return Sample(
        record["import_done"] - spawn, record["wall_s"], cpu, rss, len(commands), problems, record
    )


def repeat(run, seconds: float) -> list:
    """Call ``run`` once, then again while the next call, taking as long as
    the last one did, would end within ``seconds`` of the start."""
    start = time.monotonic()
    results = []
    while True:
        began = time.monotonic()
        results.append(run())
        now = time.monotonic()
        if now + (now - began) > start + seconds:
            return results


def setup_probes() -> list[float]:
    """Time a fresh interpreter's ``import sqzero.cli`` a few times. A first,
    untimed import compiles the bytecode."""
    run_sample([])
    return [s.setup_s for s in (run_sample([]) for _ in range(SETUP_PROBES)) if s.setup_s]


def tail(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None with fewer than eleven samples."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 10  # 1-based rank of the value with ten above it
    return 100 * rank // len(ordered), ordered[rank - 1]


def end_to_end(commands: list[Command], seconds: float):
    setups = setup_probes()
    samples = repeat(lambda: run_sample(commands), seconds)
    walls = [s.wall_s for s in samples]
    setups += [s.setup_s for s in samples if s.setup_s is not None]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
    }
    notes = [f"samples: {len(samples)} workload samples, {len(setups)} setup times"]
    high = tail(walls)
    if high is None:
        notes.append(f"wall_s tail: needs 11 samples, have {len(walls)}; max {max(walls):.4f} s")
    else:
        notes.append(f"wall_s p{high[0]}: {high[1]:.4f} s (10 samples above it)")
    return samples, metrics, notes


def layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sample. A target that was missing has
    no stat, so its metrics are absent."""
    out: dict[str, tuple[float, str]] = {}
    stats = report["stats"]
    for name, stat in stats.items():
        out[f"{name}.calls"] = (stat["calls"], "count")
        out[f"{name}.s"] = (stat["s"], "s")
        out[f"{name}.distinct"] = (stat["distinct"], "count")
        for key in ("term_pairs", "quot_terms"):
            if key in stat:
                out[f"{name}.{key}"] = (stat[key], "count")
    for layer, seconds in report["self_s"].items():
        out[f"{layer}.self_s"] = (seconds, "s")
    enumerators = [stats[k] for k in ("oracle.count_square_zero", "oracle.count_by_rank") if k in stats]
    if enumerators:
        # Ratios read 0 when the workload enumerates nothing.
        candidates = sum(s.get("candidates", 0) for s in enumerators)
        solutions = sum(s.get("solutions", 0) for s in enumerators)
        busy = sum(s["s"] for s in enumerators)
        out["oracle.candidates"] = (candidates, "count")
        out["oracle.candidates_per_s"] = (candidates / busy if busy else 0.0, "1/s")
        out["oracle.solutions_per_candidate"] = (solutions / candidates if candidates else 0.0, "ratio")
    return out


def median_metrics(runs: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    names = {name for run in runs for name in run}
    return {
        name: (statistics.median(r[name][0] for r in runs if name in r),
               next(r[name][1] for r in runs if name in r))
        for name in names
    }


def traced(commands: list[Command], seconds: float):
    """Pairs of an untraced and a traced sample, alternating which runs
    first, plus one oracle worker-pool probe."""
    pool = run_sample([], pool_probe=POOL_PROBE)
    order = itertools.count()

    def pair():
        if next(order) % 2:
            traced_sample = run_sample(commands, trace=True)
            return run_sample(commands), traced_sample
        return run_sample(commands), run_sample(commands, trace=True)

    pairs = repeat(pair, seconds)
    plain = [p for p, _ in pairs]
    traced_samples = [t for _, t in pairs if "trace" in t.record]
    metrics = median_metrics([layer_metrics(t.record["trace"]) for t in traced_samples])
    if traced_samples:
        overhead = (statistics.median(t.wall_s for t in traced_samples)
                    - statistics.median(p.wall_s for p in plain))
        metrics["trace.overhead_s"] = (overhead, "s")
    if "pool" in pool.record:
        times = pool.record["pool"]
        metrics["oracle.pool_speedup"] = (times["workers_1_s"] / times["workers_2_s"], "ratio")
    notes = [f"samples: {len(pairs)} untraced/traced pairs"]
    if traced_samples:
        last = traced_samples[-1].record["trace"]
        notes += shares(metrics)
        if last["missing"]:
            notes.append("targets missing, metrics absent: " + ", ".join(last["missing"]))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / "trace.json").write_text(json.dumps(last))
        notes.append(f"spans and aggregates of the last traced sample: {OUT_DIR / 'trace.json'}")
    return plain + [t for _, t in pairs], metrics, notes


def shares(metrics: dict) -> list[str]:
    """Where the traced time went, as shares of cli.main.s."""
    total = metrics.get("cli.main.s", (0.0, "s"))[0]
    if not total:
        return []
    parts = [f"{name} {metrics[name][0] / total:.3g}"
             for name in ("qpoly.exact_div.s", "counting.WLaurent.mul.s")
             if name in metrics]
    algebra = sum(metrics.get(f"{layer}.self_s", (0.0, "s"))[0] for layer in ("qpoly", "qbinom"))
    parts.append(f"qpoly+qbinom self {algebra / total:.3g}")
    return ["shares of cli.main.s: " + ", ".join(parts)]


def git_sha(root: Path) -> Optional[str]:
    """The commit checked out at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "loadavg": os.getloadavg(),
    }


def declared_metrics(trace: bool) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqzero" / "cli.py").is_file():
        print(f"error: no sqzero sources under {SRC}; run from a sqzero checkout", file=sys.stderr)
        return 2
    wanted = declared_metrics(bool(args.trace))
    env_start = environment()
    commands = WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else end_to_end
    samples, metrics, notes = run(commands, args.seconds)
    attempted = sum(s.attempted for s in samples)
    problems = [p for s in samples for p in s.problems]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"commands {' | '.join(' '.join(c.argv) for c in commands)}")
    print("environment at start " + json.dumps(env_start))
    print("environment at end " + json.dumps(environment()))
    for note in notes:
        print(note)
    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{name:40} {value:.6g} {unit}")
        else:
            print(f"{name:40} absent")
    print(f"{'error_rate':40} {len(problems) / attempted:.6g} ratio "
          f"({len(problems)} failed of {attempted} commands)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
