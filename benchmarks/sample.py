"""One benchmark sample, run in a fresh interpreter.

    python3 benchmarks/sample.py '<spec as JSON>'

The spec has ``src`` (the directory holding the sqzero package), ``argvs``
(the CLI commands to run through ``sqzero.cli.main``), ``trace`` (install
the tracer first) and ``pool_probe`` (``[n, q]`` to time the oracle with one
worker and with two after the commands, or null). The sample prints one
JSON line: ``import_done`` (``time.monotonic()`` once ``import sqzero.cli``
has finished, to compare with the parent's spawn time), ``wall_s`` for the
commands, and each command's exit code and output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def run_command(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def pool_times(n: int, q: int) -> dict:
    from sqzero.oracle import count_square_zero

    times = {}
    for workers in (1, 2):
        start = time.perf_counter()
        count_square_zero(n, q, workers=workers)
        times[workers] = time.perf_counter() - start
    return {"workers_1_s": times[1], "workers_2_s": times[2]}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import sqzero.cli

    import_done = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracer import TARGETS, Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    start = time.perf_counter()
    results = [run_command(sqzero.cli.main, argv) for argv in spec["argvs"]]
    wall = time.perf_counter() - start
    record = {"import_done": import_done, "wall_s": wall, "commands": results}
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.report()
    if spec["pool_probe"]:
        record["pool"] = pool_times(*spec["pool_probe"])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
