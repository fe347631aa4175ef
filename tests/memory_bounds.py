"""Peak memory of the two formula checks and of the oracle's count at
q = 2 and at q = 3, at sizes past the Tier-1 suite.

    python tests/memory_bounds.py

Each command runs in its own interpreter; its peak resident set size is
read from ``os.wait4`` on the child.  The exit code is 0 when every command
exits 0 within its bound, and 1 otherwise; a command exits 1 itself when
its result is wrong, so a wrong count fails too.  The q = 2 oracle's
bound pins its leading blocks as streamed, never listed; the q = 3 oracle
runs the search's count, torus rule and settle loop, past the sizes the
Tier-1 suite counts.  Pytest does not collect this file (its name has no
``test_``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (CLI arguments, the most peak RSS allowed, in MB)
BOUNDS = [
    (("lemma2", "--m-max", "200"), 450),
    (("verify", "--n-max", "100"), 70),
    (("oracle", "--n", "10", "--q", "2", "--budget", "100000000000000"), 40),
    (("oracle", "--n", "8", "--q", "3", "--budget", "100000000000000"), 40),
]


def peak_rss_mb(argv) -> tuple[int, float]:
    """The exit code and peak RSS, in MB, of ``sqzero`` run with ``argv``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys; from sqzero.cli import main; sys.exit(main(sys.argv[1:]))"
    child = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    # reaped here, so the Popen object must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    bad = 0
    for argv, bound in BOUNDS:
        start = time.perf_counter()
        code, peak = peak_rss_mb(argv)
        ok = code == 0 and peak <= bound
        bad += not ok
        print(
            f"{'ok' if ok else 'FAIL'}: {' '.join(argv)} exited {code}, peak {peak:.1f} MB"
            f" (bound {bound} MB) in {time.perf_counter() - start:.1f} s",
            flush=True,
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
