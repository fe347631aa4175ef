"""A standing list of hand-written mutants of ``src/``, each with the test
files that must kill it.

    python tests/mutants.py

For each mutant the script copies ``src/`` to a temporary directory,
replaces one exact piece of old text in one file with new text, and runs
the mutant's test files against the copy with pytest.  A mutant is killed
when those tests fail, and survives when they pass.  Before the mutants,
the same test files run once against an unmutated copy, which must pass,
so that a broken environment cannot pass for a killed mutant.

The exit code is 0 when every mutant is killed, and 1 when one survives,
when an old text is not found exactly once, or when the unmutated copy
fails.  A survivor calls for a test that kills it, never for a weaker
mutant.  Pytest does not collect this file (its name has no ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/sqzero
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = [
    Mutant(
        "gf: fold sign flipped",
        "gf.py",
        "prod[top - k + i] -= prod[top] * modulus[i]",
        "prod[top - k + i] += prod[top] * modulus[i]",
        ("test_gf.py",),
    ),
    Mutant(
        "gf: neg read as the index of 1",
        "gf.py",
        "self.neg = tuple(row.index(0) for row in self.add)",
        "self.neg = tuple(row.index(1) for row in self.add)",
        ("test_gf.py",),
    ),
    Mutant(
        "gf: irreducibility check deleted",
        "gf.py",
        "        if any(1 not in row for row in mul[1:]):\n"
        '            raise ArithmeticError(f"built-in modulus for GF({q}) is not irreducible")\n',
        "",
        ("test_gf.py",),
    ),
    Mutant(
        "qbinom: mirrored to m - n - 1",
        "qbinom.py",
        "n = min(n, m - n)",
        "n = min(n, m - n - 1)",
        ("test_qbinom.py",),
    ),
    Mutant(
        "counting: a sign in _recurrence_step",
        "counting.py",
        "(-1, r, t_lower)",
        "(1, r, t_lower)",
        ("test_counting.py",),
    ),
    Mutant(
        "counting: j-exponent in closed_form",
        "counting.py",
        "- 3 * j * j - (1 + odd) * j",
        "- 3 * j * j + (1 + odd) * j",
        ("test_counting.py",),
    ),
    Mutant(
        "counting: _envelope sign",
        "counting.py",
        "return binomial(n, k) - binomial(n, k - 1)",
        "return binomial(n, k) + binomial(n, k - 1)",
        ("test_counting.py",),
    ),
    Mutant(
        "qpoly: residue stride in exact_div",
        "qpoly.py",
        "rem[r::j] = accumulate(rem[r::j])",
        "rem[r::j + 1] = accumulate(rem[r::j + 1])",
        ("test_qbinom.py",),
    ),
    Mutant(
        "oracle: root table admits x where the check reads 1",
        "oracle.py",
        "if not add[s][mul[a][x]]",
        "if add[s][mul[a][x]] < 2",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: root table built without the mul[a][x] term",
        "oracle.py",
        "if not add[s][mul[a][x]]",
        "if not add[s][0]",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: corner counted q - 1 times",
        "oracle.py",
        "return q * next(prefixes)",
        "return (q - 1) * next(prefixes)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: wide built without the unit column",
        "oracle.py",
        "unit = [1] + [0] * (n - 2)",
        "unit = [0] * (n - 1)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: wide not rebuilt when column n-2 completes",
        "oracle.py",
        "if j == n - 2:",
        "if j == n - 1:",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: one-in-span branch swapped",
        "oracle.py",
        "        ranks[rank] += 1\n        ranks[rank + 1] += field.q - 1\n",
        "        ranks[rank] += field.q - 1\n        ranks[rank + 1] += 1\n",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: fixed sum from t = i + 2",
        "oracle.py",
        "index[t, j]) for t in range(i + 1, j)",
        "index[t, j]) for t in range(i + 2, j)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: _reduce's basis loop skipped",
        "oracle.py",
        "    for p, vector in basis:\n",
        "    for p, vector in basis[:0]:\n",
        ("test_oracle.py",),
    ),
]


def run_tests(src: Path, tests) -> bool:
    """True iff the given test files pass against the package under ``src``."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["-o", f"pythonpath={src}", *(str(ROOT / "tests" / t) for t in tests)]
    # no bytecode: a mutant of the same size written in the same second
    # as the file it replaces could otherwise run from a stale cache
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1, 2):  # 2: a collection error, as from a broken import
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode == 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if not run_tests(src, tests):
            print(f"the unmutated copy fails {', '.join(tests)}")
            return 1
        bad = 0
        for m in MUTANTS:
            path = src / "sqzero" / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"old text not found once: {m.name}")
                bad += 1
                continue
            path.write_text(original.replace(m.old, m.new))
            try:
                killed = not run_tests(src, m.tests)
            finally:
                path.write_text(original)
            print(f"{'killed' if killed else 'SURVIVED'}: {m.name} ({', '.join(m.tests)})", flush=True)
            bad += not killed
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
