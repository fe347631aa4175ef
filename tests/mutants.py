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
        "qbinom: mirror check deleted",
        "qbinom.py",
        "            if mirrored != c:\n"
        '                raise ArithmeticError(f"[{m}, {t}] is not palindromic")\n',
        "",
        ("test_qbinom.py",),
    ),
    Mutant(
        "qbinom: quotient stored unshared",
        "qbinom.py",
        "grown.append(_poly(0, mirrored))",
        "grown.append(_poly(0, c))",
        ("test_qbinom.py",),
    ),
    Mutant(
        "cli: lemma2 never reports a mismatch",
        "cli.py",
        "if lhs != rhs:",
        "if False:",
        ("test_cli.py", "test_golden.py"),
    ),
    Mutant(
        "cli: verify reads one reference row late",
        "cli.py",
        "islice(counting.recurrence_rows(), 1, None)",
        "islice(counting.recurrence_rows(), 2, None)",
        ("test_cli.py",),
    ),
    Mutant(
        "cli: _at_least admits nothing at the bound",
        "cli.py",
        "if value < low:",
        "if value <= low:",
        ("test_cli.py",),
    ),
    Mutant(
        "cli: --q-list items left unbounded",
        "cli.py",
        "[_at_least(1)(part) for part",
        "[int(part) for part",
        ("test_cli.py",),
    ),
    Mutant(
        "counting: entry extraction's non-polynomial check passes",
        "counting.py",
        'raise NonPolynomialResultError(f"non-polynomial CT result for entry ({n}, {r}): {result}")',
        "pass",
        ("test_counting.py",),
    ),
    Mutant(
        "counting: total extraction's non-polynomial check passes",
        "counting.py",
        'raise NonPolynomialResultError(f"non-polynomial CT result for total ({n}): {result}")',
        "pass",
        ("test_counting.py",),
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
        "return q * _search(n, field)",
        "return (q - 1) * _search(n, field)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: pivot at the first nonzero row",
        "oracle.py",
        "for p in reversed(range(len(column))):",
        "for p in range(len(column)):",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: corner row left in the residue",
        "oracle.py",
        "        l0[0] = 0\n",
        "",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: unit-column membership test replaced by False",
        "oracle.py",
        "q if (0, ((0, 1),)) in basis else 1",
        "q if False else 1",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: one-in-span branch swapped",
        "oracle.py",
        "q if (0, ((0, 1),)) in basis else 1",
        "q if (0, ((0, 1),)) in basis else q - 1",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: fixed sum from t = i + 2",
        "oracle.py",
        "at(t, j)) for t in range(i + 1, j)",
        "at(t, j)) for t in range(i + 2, j)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: _reduce's basis loop skipped",
        "oracle.py",
        "    for p, vector in basis:\n",
        "    for p, vector in basis[:0]:\n",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: completed column slice not reversed",
        "oracle.py",
        "entries[depth - j + 1 : depth + 1][::-1]",
        "entries[depth - j + 1 : depth + 1]",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: completed column slice one entry too long",
        "oracle.py",
        "entries[depth - j + 1 : depth + 1][::-1]",
        "entries[depth - j : depth + 1][::-1]",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: corner column read forwards",
        "oracle.py",
        "_reduce(entries[-1:-n:-1]",
        "_reduce(entries[-n + 1:]",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: column 1 never extended",
        "oracle.py",
        "                if j:\n",
        "                if j > 1:\n",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: h keeps its check's first pair",
        "oracle.py",
        "pairs[1:]))",
        "pairs))",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: child's X[i-1][i+1]*X[i+1][j] term dropped",
        "oracle.py",
        "ra, mb = roots[entries[a]], mul[entries[b]]",
        "ra, mb = roots[entries[a]], mul[0]",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: settle counts one root per value",
        "oracle.py",
        "counted += len(ys)",
        "counted += 1",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: x* counted when it is not a root",
        "oracle.py",
        "zeros = neg[l0[1]] in xs and not",
        "zeros = not",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: row-1 pivot lookup inverted",
        "oracle.py",
        "if n < 3 or any(p == 1 for p, _ in basis):",
        "if n < 3 or not any(p == 1 for p, _ in basis):",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: torus delta counts the 1 branch q times",
        "oracle.py",
        "counted += (q - 2) * (counted - before)",
        "counted += (q - 1) * (counted - before)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: components not merged after a 1",
        "oracle.py",
        "        labels[:] = [li if label == lj else label for label in labels]\n",
        "",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: labels not restored",
        "oracle.py",
        "labels[:], weight = saved, w",
        "weight = w",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: torus rule applied without len(xs) == q",
        "oracle.py",
        "if full and len(xs) == full and (visit or depth < settle) and split(depth):",
        "if full and (visit or depth < settle) and split(depth):",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: q = 2 kernel leaves out row 0's checks",
        "oracle.py",
        "yield from walk(i - 1, bad | checks[i][s])",
        "yield from walk(i - 1, bad | checks[i][s] if i else bad)",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: q = 2 kernel drops the quadratic term",
        "oracle.py",
        "checks.append([a | (b ^ quad) for a, b in linear])",
        "checks.append([a | b for a, b in linear])",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: q = 2 kernel drops the corner's 2",
        "oracle.py",
        "return 2 * sum(passing.bit_count()",
        "return sum(passing.bit_count()",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: q = 2 mask period off by one",
        "oracle.py",
        "(ones // ((1 << 2 * half) - 1))",
        "(ones // ((1 << 2 * half + 1) - 1))",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: n < 1 passes the argument check",
        "oracle.py",
        'raise ValueError(f"n must be positive, got {n}")',
        "pass",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle: budget compared at one power fewer",
        "oracle.py",
        "budget.bit_length()",
        "budget.bit_length() - 1",
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
