"""The benchmark's workloads and the output gates that check them.

A workload is a list of sqzero CLI commands. Each command carries a gate:
a function that reads what the command printed and returns the first
problem it finds, or None when the output shows the command did its work.
The oracle counts the gates compare against are constants stored here;
they are never recomputed with the program under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

Gate = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    gate: Gate


# (n, q, square-zero count, counts by rank or None)
ORACLE_POINTS = (
    (7, 2, 28800, None),
    (5, 4, 16384, {0: 1, 1: 939, 2: 15444}),
    (4, 9, 13041, None),
)

# The oracle point whose time with one worker and with two gives
# oracle.pool_speedup; every traced run measures it.
POOL_PROBE = (7, 2)


def verify_command(n_max: int) -> Command:
    """`verify --n-max N`: exactly the rows n=1..N reading OK, then a PASS
    line naming N."""
    rows = [f"n={n}: OK" for n in range(1, n_max + 1)]
    pass_line = re.compile(rf"verify: PASS\b.*\b{n_max}\b.*")

    def gate(out: str) -> Optional[str]:
        lines = out.splitlines()
        body = lines[:-1]
        for i, want in enumerate(rows):
            if i >= len(body):
                return f"missing row {want!r}"
            if body[i] != want:
                return f"expected {want!r}, got {body[i]!r}"
        if len(body) > len(rows):
            return f"unexpected line {body[len(rows)]!r}"
        if not lines or not pass_line.fullmatch(lines[-1]):
            return f"no PASS line naming {n_max}"
        return None

    return Command(("verify", "--n-max", str(n_max)), gate)


def lemma2_command(m_max: int) -> Command:
    """`lemma2 --m-max M`: no MISMATCH line, and a last line reading PASS
    that names M."""
    pass_line = re.compile(rf"lemma2: PASS\b.*\b{m_max}\b.*")

    def gate(out: str) -> Optional[str]:
        lines = out.splitlines()
        bad = [line for line in lines if line.startswith("MISMATCH")]
        if bad:
            return f"{len(bad)} mismatch lines, first {bad[0]!r}"
        if not lines or not pass_line.fullmatch(lines[-1]):
            return f"no PASS line naming {m_max}"
        return None

    return Command(("lemma2", "--m-max", str(m_max)), gate)


def oracle_command(n: int, q: int, count: int, ranks: Optional[dict[int, int]] = None) -> Command:
    """`oracle --n N --q Q --workers 1 [--by-rank]`: the enumerated count
    equals ``count``, the rank counts equal ``ranks`` when given, and the
    last line reads MATCH."""
    argv = ("oracle", "--n", str(n), "--q", str(q), "--workers", "1")
    if ranks is not None:
        argv += ("--by-rank",)

    def gate(out: str) -> Optional[str]:
        found = re.search(r"^oracle count:\s+(\d+)$", out, re.M)
        if found is None:
            return "no oracle count line"
        if int(found.group(1)) != count:
            return f"oracle count {found.group(1)} != expected {count}"
        if ranks is not None:
            got = {int(r): int(c) for r, c in re.findall(r"^\s*rank (\d+): count (\d+)", out, re.M)}
            if got != ranks:
                return f"rank counts {got} != expected {ranks}"
        if out.splitlines()[-1:] != ["MATCH"]:
            return "no MATCH line"
        return None

    return Command(argv, gate)


def oracle_commands(points, seed: int) -> list[Command]:
    """One command per oracle point, in an order fixed by ``seed``."""
    commands = [oracle_command(*point) for point in points]
    random.Random(seed).shuffle(commands)
    return commands


# The workloads are exact enumerations with no random input; the seed only
# orders the oracle commands. README.md says why each workload was chosen.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "verify": lambda seed: [verify_command(40)],
    "lemma2": lambda seed: [lemma2_command(60)],
    "oracle": lambda seed: oracle_commands(ORACLE_POINTS, seed),
}
