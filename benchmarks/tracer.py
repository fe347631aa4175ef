"""A tracer that times calls into sqzero's layers from outside the program.

Nothing under ``src/`` is edited. The tracer replaces a function, method or
constructor with a wrapper on its owner, and also on every other name bound
to the same object: a class attribute alias such as ``__rmul__ = __mul__``,
or a name another sqzero module imported, such as ``sqzero.counting.qbinomial``.
A target that no longer exists is listed in ``missing`` and its metrics are
left out; installing the rest goes on.

Hot targets (called up to ~10^5 times per command) only add to their
aggregate; cold ones also record a span (name, start, end, parent span).
Per layer, the tracer keeps self time: time inside the layer's calls minus
the time their traced callees took.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    attribute: str  # dotted path within the module, e.g. "QLaurentPoly.__mul__"
    layer: str
    hot: bool = False
    # extra(stat, args, kwargs, result) adds work counts after a call returns
    extra: Optional[Callable] = None


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0  # inclusive, outermost calls only (recursion counted once)
    counters: dict[str, int] = field(default_factory=dict)
    keys: set = field(default_factory=set)
    depth: int = 0

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.self_seconds: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # per active call: [callee seconds, span index]
        self._undo: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for target in targets:
            self.wrap(target)

    def wrap(self, target: Target) -> bool:
        """Wrap one target; False (and noted in ``missing``) if it is absent."""
        owner = sys.modules.get(target.module)
        *path, attr = target.attribute.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            self.missing.append(target.name)
            return False
        wrapper = self._wrapper(target, original)
        owners = [owner]
        if isinstance(owner, types.ModuleType):
            owners = [m for name, m in list(sys.modules.items())
                      if name == "sqzero" or name.startswith("sqzero.")]
        for obj in owners:
            for key, value in list(vars(obj).items()):
                if value is original:
                    setattr(obj, key, wrapper)
                    self._undo.append((obj, key, original))
        return True

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def _wrapper(self, target: Target, original):
        stat = self.stats.setdefault(target.name, Stat())
        self.self_seconds.setdefault(target.layer, 0.0)
        self_seconds, spans, stack = self.self_seconds, self.spans, self._stack
        layer, name, hot, extra = target.layer, target.name, target.hot, target.extra
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if not hot:
                frame[1] = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            stat.depth += 1
            done = False
            start = clock()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                if not stat.depth:
                    stat.seconds += end - start
                self_seconds[layer] += end - start - frame[0]
                if not hot:
                    spans[frame[1]] = (name, start, end, parent)
                if done and extra is not None:
                    extra(stat, args, kwargs, result)
                if stack:  # the caller's self time excludes this call and its counting
                    stack[-1][0] += clock() - start

        return wrapper

    def report(self) -> dict:
        """Plain-JSON aggregates: per target calls, seconds, counters and the
        number of distinct argument tuples seen; self seconds per layer;
        spans; and the names of targets that were missing."""
        return {
            "stats": {
                name: {"calls": s.calls, "s": s.seconds, "distinct": len(s.keys), **s.counters}
                for name, s in self.stats.items()
            },
            "self_s": dict(self.self_seconds),
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans
            ],
            "missing": list(self.missing),
        }


def _size(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if value else 0  # an int operand is a constant polynomial


def _term_pairs(stat: Stat, args, kwargs, result) -> None:
    stat.count("term_pairs", _size(args[0]) * _size(args[1]))


def _quot_terms(stat: Stat, args, kwargs, result) -> None:
    stat.count("quot_terms", _size(result))


def _distinct_args(stat: Stat, args, kwargs, result) -> None:
    stat.keys.add(args)


def _enumerated(stat: Stat, args, kwargs, result) -> None:
    n, q = args[:2]
    stat.count("candidates", q ** (n * (n - 1) // 2))
    stat.count("solutions", sum(result.values()) if isinstance(result, dict) else result)


# The public entry points of each sqzero layer that the benchmark times.
TARGETS = (
    Target("qpoly.mul", "sqzero.qpoly", "QLaurentPoly.__mul__", "qpoly", True, _term_pairs),
    Target("qpoly.exact_div", "sqzero.qpoly", "QLaurentPoly.exact_div", "qpoly", True, _quot_terms),
    Target("qbinom.qbinomial", "sqzero.qbinom", "qbinomial", "qbinom", True, _distinct_args),
    Target("counting.closed_form", "sqzero.counting", "closed_form", "counting"),
    Target("counting.recurrence_table", "sqzero.counting", "recurrence_table", "counting"),
    Target("counting.constant_term_entry", "sqzero.counting", "constant_term_entry", "counting"),
    Target("counting.constant_term_total", "sqzero.counting", "constant_term_total", "counting"),
    Target("counting.alternating_qbinomial_sum", "sqzero.counting",
           "alternating_qbinomial_sum", "counting"),
    Target("counting.WLaurent.mul", "sqzero.counting", "WLaurent.__mul__", "counting"),
    Target("gf.FiniteField", "sqzero.gf", "FiniteField.__init__", "gf"),
    Target("oracle.count_square_zero", "sqzero.oracle", "count_square_zero", "oracle",
           extra=_enumerated),
    Target("oracle.count_by_rank", "sqzero.oracle", "count_by_rank", "oracle", extra=_enumerated),
    Target("cli.main", "sqzero.cli", "main", "cli"),
)
