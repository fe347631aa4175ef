"""Command-line front end for the counting engines and the oracle.

Subcommands: compute, verify, oracle, lemma2, table; ``COMMANDS`` holds
their handlers and options for both parsing and help.  Options are long
only, as ``--opt value`` or ``--opt=value``; a unique prefix stands for the
name, the last of a repeated option wins, and ``-h``/``--help`` prints help.
Each option's range is part of its ``COMMANDS`` entry, so an out-of-range
value is a usage error like any other, and the handlers check no values.

Exit codes are stable across subcommands: 0 means success (all checks
match), 1 means a mathematical mismatch or an engine error (an inexact
division or a non-polynomial constant term), 2 means a usage or argument
error.  Coefficients are serialized as decimal strings in JSON so
arbitrary-precision values survive any consumer.
"""

from __future__ import annotations

import csv
import getopt
import json
import sys
from itertools import islice
from types import SimpleNamespace

from . import counting, oracle
from .qpoly import InexactDivisionError, QLaurentPoly

# verify streams this engine's rows and checks every other one against them.
_REFERENCE = "recurrence"


def _record(n: int, method: str, q: int | None, polynomial: QLaurentPoly | None, value: int | None) -> dict:
    """One machine-readable result row; ``q``, ``polynomial`` and ``value``
    are left out when None."""
    obj: dict = {"n": n, "method": method}
    if q is not None:
        obj["q"] = q
    if polynomial is not None:
        obj["polynomial"] = {str(e): str(c) for e, c in sorted(polynomial.terms.items())}
    if value is not None:
        obj["value"] = str(value)
    return obj


def _print_csv(header: list[str], rows) -> None:
    """Print one CSV document; csv writes None as an empty field and str()s the rest."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_compute(args) -> int:
    poly = counting.engine_total(args.method, args.n)
    value = poly.eval_at(args.q) if args.q is not None else None
    if args.format == "json":
        print(json.dumps(_record(args.n, args.method, args.q, poly, value)))
    elif args.format == "csv":
        _print_csv(["n", "method", "q", "polynomial", "value"], [[args.n, args.method, args.q, poly, value]])
    else:
        print(value if value is not None else str(poly))
    return 0


def _cmd_verify(args) -> int:
    mismatches = 0
    for n, entries in zip(range(1, args.n_max + 1), islice(counting.recurrence_rows(), 1, None)):
        reference = counting.row_total(entries)
        total_issues: list[str] = []
        entry_issues: list[str] = []
        for name, engine in counting.ENGINES.items():
            if name == _REFERENCE:
                continue
            out = engine(n)
            if isinstance(out, QLaurentPoly):
                if out != reference:
                    total_issues.append(f"n={n}: {name} [{out}] != {_REFERENCE} [{reference}]")
            else:
                entry_issues += [
                    f"n={n} r={r}: {name} [{got}] != {_REFERENCE} [{want}]"
                    for r, (got, want) in enumerate(zip(out, entries, strict=True))
                    if got != want
                ]
        # Totals are reported before entries, whatever the order of ENGINES.
        row_issues = total_issues + entry_issues
        if row_issues:
            for issue in row_issues:
                print(f"MISMATCH {issue}")
            mismatches += len(row_issues)
        else:
            print(f"n={n}: OK")
    if mismatches:
        print(f"verify: FAIL ({mismatches} mismatches, n_max={args.n_max})")
        return 1
    print(f"verify: PASS (all engines agree for 1 <= n <= {args.n_max})")
    return 0


def _cmd_oracle(args) -> int:
    issues = []
    if args.by_rank:
        ranks = oracle.count_by_rank(args.n, args.q, budget=args.budget)
        count = sum(ranks.values())
        # Each rank r with 2r <= n must occur t(n, r) times at q; no other rank may.
        expected = {
            r: counting.constant_term_entry(args.n, r).eval_at(args.q) for r in range(args.n // 2 + 1)
        }
        issues = [
            f"MISMATCH rank {r}: oracle count {ranks.get(r, 0)} != entry formula {expected.get(r, 0)}"
            for r in sorted(ranks.keys() | expected.keys())
            if ranks.get(r, 0) != expected.get(r, 0)
        ]
    else:
        count = oracle.count_square_zero(args.n, args.q, budget=args.budget)
    formula_poly = counting.closed_form(args.n)
    formula = formula_poly.eval_at(args.q)
    match = count == formula and not issues
    if args.format == "json":
        found = _record(args.n, "oracle", args.q, None, count)
        if args.by_rank:
            found["ranks"] = {str(r): str(c) for r, c in ranks.items()}
        print(json.dumps([found, _record(args.n, "closed", args.q, formula_poly, formula)]))
        for issue in issues:
            print(issue, file=sys.stderr)
    else:
        print(f"n={args.n} q={args.q}")
        print(f"oracle count:  {count}")
        print(f"formula value: {formula}")
        if args.by_rank:
            print("rank refinement:")
            for r, c in ranks.items():
                print(f"  rank {r}: count {c}  (entry formula at q: {expected.get(r, 0)})")
            for issue in issues:
                print(issue)
        print("MATCH" if match else "MISMATCH")
    return 0 if match else 1


def _cmd_lemma2(args) -> int:
    mismatches = 0
    for m in range(args.m_max + 1):
        lhs = counting.alternating_qbinomial_sum(m)
        rhs = counting.alternating_qbinomial_sum_closed(m)
        if lhs != rhs:
            mismatches += 1
            print(f"MISMATCH m={m}: sum [{lhs}] != closed form [{rhs}]")
    if mismatches:
        print(f"lemma2: FAIL ({mismatches} mismatches, m_max={args.m_max})")
        return 1
    print(f"lemma2: PASS (identity holds for 0 <= m <= {args.m_max})")
    return 0


def _cmd_table(args) -> int:
    polys = {n: counting.closed_form(n) for n in range(1, args.n_max + 1)}
    if args.format == "json":
        records = [
            _record(n, "closed", q, poly, None if q is None else poly.eval_at(q))
            for n, poly in polys.items()
            for q in args.q_list or [None]
        ]
        print(json.dumps(records))
    elif args.format == "csv":
        _print_csv(
            ["n", "polynomial"] + [str(q) for q in args.q_list],
            ([n, poly] + [poly.eval_at(q) for q in args.q_list] for n, poly in polys.items()),
        )
    else:
        for n, poly in polys.items():
            line = f"n={n}  {poly}"
            if args.q_list:
                line += "  " + "  ".join(f"q={q}: {poly.eval_at(q)}" for q in args.q_list)
            print(line)
    return 0


def _at_least(low: int):
    """A parser of the integers >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return parse


def _parse_q_list(text: str) -> list[int]:
    return [_at_least(1)(part) for part in text.split(",") if part.strip()]


REQUIRED = object()  # the default of an option that must be given

# Each subcommand's handler, help and options.  An option maps to its parser
# (int, a tuple of choices, a converter from the option's text such as
# _at_least(1), or None for a switch), its default or REQUIRED, and its help.
COMMANDS = {
    "compute": (_cmd_compute, "compute the count polynomial for one n", {
        "n": (_at_least(1), REQUIRED, "matrix dimension (>= 1)"),
        "method": (tuple(counting.ENGINES), "closed",
                   "which engine computes the polynomial; every engine gives the same one"),
        "q": (_at_least(1), None, "also evaluate at q (any positive integer)"),
        "format": (("text", "json", "csv"), "text", ""),
    }),
    "verify": (_cmd_verify, "cross-check every engine against the recurrence", {
        "n-max": (_at_least(1), 20, "check all n up to this bound"),
    }),
    "oracle": (_cmd_oracle, "count by enumeration and compare with the formula", {
        "n": (_at_least(1), REQUIRED, ""),
        "q": (int, REQUIRED, "a supported prime power"),
        "by-rank": (None, False, "also check the counts by matrix rank"),
        "workers": (int, 1, "ignored: the search runs in one process (kept for scripts that pass it)"),
        "budget": (int, oracle.DEFAULT_BUDGET, f"candidate budget (default {oracle.DEFAULT_BUDGET})"),
        "format": (("text", "json"), "text", ""),
    }),
    "lemma2": (_cmd_lemma2, "check the alternating q-binomial sum identity", {
        "m-max": (_at_least(0), 60, "check all m up to this bound"),
    }),
    "table": (_cmd_table, "emit count polynomials (and values) for n = 1..n_max", {
        "n-max": (_at_least(1), REQUIRED, ""),
        "q-list": (_parse_q_list, [], "comma-separated q values"),
        "format": (("text", "json", "csv"), "text", ""),
    }),
}


def _help(command: str | None) -> list[str]:
    """The lines that ``sqzero [command] --help`` prints; the first is the usage."""
    if command is None:
        title = "Count strictly upper-triangular matrices over GF(q) whose square is zero."
        words = ["[-h]", "{" + ",".join(COMMANDS) + "}", "..."]
        rows = [(name, cmd[1]) for name, cmd in COMMANDS.items()]
    else:
        _, title, options = COMMANDS[command]
        words, rows = [command, "[-h]"], []
        for name, (parse, default, text) in options.items():
            spelling = f"--{name}"
            if isinstance(parse, tuple):
                spelling += " {" + ",".join(parse) + "}"
            elif parse is not None:
                spelling += " " + name.upper().replace("-", "_")
            words.append(spelling if default is REQUIRED else f"[{spelling}]")
            rows.append((spelling, text))
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows) + 2
    body = [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
    return [" ".join(["usage: sqzero", *words]), "", title, ""] + body


def _parse(command: str | None, argv: list[str]) -> SimpleNamespace | None:
    """The handler and options of ``sqzero [command] argv``, or None once help
    is printed.  A usage error raises ``getopt.GetoptError``."""
    options = COMMANDS[command][2] if command else {}
    longopts = ["help"] + [name if parse is None else name + "=" for name, (parse, _, _) in options.items()]
    opts, rest = getopt.getopt(argv, "h", longopts)
    values = {name: default for name, (_, default, _) in options.items()}
    for flag, text in opts:
        name = flag.lstrip("-")
        if name in ("h", "help"):
            print("\n".join(_help(command)))
            return None
        parse = options[name][0]
        if parse is None:
            values[name] = True
        elif isinstance(parse, tuple) and text not in parse:
            choices = ", ".join(parse)
            raise getopt.GetoptError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
        else:
            try:
                values[name] = text if isinstance(parse, tuple) else parse(text)
            except ValueError as exc:
                raise getopt.GetoptError(f"argument {flag}: {exc}") from None
    if command is None:
        raise getopt.GetoptError(f"invalid command: {rest[0]!r}" if rest else "a command is required")
    if rest:
        raise getopt.GetoptError("unrecognized arguments: " + " ".join(rest))
    missing = [f"--{name}" for name, value in values.items() if value is REQUIRED]
    if missing:
        raise getopt.GetoptError("the following arguments are required: " + ", ".join(missing))
    args = {name.replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(handler=COMMANDS[command][0], **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _parse(command, argv[1:] if command else argv)
    except getopt.GetoptError as exc:
        print(_help(command)[0], f"error: {exc.msg}", sep="\n", file=sys.stderr)
        return 2
    if args is None:  # help was printed
        return 0
    # Counts at large n and q run past Python's default 4300-digit cap on
    # int <-> str conversion (3.11+); lift it while printing them whole.
    set_digit_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_digit_limit is not None:
        old_limit = sys.get_int_max_str_digits()
        set_digit_limit(0)
    try:
        return args.handler(args)
    except (InexactDivisionError, counting.NonPolynomialResultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, oracle.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if set_digit_limit is not None:
            set_digit_limit(old_limit)


if __name__ == "__main__":
    sys.exit(main())
