"""Command-line front end for the counting engines and the oracle.

Subcommands: compute, verify, oracle, lemma2, table.

Exit codes are stable across subcommands: 0 means success (all checks
match), 1 means a mathematical mismatch or an engine error (an inexact
division or a non-polynomial constant term), 2 means a usage or argument
error.  Coefficients are serialized as decimal strings in JSON so
arbitrary-precision values survive any consumer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import islice

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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    print(buf.getvalue(), end="")


def _cmd_compute(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.q is not None and args.q < 1:
        raise ValueError(f"--q must be a positive integer, got {args.q}")
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
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    mismatches: list[str] = []
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
            mismatches.extend(row_issues)
        else:
            print(f"n={n}: OK")
    if mismatches:
        print(f"verify: FAIL ({len(mismatches)} mismatches, n_max={args.n_max})")
        return 1
    print(f"verify: PASS (all engines agree for 1 <= n <= {args.n_max})")
    return 0


def _cmd_oracle(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    issues = []
    if args.by_rank:
        ranks = oracle.count_by_rank(args.n, args.q, budget=args.budget, workers=args.workers)
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
        count = oracle.count_square_zero(args.n, args.q, budget=args.budget, workers=args.workers)
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
    if args.m_max < 0:
        raise ValueError(f"--m-max must be >= 0, got {args.m_max}")
    failures = []
    for m in range(args.m_max + 1):
        lhs = counting.alternating_qbinomial_sum(m)
        rhs = counting.alternating_qbinomial_sum_closed(m)
        if lhs != rhs:
            failures.append(m)
            print(f"MISMATCH m={m}: sum [{lhs}] != closed form [{rhs}]")
    if failures:
        print(f"lemma2: FAIL ({len(failures)} mismatches, m_max={args.m_max})")
        return 1
    print(f"lemma2: PASS (identity holds for 0 <= m <= {args.m_max})")
    return 0


def _cmd_table(args) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    q_list = args.q_list or []
    if any(q < 1 for q in q_list):
        raise ValueError(f"--q-list values must be positive, got {q_list}")
    polys = {n: counting.closed_form(n) for n in range(1, args.n_max + 1)}
    if args.format == "json":
        records = [
            _record(n, "closed", q, poly, None if q is None else poly.eval_at(q))
            for n, poly in polys.items()
            for q in q_list or [None]
        ]
        print(json.dumps(records))
    elif args.format == "csv":
        _print_csv(
            ["n", "polynomial"] + [str(q) for q in q_list],
            ([n, poly] + [poly.eval_at(q) for q in q_list] for n, poly in polys.items()),
        )
    else:
        for n, poly in polys.items():
            line = f"n={n}  {poly}"
            if q_list:
                line += "  " + "  ".join(f"q={q}: {poly.eval_at(q)}" for q in q_list)
            print(line)
    return 0


def _parse_q_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


@cache  # one parser per process, built by the first main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzero",
        description="Count strictly upper-triangular matrices over GF(q) whose square is zero.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the count polynomial for one n")
    p.add_argument("--n", type=int, required=True, help="matrix dimension (>= 1)")
    p.add_argument(
        "--method",
        choices=tuple(counting.ENGINES),
        default="closed",
        help="which engine computes the polynomial; every engine gives the same one",
    )
    p.add_argument("--q", type=int, help="also evaluate at q (any positive integer)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("verify", help="cross-check every engine against the recurrence")
    p.add_argument("--n-max", type=int, default=20, help="check all n up to this bound")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="count by enumeration and compare with the formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="a supported prime power")
    p.add_argument("--by-rank", action="store_true", help="also check the counts by matrix rank")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ignored: the search runs in one process (kept for scripts that pass it)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help=f"candidate budget (default {oracle.DEFAULT_BUDGET})",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("lemma2", help="check the alternating q-binomial sum identity")
    p.add_argument("--m-max", type=int, default=60, help="check all m up to this bound")
    p.set_defaults(handler=_cmd_lemma2)

    p = sub.add_parser("table", help="emit count polynomials (and values) for n = 1..n_max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q-list", type=_parse_q_list, default=[], help="comma-separated q values")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return 0 if code in (0, None) else int(code)
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
