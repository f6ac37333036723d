"""Command-line surface: constant tables, identity suites, Li positivity.

    zkconst table --seq <gamma|eta|sigma|lambda|xi1|zeta0> --max-n <N>
                  [--digits <D>] [--u <U>] [--format <text|csv|json>]
    zkconst verify --suite <all|bell|stieltjes|eta|lambda|xi|zeta-derivs>
                  [--digits <D>] [--tol-exp <T>] [--format <text|json>]
    zkconst li-check --max-n <N> [--digits <D>] [--format <text|json>]

--digits D lies in [10, 60]; --tol-exp T (default D - 5) lies in [1, D] and
judges the numeric identities against 10^-T, except those whose tolerance is
fixed (residuals, escalation, exact and inequality checks, ...; the verify
module docstring lists them).

Exit codes: 0 success, 1 verification failure, 2 usage or cap error,
3 convergence failure, 4 internal error (any other exception, reported as one
line on stderr).  Numeric values are emitted as decimal strings, never binary
floats, and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from mpmath import mp

from . import chain, li_keiper, reports, verify
from .precision import (
    DEFAULT_DIGITS, SUITES, ConvergenceError, PrecisionContext, extra_digits,
)
from .stieltjes import FAMILIES, ConstantTable

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_INTERNAL = 4


def _parse_u(raw: str, ctx: PrecisionContext):
    with mp.workdps(ctx.working_dps + extra_digits("parse_u")):
        # mpmath reads "p/q" as a ratio, so "1/0" raises ZeroDivisionError
        try:
            u = mp.mpf(raw)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse --u value {raw!r}") from exc
        if not (mp.isfinite(u) and u > 0):
            raise ValueError("--u must be a finite real > 0")
        return u


def _emit_table(table: ConstantTable, seq: str, fmt: str, out) -> None:
    rows = [
        {"n": n, "value": mp.nstr(value, table.digits, strip_zeros=False),
         "method": method}
        for n, value, method in table
    ]
    if fmt == "json":
        payload = {"seq": seq, "digits": table.digits, "rows": rows}
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
    elif fmt == "csv":
        out.write("n,value,method\n")
        for row in rows:
            out.write(f"{row['n']},{row['value']},{row['method']}\n")
    else:
        width = max(len(r["value"]) for r in rows)
        for row in rows:
            out.write(f"{row['n']:>4}  {row['value']:<{width}}  {row['method']}\n")


def _emit_reports(checks, suite: str, digits: int, fmt: str, out) -> int:
    if fmt == "json":
        payload = {
            "suite": suite,
            "digits": digits,
            "reports": [r.as_dict() for r in checks],
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
    else:
        npass = sum(1 for r in checks if r.passed)
        for r in checks:
            verdict = "pass" if r.passed else "FAIL"
            out.write(
                f"{verdict}  {r.identity}  lhs={r.lhs}  rhs={r.rhs}  "
                f"abs_err={r.abs_err}  tol={r.tol}  [{' | '.join(r.method_tags)}]\n"
            )
        out.write(f"suite={suite} digits={digits} passed={npass}/{len(checks)}\n")
    return EXIT_OK if reports.all_passed(checks) else EXIT_VERIFY_FAILED


def _cmd_table(args, out) -> int:
    ctx = PrecisionContext(digits=args.digits)
    u = _parse_u(args.u, ctx) if args.u is not None else None
    table = chain.table(args.seq, args.max_n, ctx, u=u)
    _emit_table(table, args.seq, args.format, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    ctx = PrecisionContext(digits=args.digits)
    checks = verify.run_suite(args.suite, ctx, args.tol_exp)
    return _emit_reports(checks, args.suite, ctx.digits, args.format, out)


def _cmd_li_check(args, out) -> int:
    ctx = PrecisionContext(digits=args.digits)
    checks = li_keiper.positivity_report(args.max_n, ctx)
    return _emit_reports(checks, "li-check", ctx.digits, args.format, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkconst",
        description=(
            "High-precision Stieltjes, eta, sigma, Li/Keiper, xi- and "
            "zeta-derivative constants with multi-route verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit one constant family")
    p_table.add_argument("--seq", required=True, choices=list(FAMILIES))
    p_table.add_argument("--max-n", required=True, type=int, dest="max_n")
    p_table.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p_table.add_argument("--u", default=None)
    p_table.add_argument(
        "--format", choices=["text", "csv", "json"], default="text"
    )
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITES))
    p_verify.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p_verify.add_argument("--tol-exp", type=int, default=None, dest="tol_exp")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_li = sub.add_parser("li-check", help="desk-scale Li positivity check")
    p_li.add_argument("--max-n", required=True, type=int, dest="max_n")
    p_li.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p_li.add_argument("--format", choices=["text", "json"], default="text")
    p_li.set_defaults(func=_cmd_li_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ConvergenceError as exc:
        print(f"convergence failure at index {exc.index}: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a crash must not read as exit 1, "a verification failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
