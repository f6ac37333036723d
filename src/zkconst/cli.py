"""Command-line surface: constant tables, identity suites, Li positivity.

    zkconst table --seq <gamma|eta|sigma|lambda|xi1|zeta0> --max-n <N>
                  [--digits <D>] [--u <U>] [--format <text|csv|json>]
    zkconst verify --suite <all|bell|stieltjes|eta|lambda|xi|zeta-derivs>
                  [--digits <D>] [--tol-exp <T>] [--format <text|json>]
    zkconst li-check --max-n <N> [--digits <D>] [--format <text|json>]

--digits D lies in [10, 60]; main builds the run's one PrecisionContext from
it, so a bad --digits is the first error of every command.  --tol-exp T
(default D - 5) lies in [1, D] and judges every numeric identity against
10^-T; exact and inequality checks are judged against 0.

Exit codes: 0 success, 1 verification failure, 2 usage or cap error,
3 convergence failure, 4 internal error (any other exception, reported as one
line on stderr).  A stdout closed by its reader is none of these: the command
exits as it would have, 0 for a table and the verdict for verify and
li-check, with nothing on stderr.  Numeric values are emitted as decimal
strings, never binary floats, and identical invocations produce
byte-identical output.

Like the whole package, this module runs on the standard library alone,
and it reads the step modules only as lazily registered module objects:
--help and the usage errors execute cli and precision only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chain, li_keiper, reports, stieltjes, verify
from .precision import DEFAULT_DIGITS, FAMILIES, SUITES, ConvergenceError, PrecisionContext

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_INTERNAL = 4


def _emit_table(table: stieltjes.ConstantTable, seq: str, fmt: str) -> str:
    rows = [{"n": n, "value": value, "method": method} for n, value, method in table.rows()]
    if fmt == "json":
        payload = {"seq": seq, "digits": table.ctx.digits, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return "n,value,method\n" + "".join(
            f"{row['n']},{row['value']},{row['method']}\n" for row in rows)
    width = max(len(r["value"]) for r in rows)
    return "".join(f"{row['n']:>4}  {row['value']:<{width}}  {row['method']}\n" for row in rows)


def _emit_reports(checks, suite: str, digits: int, fmt: str) -> tuple:
    status = EXIT_OK if reports.all_passed(checks) else EXIT_VERIFY_FAILED
    if fmt == "json":
        payload = {
            "suite": suite,
            "digits": digits,
            "reports": [r.as_dict() for r in checks],
        }
        return status, json.dumps(payload, indent=2) + "\n"
    npass = sum(1 for r in checks if r.passed)
    lines = [
        f"{'pass' if r.passed else 'FAIL'}  {r.identity}  lhs={r.lhs}  rhs={r.rhs}  "
        f"abs_err={r.abs_err}  tol={r.tol}  [{' | '.join(r.method_tags)}]\n"
        for r in checks
    ]
    return status, "".join(lines) + f"suite={suite} digits={digits} passed={npass}/{len(checks)}\n"


# each command returns (exit status, stdout text): main knows the status
# before it writes, so a closed stdout cannot change it
def _cmd_table(args, ctx: PrecisionContext) -> tuple:
    table = chain.table(args.seq, args.max_n, ctx, u=args.u)
    return EXIT_OK, _emit_table(table, args.seq, args.format)


def _cmd_verify(args, ctx: PrecisionContext) -> tuple:
    checks = verify.run_suite(args.suite, ctx, args.tol_exp)
    return _emit_reports(checks, args.suite, ctx.digits, args.format)


def _cmd_li_check(args, ctx: PrecisionContext) -> tuple:
    checks = li_keiper.positivity_report(args.max_n, ctx)
    return _emit_reports(checks, "li-check", ctx.digits, args.format)


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
        status, text = args.func(args, PrecisionContext(digits=args.digits))
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout, so the rest of the text has nowhere
            # to go; pointing stdout at devnull keeps the flush at exit from
            # raising again, and the command exits as it would have
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return status
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
