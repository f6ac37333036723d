"""Verification report records.

A VerificationReport captures one identity check: both sides as decimal
strings that round-trip at the run's precision, the absolute error and the
tolerance it was judged against to 8 digits, all written by
stieltjes.decimal_str, and the route tags of the formulas that produced
each side.  The invariant `passed == (abs_err <= tol)` holds for
every report because one constructor, `_report`, decides every verdict; the
public constructors only pass it an error rule and a tolerance.  Inequality
checks encode their violation magnitude as abs_err against a zero
tolerance, and exact checks an error of 0 or 1 against a zero tolerance.
A report with a side that is not finite, or no number, is an error, never
a verdict.  `equality_reports` and `inequality_reports` build a whole
indexed family of reports from route pairs.  Sides may be a
stieltjes.Binary, an mpf, a float, an int or a Fraction, read as mpf reads
them (stieltjes.rounded); the verdict runs in Binary arithmetic, each
operation rounded as the mpf operation it stands for.
"""

from __future__ import annotations

from typing import NamedTuple

from .precision import PrecisionContext, check_index, extra_digits
from .stieltjes import Binary, decimal_str, rounded, workdps


class VerificationReport(NamedTuple):
    identity: str
    lhs: str
    rhs: str
    abs_err: str
    tol: str
    passed: bool
    method_tags: tuple

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "tol": self.tol,
            "pass": self.passed,
            "method_tags": list(self.method_tags),
        }


def roundtrip_decimal(value: Binary, ctx: PrecisionContext) -> str:
    """Decimal string that, parsed at working_dps, gives back the value
    rounded to working_dps: a float of p bits needs ceil(p log10 2) + 1
    significant digits, so it carries working_dps + the roundtrip row."""
    return decimal_str(value, ctx.working_dps + extra_digits("roundtrip"), strip_zeros=False)


def default_tol(ctx: PrecisionContext, tol_exp: int | None = None) -> Binary:
    """10^-tol_exp, defaulting to tol_exp = digits - 5, as mpf(10)^-tol_exp
    rounds it.  tol_exp must be an int in [1, ctx.digits]: a looser bound
    would pass vacuously.  The upper cap is a policy, not a limit of the
    run's precision (every report also meets digits + 5); ROADMAP item 3
    revisits it."""
    tol_exp = ctx.digits - 5 if tol_exp is None else tol_exp
    check_index(tol_exp, "--tol-exp", 1, ctx.digits)
    with workdps(ctx.working_dps + extra_digits("report")):
        return Binary(10) ** -tol_exp


def _report(identity, lhs, rhs, error, tol, ctx, method_tags) -> VerificationReport:
    """The one verdict: both sides and the tolerance rounded to report
    precision, abs_err = error(lhs, rhs), and passed = abs_err <= tol; both
    sides are recorded at run precision.  A side that is not finite raises
    rounded's ValueError, prefixed with the identity: max(0, nan) is 0, so
    a NaN would otherwise pass an inequality."""
    with workdps(ctx.working_dps + extra_digits("report")):
        try:
            lhs, rhs, tol = rounded(lhs), rounded(rhs), rounded(tol)
        except ValueError as exc:
            raise ValueError(f"{identity}: {exc}") from exc
        abs_err = error(lhs, rhs)
        return VerificationReport(
            identity=identity,
            lhs=roundtrip_decimal(lhs, ctx),
            rhs=roundtrip_decimal(rhs, ctx),
            abs_err=decimal_str(abs_err, 8),
            tol=decimal_str(tol, 8),
            passed=bool(abs_err <= tol),
            method_tags=tuple(method_tags),
        )


def equality_report(identity: str, lhs, rhs, tol, ctx: PrecisionContext,
                    method_tags=()) -> VerificationReport:
    """|lhs - rhs| <= tol."""
    return _report(identity, lhs, rhs, lambda a, b: abs(a - b), tol, ctx, method_tags)


def exact_report(identity: str, witness_lhs, witness_rhs, ctx: PrecisionContext,
                 method_tags=()) -> VerificationReport:
    """witness_lhs == witness_rhs, compared exactly before either side is
    rounded; abs_err is 0 when they are equal, else 1."""
    error = Binary(0 if witness_lhs == witness_rhs else 1)
    return _report(identity, witness_lhs, witness_rhs, lambda a, b: error, 0, ctx,
                   method_tags)


def inequality_report(identity: str, lhs, rhs, ctx: PrecisionContext,
                      method_tags=()) -> VerificationReport:
    """lhs >= rhs; abs_err is the violation magnitude max(0, rhs - lhs)."""
    return _report(identity, lhs, rhs, lambda a, b: max(Binary(0), b - a), 0, ctx,
                   method_tags)


def equality_reports(ns, tol, ctx: PrecisionContext, *rows) -> list:
    """A family of equality reports: for each index n in ns, and within it
    for each row (prefix, lhs, rhs, method_tags) in the order given, the
    report named prefix + str(n) on lhs(n) == rhs(n).  The sides are
    evaluated at the caller's precision."""
    return [
        equality_report(f"{prefix}{n}", lhs(n), rhs(n), tol, ctx, method_tags=tags)
        for n in ns
        for prefix, lhs, rhs, tags in rows
    ]


def inequality_reports(ns, ctx: PrecisionContext, *rows) -> list:
    """As equality_reports, for lhs(n) >= rhs(n)."""
    return [
        inequality_report(f"{prefix}{n}", lhs(n), rhs(n), ctx, method_tags=tags)
        for n in ns
        for prefix, lhs, rhs, tags in rows
    ]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
