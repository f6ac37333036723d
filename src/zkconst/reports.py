"""Verification report records.

A VerificationReport captures one identity check: both sides as decimal
strings that round-trip at the run's precision, the absolute error, the
tolerance it was judged against, and the route tags of the formulas that
produced each side.  The invariant `passed == (abs_err <= tol)` holds for
every report because one constructor, `_report`, decides every verdict; the
public constructors only compute an error and a tolerance.  Inequality
checks encode their violation magnitude as abs_err against a zero
tolerance, and exact checks an error of 0 or 1 against a zero tolerance.
A report with a side that is not finite is an error, never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .precision import PrecisionContext, roundtrip_decimal, to_mpf


@dataclass(frozen=True)
class VerificationReport:
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


def default_tol(ctx: PrecisionContext, tol_exp: int | None = None):
    """10^-tol_exp, defaulting to tol_exp = digits - 5."""
    exp = ctx.digits - 5 if tol_exp is None else tol_exp
    with mp.workdps(ctx.working_dps + 10):
        return mpf(10) ** (-exp)


def _report(identity, lhs, rhs, abs_err, tol, ctx, method_tags) -> VerificationReport:
    """The one verdict: both sides recorded at run precision, and
    passed = abs_err <= tol (all four are mpf values).  A side that is not
    finite raises ValueError: max(0, nan) is 0, so a NaN would otherwise
    pass an inequality."""
    if not (mp.isfinite(lhs) and mp.isfinite(rhs)):
        raise ValueError(f"{identity}: both report sides must be finite")
    return VerificationReport(
        identity=identity,
        lhs=roundtrip_decimal(lhs, ctx),
        rhs=roundtrip_decimal(rhs, ctx),
        abs_err=mp.nstr(abs_err, 8),
        tol=mp.nstr(tol, 8),
        passed=bool(abs_err <= tol),
        method_tags=tuple(method_tags),
    )


def equality_report(
    identity: str,
    lhs,
    rhs,
    tol,
    ctx: PrecisionContext,
    method_tags=(),
) -> VerificationReport:
    """|lhs - rhs| <= tol."""
    with mp.workdps(ctx.working_dps + 10):
        lhs_v, rhs_v = mpf(lhs), mpf(rhs)
        return _report(identity, lhs_v, rhs_v, abs(lhs_v - rhs_v), mpf(tol),
                       ctx, method_tags)


def exact_report(
    identity: str,
    equal: bool,
    witness_lhs,
    witness_rhs,
    ctx: PrecisionContext,
    method_tags=(),
) -> VerificationReport:
    """An exact (rational-arithmetic) check; witnesses are representative values."""
    with mp.workdps(ctx.working_dps + 10):
        return _report(identity, to_mpf(witness_lhs), to_mpf(witness_rhs),
                       mpf(0 if equal else 1), mpf(0), ctx, method_tags)


def inequality_report(
    identity: str,
    lhs,
    rhs,
    ctx: PrecisionContext,
    method_tags=(),
) -> VerificationReport:
    """lhs >= rhs; abs_err is the violation magnitude max(0, rhs - lhs)."""
    with mp.workdps(ctx.working_dps + 10):
        lhs_v, rhs_v = mpf(lhs), mpf(rhs)
        return _report(identity, lhs_v, rhs_v, max(mpf(0), rhs_v - lhs_v), mpf(0),
                       ctx, method_tags)


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
