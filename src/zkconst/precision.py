"""Precision plumbing: contexts, errors and decimal output.

Every numeric operation in the package is a pure function of its arguments
plus a PrecisionContext.  The context fixes the number of decimal digits the
caller wants to trust and the extra guard digits carried internally, which
together set the truncation threshold for infinite series.  Results are plain
mpmath mpf values; the context they were computed under is their precision.
A value leaves the package only in a ConstantTable or a VerificationReport,
and both raise ValueError on a value that is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

MIN_DIGITS = 10
MAX_DIGITS = 60
MIN_GUARD = 5


class ConvergenceError(ArithmeticError):
    """An infinite sum failed to meet its truncation criterion within the cap.

    Carries the last partial result and the index at which summation stopped,
    so a caller (or the CLI) can report where the series was abandoned.
    """

    def __init__(self, message: str, partial, index: int):
        super().__init__(message)
        self.partial = partial
        self.index = index


@dataclass(frozen=True)
class PrecisionContext:
    """Target accuracy plus working headroom for series evaluation.

    digits        decimal digits of target accuracy (>= 10)
    guard_digits  extra working digits (>= 5)
    """

    digits: int = 30
    guard_digits: int = 10

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < MIN_DIGITS:
            raise ValueError(f"digits must be an integer >= {MIN_DIGITS}")
        if not isinstance(self.guard_digits, int) or self.guard_digits < MIN_GUARD:
            raise ValueError(f"guard_digits must be an integer >= {MIN_GUARD}")

    @property
    def working_dps(self) -> int:
        """Decimal digits carried by default in intermediate arithmetic."""
        return self.digits + self.guard_digits

    def escalated(self, extra_digits: int) -> "PrecisionContext":
        """Same policy with `extra_digits` more digits of target accuracy."""
        return PrecisionContext(self.digits + extra_digits, self.guard_digits)


def roundtrip_decimal(value: mpf, ctx: PrecisionContext) -> str:
    """Decimal string with enough digits to round-trip at the run's precision.

    A binary float of p bits needs ceil(p log10 2) + 1 significant decimal
    digits to reparse exactly; working_dps + 5 covers the working precision
    of every operation in this package.
    """
    with mp.workdps(ctx.working_dps + 10):
        return mp.nstr(value, ctx.working_dps + 5, strip_zeros=False)


def to_mpf(x):
    """x as an mpf at the current precision; mpmath's mpf() rejects Fraction."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)
