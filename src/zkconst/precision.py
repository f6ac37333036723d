"""Precision plumbing: contexts, errors, index checks and decimal output.

Every numeric operation in the package is a pure function of its arguments
plus a PrecisionContext.  The context fixes the number of decimal digits the
caller wants to trust and the extra guard digits carried internally, which
together set the truncation threshold for infinite series.  How many digits
each kind of step carries beyond that is read from one table, through
extra_digits.  Results are plain mpmath mpf values; the context they were
computed under is their precision.
Every integer argument with a range (an index, a table's max_n, digits,
tol_exp) is checked by check_index.
A value leaves the package only in a ConstantTable or a VerificationReport,
and both raise ValueError on a value that is not finite.  The context and
the table are Frozen records: their fields are set once, by __init__.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

MIN_DIGITS = 10
MAX_DIGITS = 60
MIN_GUARD = 5
DEFAULT_DIGITS = 30

# step -> (per index, fixed): a step at index n carries per_index * n + fixed
# decimal digits beyond ctx.working_dps, for the reason given.  Rows with the
# same numbers stay apart, since their reasons differ.
_BUDGET = {
    "gamma": (1, 15),  # shifted sum and tail, each ~log^(n+1)(U)/(n+1), cancel to O(1)
    "zeta_int": (0, 10),  # CRVZ terms N and fixed-point bits: d > 10^(dps+10) bounds truncation and floors
    "psi_three_halves": (1, 5),  # 2^(n+1) (zeta(n+1) - 1) - zeta(n+1) ~ (2/3)^(n+1), times n!
    "gamma_deriv": (1, 5),  # Gamma^(m)(1) = Y_m(-gamma, 1! zeta(2), ...), weights to (m-1)!
    "zeta0": (2, 10),  # apostol-5.5: Leibniz sums over Gamma^(m)(1), log^k(2 pi) and zeta^(l)(0)
    "residual_3_13": (1, 10),  # (n+1)! times lambda sums that cancel against gamma, psi sums
    "eta": (0, 10),  # gamma <-> eta recurrences: each eta_n sums n products / (j-1)!
    "sigma": (0, 25),  # sigma_(n+1) = +-eta_n - (1 - 2^-(n+1)) zeta(n+1) + 1 cancels to |sigma_20| ~ 1e-23
    "step": (0, 5),  # step maps and routes: finite sums of table entries and atoms
    "side": (0, 5),  # report sides verify and li-check write out from table entries
    "elementary_side": (0, 10),  # suite sides from log(2 pi), pi, cos and zeta(k) afresh
    "report": (0, 10),  # a report compares its sides and tolerance without rounding them
    "roundtrip": (0, 5),  # digits a printed side carries so that it reparses at working_dps
    "parse_u": (0, 10),  # the --u argument, read before the gamma row converts it
}


class ConvergenceError(ArithmeticError):
    """An infinite sum failed to meet its truncation criterion within the cap.

    Carries the last partial result and the index at which summation stopped,
    so a caller (or the CLI) can report where the series was abandoned.
    """

    def __init__(self, message: str, partial, index: int):
        super().__init__(message)
        self.partial = partial
        self.index = index


def check_index(value, name: str, lo: int, hi: int | None = None) -> None:
    """Raise ValueError unless value is an int in [lo, hi] (or >= lo when hi
    is None): the one integer-range rule of the package.  A bool is refused,
    since True would pass for 1."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        if hi is None:
            raise ValueError(f"{name} must be an integer >= {lo}")
        raise ValueError(f"{name} must lie in [{lo}, {hi}]")


class Frozen:
    """A record whose fields, the names in __slots__, are set once by
    __init__ through _set; it compares, hashes and prints as those fields."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class PrecisionContext(Frozen):
    """Target accuracy plus working headroom for series evaluation.

    digits        decimal digits of target accuracy, in [10, 60]
    guard_digits  extra working digits (>= 5)
    """

    __slots__ = ("digits", "guard_digits")

    def __init__(self, digits: int = DEFAULT_DIGITS, guard_digits: int = 10):
        check_index(digits, "digits", MIN_DIGITS, MAX_DIGITS)
        check_index(guard_digits, "guard_digits", MIN_GUARD)
        self._set(digits=digits, guard_digits=guard_digits)

    @property
    def working_dps(self) -> int:
        """Decimal digits carried by default in intermediate arithmetic."""
        return self.digits + self.guard_digits


def extra_digits(step: str, n: int = 0) -> int:
    """Decimal digits a `step` at index n carries beyond ctx.working_dps."""
    per_index, fixed = _BUDGET[step]
    return per_index * n + fixed


def roundtrip_decimal(value: mpf, ctx: PrecisionContext) -> str:
    """Decimal string that, parsed at working_dps, gives back the value
    rounded to working_dps: a float of p bits needs ceil(p log10 2) + 1
    significant digits, so it carries working_dps + the roundtrip row."""
    with mp.workdps(ctx.working_dps + extra_digits("report")):
        return mp.nstr(value, ctx.working_dps + extra_digits("roundtrip"), strip_zeros=False)


def to_mpf(x):
    """x as an mpf at the current precision; mpmath's mpf() rejects Fraction."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)
