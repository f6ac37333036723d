"""Precision plumbing: contexts, errors, limits and index checks.

Every numeric operation in the package is a pure function of its arguments
plus a PrecisionContext.  The context fixes the number of decimal digits the
caller wants to trust and the extra guard digits carried internally, which
together set the truncation threshold for infinite series.  How many digits
each kind of step carries beyond that is read from one table, through
extra_digits, and dps_to_prec turns digits into bits.  Results are exact
binaries (stieltjes.Binary), rounded as mpf arithmetic rounds at the same
precision; the context they were computed under is their precision.
Every integer argument with a range (an index, a table's max_n, digits,
tol_exp) is checked by check_index, against the limits kept here: the
digits range, the suites and each family's first index and cap (FAMILIES).
A value leaves the package only in a ConstantTable or a VerificationReport,
and both read it through stieltjes' readers, Binary.of and rounded, which
raise ValueError on an inf, a nan or no number.  The context and
the table are Frozen records: their fields are set once, by __init__.

The package runs on the standard library alone.  The argument parser and
every usage error it, PrecisionContext or chain.table raises read only these
limits, so --help and a usage error execute no module that computes.
Every decimal the package writes, a table row, a report side or an error
message, comes from one writer on the standard library, stieltjes.decimal_str.
"""

from __future__ import annotations

MIN_DIGITS = 10
MAX_DIGITS = 60
MIN_GUARD = 5
DEFAULT_DIGITS = 30
# what `verify --suite` takes: "all", then verify's suites in run order; kept
# beside the CLI's other limits so that the argument parser need not execute
# verify
SUITES = ("all", "bell", "stieltjes", "eta", "lambda", "xi", "zeta-derivs")
# family -> (first index, largest supported index at digits <= MAX_DIGITS);
# zeta0 is held lower by the error growth of Gamma^(m)(1) and eta_m
FAMILIES = {"gamma": (0, 20), "eta": (0, 20), "sigma": (1, 20),
            "lambda": (1, 20), "xi1": (1, 12), "zeta0": (0, 10)}

# step -> (per index, fixed): a step at index n carries per_index * n + fixed
# decimal digits beyond ctx.working_dps, for the reason given.  Rows with the
# same numbers stay apart, since their reasons differ.
_BUDGET = {
    "gamma": (1, 15),  # shifted sum and tail, each ~log^(n+1)(U)/(n+1), cancel to O(1)
    "zeta_int": (0, 10),  # CRVZ terms N and fixed-point bits: d > 10^(dps+10) bounds truncation and floors
    "zeta_atom": (0, 25),  # one zeta(k) per context for its widest readers: sigma's cancellation, psi^(20)(3/2) at n + 5
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


def family(kind: str) -> tuple:
    """(first index, largest supported index) of a constant family."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown table kind {kind!r}")
    return FAMILIES[kind]


def dps_to_prec(dps: int) -> int:
    """Bits that hold dps decimal digits, as mpmath counts them: its own
    working precision at mp.dps = dps."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def extra_digits(step: str, n: int = 0) -> int:
    """Decimal digits a `step` at index n carries beyond ctx.working_dps."""
    per_index, fixed = _BUDGET[step]
    return per_index * n + fixed
