"""Generalized Stieltjes constants gamma_n(u) from alternating binomial sums.

The computational core is the globally convergent double series

    gamma_n(u) = -1/(n+1) sum_{i>=0} 1/(i+1)
                 sum_{j=0}^{i} C(i,j) (-1)^j log^(n+1)(u+j)

with the convention log^0 1 = 1.  This is the canonical source of gamma =
gamma_0(1) and of every gamma_n used elsewhere in the package.

Direct summation at small u is useless: the outer terms decay only like
(log i)^n / (i^(u+1) log i), so at u = 1 no realistic cap reaches even ten
digits.  The inner alternating sums, however, decay like i^(-u), so the
series converges geometrically fast once u is large.  We therefore shift the
argument with the exact identity

    gamma_n(u) = log^n(u)/u + gamma_n(u+1)

(the Laurent-coefficient image of zeta(s,u) - zeta(s,u+1) = u^(-s), and for
n = 0 just the digamma recurrence) until the argument is comparable to the
number of working digits, then run the double series there.  The series
machinery itself is untouched: exact integer binomials, inner sums carried
with ~i extra bits at outer index i to absorb the 2^i cancellation, and a
consecutive-small-terms stopping rule with a hard cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .precision import MAX_DIGITS, ConvergenceError, PrecisionContext, to_mpf

GAMMA_TAG = "hasse-2.8"

# below-threshold outer terms in a row before the double series may stop;
# one small term alone could be a sign change of a non-monotone tail
CONSECUTIVE_SMALL = 4

# family -> (first index, largest supported index at digits <= MAX_DIGITS);
# zeta0 is held lower by the error growth of Gamma^(m)(1) and eta_m
FAMILIES = {"gamma": (0, 20), "eta": (0, 20), "sigma": (1, 20),
            "lambda": (1, 20), "xi1": (1, 12), "zeta0": (0, 10)}


def family(kind: str) -> tuple:
    """(first index, largest supported index) of a constant family."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown table kind {kind!r}")
    return FAMILIES[kind]


@dataclass(frozen=True)
class ConstantTable:
    """An indexed constant family with a method tag per entry.

    values[i] (an mpf) and methods[i] belong to index start + i, where
    start is the family's first index in FAMILIES; every entry names the
    formula route that produced it.  Iterating yields (n, value, method).
    A value that is not finite raises ValueError, so none is ever printed.
    """

    kind: str
    values: tuple
    methods: tuple
    digits: int

    def __post_init__(self):
        family(self.kind)
        if len(self.values) != len(self.methods):
            raise ValueError("a table needs one method tag per value")
        if not all(self.methods):
            raise ValueError("every table entry needs a method tag")
        if not all(mp.isfinite(v) for v in self.values):
            raise ValueError(f"every {self.kind} table value must be finite")

    @classmethod
    def of(cls, kind: str, values, method, ctx: PrecisionContext) -> "ConstantTable":
        """A `kind` table of a list of raw mpf values from the family's first
        index on; `method` is one tag for every entry or a list of per-entry
        tags."""
        tags = [method] * len(values) if isinstance(method, str) else method
        return cls(kind, tuple(values), tuple(tags), ctx.digits)

    @property
    def start(self) -> int:
        return FAMILIES[self.kind][0]

    @property
    def max_n(self) -> int:
        return self.start + len(self.values) - 1

    def mpf(self, n: int):
        """The value at index n."""
        if not self.start <= n <= self.max_n:
            raise ValueError(
                f"{self.kind} table covers {self.start}..{self.max_n}, not {n}"
            )
        return self.values[n - self.start]

    def __iter__(self):
        return zip(itertools.count(self.start), self.values, self.methods)


def require(table, kind: str, max_n: int, who: str):
    """Raise ValueError unless `table` is a `kind` table reaching index max_n."""
    if table is None:
        raise ValueError(f"{who} needs a {kind} table")
    if table.kind != kind:
        raise ValueError(f"{who} needs a {kind} table, got {table.kind}")
    if table.max_n < max_n:
        raise ValueError(
            f"{who} needs {kind} entries up to {max_n}, table stops at {table.max_n}"
        )


def alternating_binomial_sum(values):
    """sum_j C(i,j) (-1)^j values[j] with i = len(values) - 1.

    Exact when the values are exact; this is the inner kernel of the double
    series, exposed so its normalization (the constant-1 case collapses to a
    Kronecker delta in i) can be checked directly.
    """
    total = 0
    for j, v in enumerate(values):
        c = math.comb(len(values) - 1, j)
        total = total + (c * v if j % 2 == 0 else -(c * v))
    return total


def _log_power(x, n: int):
    """log^n x with the convention log^0 = 1 (in particular log^0 1 = 1)."""
    if n == 0:
        return mp.mpf(1)
    return mp.log(x) ** n


def _hasse_tail(n: int, big_u, ctx: PrecisionContext):
    """gamma_n(big_u) by the double series, assuming big_u is large enough
    that the outer terms fall below ctx.series_tol within the cap.

    Runs under the caller's precision; log powers and inner sums are carried
    with extra bits that grow with the outer index, since the inner sum at
    index i cancels from C(i, i/2) ~ 2^i down to about i^(-u).
    """
    tol = ctx.series_tol
    cap = 10 * (ctx.digits + ctx.guard_digits) * (n + 2)
    base_prec = mp.prec

    def log_powers(count, prec):
        with mp.workprec(prec):
            return [_log_power(big_u + j, n + 1) for j in range(count)]

    alloc = min(cap + 1, 192)
    data_prec = base_prec + alloc + 64
    powers = log_powers(alloc, data_prec)

    total = mp.mpf(0)
    small_run = 0
    row = [1]  # exact binomial row C(i, .)
    i = 0
    while True:
        if i >= alloc:
            alloc = min(cap + 1, alloc * 2)
            data_prec = base_prec + alloc + 64
            powers = log_powers(alloc, data_prec)
        with mp.workprec(data_prec):
            inner = mp.mpf(0)
            for j, c in enumerate(row):
                term = c * powers[j]
                inner = inner + term if j % 2 == 0 else inner - term
            outer_term = inner / (i + 1)
        total += outer_term
        if abs(outer_term) < tol:
            small_run += 1
            if small_run >= CONSECUTIVE_SMALL:
                return -total / (n + 1)
        else:
            small_run = 0
        i += 1
        if i > cap:
            raise ConvergenceError(
                f"gamma_{n}({mp.nstr(big_u, 8)}) did not converge within "
                f"{cap} outer terms",
                partial=-total / (n + 1),
                index=i,
            )
        row = [1] + [row[k] + row[k + 1] for k in range(len(row) - 1)] + [1]


def _work_dps(n: int, ctx: PrecisionContext) -> int:
    # headroom: the shifted partial sum and the series value at the shifted
    # argument are both ~log^(n+1)(shift)/(n+1) and cancel to an O(1) result
    return ctx.working_dps + n + 15


def stieltjes_gamma(n: int, u, ctx: PrecisionContext) -> mpf:
    """gamma_n(u) accurate to ctx.digits digits; gamma_n(1) = gamma_n.

    u accepts int, Fraction, mpf, or a decimal string; a Python float is
    taken at its exact binary value (pass a string for decimal semantics).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("stieltjes index must be an integer >= 0")
    _, cap = FAMILIES["gamma"]
    if n > cap:
        raise ValueError(f"supported range is n <= {cap}")
    if ctx.digits > MAX_DIGITS:
        raise ValueError(f"supported range is digits <= {MAX_DIGITS}")
    with mp.workdps(_work_dps(n, ctx)):
        u_mp = to_mpf(u)
    if not (mp.isfinite(u_mp) and u_mp > 0):
        raise ValueError("u must be a finite real > 0")
    return _gamma_memo(n, u_mp, ctx)


@lru_cache(maxsize=4096)
def _gamma_memo(n: int, u_mp, ctx: PrecisionContext) -> mpf:
    """gamma_n(u_mp), memoised: u_mp is u converted at the working precision,
    so 1, "1", Fraction(1), mpf(1) and 1.0 share an entry, while contexts
    that differ in any field stay separate computations."""
    with mp.workdps(_work_dps(n, ctx)):
        target = ctx.working_dps + 2
        shift = max(0, int(mp.ceil(target - u_mp)))
        direct = mp.mpf(0)
        for m in range(shift):
            x = u_mp + m
            direct += _log_power(x, n) / x
        tail = _hasse_tail(n, u_mp + shift, ctx)
        return +(direct + tail)


def stieltjes_table(max_n: int, ctx: PrecisionContext, u=1) -> ConstantTable:
    """gamma_0(u) .. gamma_max_n(u) as a table (u defaults to 1)."""
    _, cap = FAMILIES["gamma"]
    if not isinstance(max_n, int) or not 0 <= max_n <= cap:
        raise ValueError(f"need 0 <= max_n <= {cap}")
    values = []
    for n in range(max_n + 1):
        try:
            values.append(stieltjes_gamma(n, u, ctx))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"gamma table failed at index {n}: {exc}",
                partial=exc.partial,
                index=n,
            ) from exc
    return ConstantTable.of("gamma", values, GAMMA_TAG, ctx)
