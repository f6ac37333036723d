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
number of working digits, then run the double series there.

The shift target (row gamma_shift) does not depend on n, so every gamma_n(u)
at one (u, context) runs its series at the same shifted argument U, formed
once at the working precision of the largest n.  One memoised row per
(u, context) holds log(U + j) as integers scaled by 2^P, with P the bits of
that precision plus alloc + 64, so the inner sums at outer index i < alloc
keep their ~i extra bits through the 2^i cancellation.  log^(n+1) comes
from log^n by an integer multiply and shift; the inner sums are exact
integer differences along one growing difference diagonal; each n keeps
its own consecutive-small-terms stopping rule and hard cap, and its tail
is converted to mpf once.
The row also keeps every finished gamma_n(u), so it is the one place a
gamma value is remembered; a series that fails to converge stores nothing.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .precision import ConvergenceError, PrecisionContext, check_index, extra_digits, to_mpf

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
    An empty table, or a value that is not finite, raises ValueError, so
    neither is ever printed.
    """

    kind: str
    values: tuple
    methods: tuple
    digits: int

    def __post_init__(self):
        family(self.kind)
        if not self.values:
            raise ValueError(f"a {self.kind} table needs at least one value")
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
        check_index(n, f"a {self.kind} table index", self.start, self.max_n)
        return self.values[n - self.start]

    def __iter__(self):
        return zip(itertools.count(self.start), self.values, self.methods)


def require(table, kind: str, who: str, max_n: int | None = None):
    """Raise ValueError unless `table` is a `kind` table, reaching index
    max_n when one is given."""
    if table is None:
        raise ValueError(f"{who} needs a {kind} table")
    if table.kind != kind:
        raise ValueError(f"{who} needs a {kind} table, got {table.kind}")
    if max_n is not None and table.max_n < max_n:
        raise ValueError(
            f"{who} needs {kind} entries up to {max_n}, table stops at {table.max_n}"
        )


def alternating_binomial_sums(values):
    """Yield sum_{j<=i} C(i,j) (-1)^j values[j] for i = 0, 1, ... in turn.

    The i-th sum is (-1)^i d^i v_0, the last entry of the difference
    diagonal [v_i, d v_(i-1), ..., d^i v_0], which grows by one value per
    step through subtractions alone; so the sums are exact when the values
    are, and those of the constant 1 are a Kronecker delta in i.
    """
    diagonal = []
    for i, v in enumerate(values):
        diagonal = list(itertools.accumulate(diagonal, operator.sub, initial=v))
        yield -diagonal[-1] if i % 2 else diagonal[-1]


class _GammaRow:
    """Every gamma_n(u) at one u and one context.

    u is shifted once to big_u, at the working precision of the largest n.
    The row holds log(big_u + j) for j < alloc and the latest power list as
    integers scaled by 2^prec, and the finished gamma_n(u) of every n summed
    so far.  When a series needs more terms, alloc doubles and the logs are
    recomputed at the larger prec.
    """

    def __init__(self, u_mp, ctx: PrecisionContext):
        self.u_mp = u_mp
        self.ctx = ctx
        work_dps = ctx.working_dps + extra_digits("gamma", FAMILIES["gamma"][1])
        with mp.workdps(work_dps):
            target = ctx.working_dps + extra_digits("gamma_shift")
            self.shift = max(0, int(mp.ceil(target - u_mp)))
            self.big_u = u_mp + self.shift
        self.base_prec = dps_to_prec(work_dps)
        self.values = {}  # n -> gamma_n(u)
        self._allocate(192)

    def _allocate(self, alloc: int) -> None:
        self.alloc = alloc
        self.prec = self.base_prec + alloc + 64
        with mp.workprec(self.prec + 16):
            self.logs = [
                int(mp.ldexp(mp.log(self.big_u + j), self.prec)) for j in range(alloc)
            ]
        self.power, self.powers = 1, self.logs

    def _powers(self, k: int) -> list:
        """log^k(big_u + j) for j < alloc, scaled by 2^prec."""
        if k < self.power:
            self.power, self.powers = 1, self.logs
        while self.power < k:
            self.powers = [(p * q) >> self.prec for p, q in zip(self.powers, self.logs)]
            self.power += 1
        return self.powers

    def gamma(self, n: int) -> mpf:
        """gamma_n(u): the shifted terms plus the double series at big_u."""
        if n not in self.values:
            with mp.workdps(self.ctx.working_dps + extra_digits("gamma", n)):
                direct = mp.mpf(0)
                for m in range(self.shift):
                    x = self.u_mp + m
                    direct += mp.log(x) ** n / x
                tail = self._tail(n)
                self.values[n] = +(direct + tail)
        return self.values[n]

    def _tail(self, n: int) -> mpf:
        """gamma_n(big_u) by the double series, summed in integers scaled by
        2^prec and converted at the caller's precision."""
        limit = 10 ** (self.ctx.digits + self.ctx.guard_digits)  # 1 / threshold
        cap = 10 * (self.ctx.digits + self.ctx.guard_digits) * (n + 2)
        sums = alternating_binomial_sums(self._powers(n + 1))
        total = 0
        small_run = 0
        i = 0
        while True:
            if i >= self.alloc:
                old_prec = self.prec
                self._allocate(min(cap + 1, self.alloc * 2))
                total <<= self.prec - old_prec
                # every inner sum runs over one power list: redo the first i
                sums = itertools.islice(alternating_binomial_sums(self._powers(n + 1)), i, None)
            inner = next(sums)
            total += inner // (i + 1)
            # the outer term inner / (2^prec (i+1)) is below 10^-(digits + guard)
            if abs(inner) * limit < (i + 1) << self.prec:
                small_run += 1
                if small_run >= CONSECUTIVE_SMALL:
                    return -mp.ldexp(total, -self.prec) / (n + 1)
            else:
                small_run = 0
            i += 1
            if i > cap:
                raise ConvergenceError(
                    f"gamma_{n}({mp.nstr(self.big_u, 8)}) did not converge within "
                    f"{cap} outer terms",
                    partial=-mp.ldexp(total, -self.prec) / (n + 1),
                    index=i,
                )


# one row per (u at the working precision of the largest n, ctx), so 1, "1",
# Fraction(1), mpf(1) and 1.0 share a row, while contexts that differ in any
# field stay separate computations
_gamma_row = lru_cache(maxsize=32)(_GammaRow)


def stieltjes_gamma(n: int, u, ctx: PrecisionContext) -> mpf:
    """gamma_n(u) accurate to ctx.digits digits; gamma_n(1) = gamma_n.

    u accepts int, Fraction, mpf, or a decimal string; a Python float is
    taken at its exact binary value (pass a string for decimal semantics).
    """
    start, cap = FAMILIES["gamma"]
    check_index(n, "the stieltjes index n", start, cap)
    with mp.workdps(ctx.working_dps + extra_digits("gamma", cap)):
        u_mp = to_mpf(u)
    if not (mp.isfinite(u_mp) and u_mp > 0):
        raise ValueError("u must be a finite real > 0")
    return _gamma_row(u_mp, ctx).gamma(n)


def stieltjes_table(max_n: int, ctx: PrecisionContext, u=1) -> ConstantTable:
    """gamma_0(u) .. gamma_max_n(u) as a table (u defaults to 1)."""
    check_index(max_n, "max_n", *FAMILIES["gamma"])
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
