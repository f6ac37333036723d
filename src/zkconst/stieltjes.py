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
n = 0 just the digamma recurrence) up to an argument U, then run the double
series there.

The target U follows from the convergence bound.  At U the inner sum of
outer index i is, for n = 0,

    -integral_0^1 v^(U-1) (1-v)^i dv / (-log v),

and since -log v >= 1 - v it is at most B(U, i) = Gamma(U) Gamma(i) /
Gamma(U+i) for i >= 1, which is about Gamma(U) i^(-U); log^(n+1) adds only
powers of log.  With D the working digits it falls below 10^-D once
U log i > log Gamma(U) + D ln 10, that is, by Stirling, once
log i > log U - 1 + D ln 10 / U.  The right side is least, at i ~ U, for
U = D ln 10, so the target is ceil(D ln 10): 162 at 60 digits with 10 guard
digits, where the series takes 126 outer terms.  A smaller U
needs more outer terms (U = D + 2 needs about 250 at 60 digits), a larger
one more outer and shifted terms.

The target does not depend on n, so every gamma_n(u) at one (u, context)
runs its series at the same U.  One memoised row per (u, context) holds, as
integers scaled by 2^P, log(u + k) for every k < shift + alloc (the shifted
terms' logs, then the tail's log(U + j)) and one list of terms at the latest
power.  The bound is the series' only stopping
rule: the last outer index I = alloc - 1 is the first i at which the bound
B(U, i) log^21(U + i) of the largest n falls below 10^-(digits + guard):
alloc is 90 at 30 digits and 126 at 60, but 5 at u = 1e30 and 60 digits,
where U = u and each term is about U times the next.  The bound is summed
in logs, since U may be 1e100000000.  alloc is never more than
20 (digits + guard) + 1; a series whose last outer term is not below the
threshold raises ConvergenceError.  P is the bits of the working precision
of the largest n plus alloc + 64, so the sum keeps its ~I extra bits
through the 2^I cancellation of its weights.  Each log is a fixed-point
a / 2^bits with 32 guard bits, from the integer recurrence

    log(x + 1) = log x + 2 atanh(1/(2x + 1)),  atanh y = y + y^3/3 + ...

At an integer u no larger than the row, log m comes for every integer m up
to u + shift + alloc from a smallest-prime-factor sieve: each prime p takes
one step, log p = log(p - 1) + 2 atanh(1/(2p - 1)), and each composite is
the sum log p + log(m/p).  Every other u takes one head log and the
recurrence from x = u, or from u + 1 with a second head log when u < 1,
where the atanh series converges too slowly; a head log of x = f 2^t,
1 <= f < 2, is 2 atanh((f - 1)/(f + 1)) + 2 t atanh(1/3).  At y = 1/q each
term is the last divided by the small q^2, the exact floor of 2^bits / q^j.  Past
x = 2^(2 bits) no step moves a log by 2^-bits, so x is clamped there.  Every
integer of the row thus keeps the size of its precision, whatever the
exponent of u, except 1/u of a u < 1: that one term, log^n(u)/u, is divided
by u on its own.  The shifted terms log^k(u + m)/(u + m) and the tail's
log^(k+1)(U + j) are running products from the reciprocals and the logs:
one integer multiply and shift per term per power, restarted for an n
below the latest power.  The shifted sum of each n is the sum of its terms,
and its tail swaps the double series' two sums into one dot product of its
terms with the exact weights (-1)^j D w_j, w_j = sum_{i=j}^{I} C(i,j)/(i+1)
and D = lcm(1, ..., I + 1), divided by D once; the shifted sum and the
tail meet in integers and are rounded once.
The row also keeps every finished gamma_n(u), so it is the one place a
gamma value is remembered; a series that fails to converge stores nothing.

The package runs on the standard library alone, in one number type: u,
each gamma_n(u) and every value above them is a Binary, rounded (_round,
_add) as mpf arithmetic would round it, so bit for bit the mpf value.
Binary arithmetic rounds the same way at the one precision workdps sets,
and raises outside it.  A number from outside enters through Binary.of,
exactly (a table value, a value to print; the one reader of an mpf's
bits), or through rounded, as mpf(x) rounds it (a report side, a gamma
row's u); both refuse an inf, a nan and no number with ValueError.  A u
given as a string, --u or a library argument alike, is read once, by _row_u,
in mpmath's syntax at the row's precision, and every decimal the package
writes comes from decimal_str, correctly rounded in mpmath's nstr layout.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import operator
import sys
from functools import lru_cache

from .precision import (
    FAMILIES,
    ConvergenceError,
    Frozen,
    PrecisionContext,
    check_index,
    dps_to_prec,
    family,
)

GAMMA_TAG = "hasse-2.8"


_prec = None  # the bits Binary arithmetic rounds to, while workdps sets them


@contextlib.contextmanager
def workdps(dps: int):
    """Round Binary arithmetic inside to dps digits, as mp.workdps(dps)
    rounds mpf arithmetic: to dps_to_prec(dps) bits."""
    global _prec
    saved, _prec = _prec, dps_to_prec(dps)
    try:
        yield
    finally:
        _prec = saved


def _no_prec():
    """Raise: outside workdps, Binary arithmetic would round to a precision nobody chose."""
    raise RuntimeError("Binary arithmetic runs only inside workdps")


def _operand(other) -> tuple:
    """(man, exp) of a Binary or an int, else (None, None): any other operand,
    an mpf among them, is left to its reflected operator."""
    if isinstance(other, Binary):
        return other.man, other.exp
    try:
        return operator.index(other), 0
    except TypeError:
        return None, None


def _comparison(test):
    """test(self, other), exact: the difference rounded to 2 bits keeps its sign."""
    def method(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else test(_sum(self.man, self.exp, -n, f, 2).man, 0)
    return method


class Binary(Frozen):
    """The exact number man * 2^exp, man odd or (0, 0).  mpmath reads it as
    an mpf, through _mpf_, and Fraction as the Rational it is.

    Its arithmetic is mpf arithmetic: +, -, * and / with a Binary or an
    int, unary - and +, abs and ** with an int exponent each round once to
    the precision workdps sets, ties to even, as mpmath rounds them, so each
    result is the mpf's bit for bit; outside workdps they raise
    RuntimeError.  An mpf operand is mpmath's: mpf's reflected operator
    takes over, before any precision is read.  Comparisons with a Binary or
    an int are exact, and a Binary hashes as the int or Fraction it equals.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        # every rounding makes a Binary: set through the slots, not _set
        if not man & 1:  # only an even mantissa has trailing zeros
            zeros = (man & -man).bit_length() - 1
            man, exp = (man >> zeros, exp + zeros) if man else (0, 0)
        _set_man(self, man)
        _set_exp(self, exp)

    @classmethod
    def of(cls, x) -> "Binary":
        """x, a Binary or a finite mpf, as the Binary it is: the one reader
        of an mpf's bits.  An mpf inf or nan (mpmath's (0, 0, exp != 0)),
        or anything else, raises ValueError."""
        if isinstance(x, Binary):
            return x
        try:
            sign, man, exp, _ = x._mpf_
        except AttributeError:
            raise ValueError(f"a value must be a Binary or an mpf, not {x!r}") from None
        if not man and exp:
            raise ValueError(f"a value must be finite, not {x}")
        return cls(-man if sign else man, exp)

    @property
    def _mpf_(self) -> tuple:
        return int(self.man < 0), abs(self.man), self.exp, self.man.bit_length()

    @property
    def numerator(self) -> int:
        return self.man << max(self.exp, 0)

    @property
    def denominator(self) -> int:
        return 1 << max(-self.exp, 0)

    # (n, f) is the other operand, and _prec (never 0) is read only once it is one
    def __add__(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else _sum(self.man, self.exp, n, f, _prec or _no_prec())

    def __sub__(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else _sum(self.man, self.exp, -n, f, _prec or _no_prec())

    def __rsub__(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else _sum(n, f, -self.man, self.exp, _prec or _no_prec())

    def __mul__(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else _round(
            self.man * n, 1, self.exp + f, _prec or _no_prec())

    def __truediv__(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else _round(
            self.man, n, self.exp - f, _prec or _no_prec())

    def __rtruediv__(self, other):
        n, f = _operand(other)
        return NotImplemented if n is None else _round(
            n, self.man, f - self.exp, _prec or _no_prec())

    __radd__, __rmul__ = __add__, __mul__
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)
    __eq__ = _comparison(operator.eq)

    def __hash__(self):
        """The hash of the rational man 2^exp, as int and Fraction hash it."""
        modulus = sys.hash_info.modulus
        value = abs(self.man) * pow(2, self.exp, modulus) % modulus
        value = -value if self.man < 0 else value
        return -2 if value == -1 else value

    def __pow__(self, n):
        """self^n for an int n as mpmath takes it while the exact power has
        fewer than 1000 bits: rounded once, and for n < -1 rounded 5 bits
        wider and then divided into 1."""
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        prec = _prec or _no_prec()
        if n >= 0:
            return _round(self.man**n, 1, self.exp * n, prec)
        power = self if n == -1 else _round(self.man**-n, 1, self.exp * -n, prec + 5)
        return _round(1, power.man, -power.exp, prec)

    def __neg__(self) -> "Binary":
        return _round(-self.man, 1, self.exp, _prec or _no_prec())

    def __pos__(self) -> "Binary":
        return _round(self.man, 1, self.exp, _prec or _no_prec())

    def __abs__(self) -> "Binary":
        return _round(abs(self.man), 1, self.exp, _prec or _no_prec())

    def __float__(self) -> float:
        return self.numerator / self.denominator


_set_man, _set_exp = Binary.man.__set__, Binary.exp.__set__
numbers.Rational.register(Binary)


def rounded(x) -> Binary:
    """x rounded to the precision workdps sets, as mpf(x) rounds it: a float
    or a Rational as mpf(numerator) / denominator, anything else as Binary.of
    reads it.  An inf, a nan or no real number raises ValueError."""
    if isinstance(x, Binary) or not isinstance(x, (float, numbers.Rational)):
        return +Binary.of(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"a value must be finite, not {x}")
    num, den = x.as_integer_ratio()
    return +Binary(num) / den


def _round(p: int, q: int, exp: int, prec: int) -> Binary:
    """p / q * 2^exp rounded to prec bits, ties to even, as mpmath rounds an
    integer, an exact quotient or an exact sum to its working precision."""
    if q == 1:  # no quotient: drop the bits past prec
        drop = p.bit_length() - prec
        if drop <= 0:
            return Binary(p, exp)
        size = -p if p < 0 else p
        quot, low, half = size >> drop, size & ((1 << drop) - 1), 1 << (drop - 1)
        if low > half or low == half and quot & 1:
            quot += 1
        return Binary(-quot if p < 0 else quot, exp + drop)
    p, q = (-p, -q) if q < 0 else (p, q)
    shift = prec + 2 + q.bit_length() - abs(p).bit_length()
    quot, rem = divmod(abs(p) << max(shift, 0), q << max(-shift, 0))
    if not quot:  # p is 0
        return Binary(0)
    drop = quot.bit_length() - prec  # 2 or 3
    low, quot, half = quot & ((1 << drop) - 1), quot >> drop, 1 << (drop - 1)
    if low > half or low == half and (rem or quot & 1):
        quot += 1
    return Binary(-quot if p < 0 else quot, exp - shift + drop)


def _add(a: Binary, b: Binary, prec: int) -> Binary:
    """a + b rounded as _round rounds."""
    return _sum(a.man, a.exp, b.man, b.exp, prec)


def _sum(m: int, e: int, n: int, f: int, prec: int) -> Binary:
    """m 2^e + n 2^f rounded as _round rounds; a term wholly below the
    other's last bit and rounding bit counts only by its sign."""
    if not (m and n):  # 0 is (0, 0)
        return _round(m + n, 1, e + f, prec)
    top, other = e + m.bit_length(), f + n.bit_length()
    if top < other:
        m, e, n, f, top, other = n, f, m, e, other, top
    below = min(e, top - prec - 3)
    if other < below:
        n, f = -1 if n < 0 else 1, below - 1
    low = e if e < f else f
    return _round((m << e - low) + (n << f - low), 1, low, prec)


def _times_ten(man: int, exp: int, k: int, bits: int) -> tuple:
    """(num, den, e) with num / den * 2^e = man 2^exp 10^k: exact for
    |k| <= 400 (mpmath's cutoff; 5^400 < 2^929), else within a relative
    2^-bits, with 5^|k| cut after each square and multiply."""
    if abs(k) <= 400:  # a cut below would cut nothing
        five, e5 = 5 ** abs(k), 0
    else:
        width, five, e5 = bits + abs(k).bit_length() + 1, 1, 0
        for digit in bin(abs(k))[2:]:
            five, e5 = five * five * (5 if digit == "1" else 1), 2 * e5
            cut = max(five.bit_length() - width, 0)
            five, e5 = five >> cut, e5 + cut
    return (man * five, 1, exp + k + e5) if k >= 0 else (man, five, exp + k - e5)


def _from_decimal(raw: str, prec: int):
    """raw as mpf(raw) reads it at prec bits: inf or nan (None), a ratio p/q
    of integers or a Python float literal, as an exact decimal, any trailing
    l dropped.  What mpmath refuses raises ValueError or ZeroDivisionError."""
    x = raw.lower().strip()
    if x in ("inf", "+inf", "-inf", "nan"):
        return None
    if "/" in x:
        p, q = x.split("/")
        return _round(int(p.rstrip("l")), int(q.rstrip("l")), 0, prec)
    x = x.rstrip("l")
    float(x)  # mpmath's syntax check
    mantissa, _, exp = x.partition("e")
    whole, _, frac = mantissa.partition(".")
    frac = frac.rstrip("0")
    return _round(*_times_ten(int(whole + frac), 0, int(exp or 0) - len(frac), prec + 64), prec)


def decimal_str(x, digits: int, strip_zeros: bool = True) -> str:
    """x, a Binary or an mpf, to `digits` significant digits, correctly
    rounded (half up; past 10^+-400 to 64 bits below the digits) in nstr's
    layout: fixed point when min(-(digits // 3), -5) < e < digits for the
    leading digit's exponent e, else d.ddde+-N.  Any other x raises
    ValueError, as Binary.of does."""
    x = Binary.of(x)
    if not x.man:
        return "0.0"
    man, exp = abs(x.man), x.exp
    scale = digits - math.floor((exp + man.bit_length() - 1) * math.log10(2))
    num, den, shift = _times_ten(man, exp, scale, 4 * digits + 64)
    den <<= max(-shift, 0)
    quot, rem = divmod(num << max(shift, 0), den)
    drop = len(str(quot)) - digits  # 1 or 2, or 0 when the float estimate was high
    quot, low = divmod(quot, 10**drop)
    text = str(quot + (2 * (low * den + rem) >= den * 10**drop))
    lead = len(text) - 1 + drop - scale  # the exponent of the leading digit
    text, split = text[:digits], 1  # a carry to 10^digits only adds a 0
    if min(-(digits // 3), -5) < lead < digits:
        split, text, lead = max(lead, 0) + 1, "0" * -min(lead, 0) + text, 0
    text = text[:split] + "." + text[split:]
    if strip_zeros:
        text = text.rstrip("0")
        text += "0" if text.endswith(".") else ""
    return "-" * (x.man < 0) + text + (f"e{lead:+d}" if lead else "")


class ConstantTable(Frozen):
    """An indexed constant family with a method tag per entry, computed
    under the PrecisionContext ctx.

    values[i] and methods[i] belong to index start + i, where start is the
    family's first index in FAMILIES; every entry names the formula route
    that produced it.  values hold the builder's values as the exact Binary
    each is (Binary.of), whether it handed in a Binary or an mpf, and
    table[n] is one.  rows() prints ctx.digits digits, and every map or
    route that reads the table computes under ctx.  An empty table, one
    past its family's cap, or a value that is not a finite Binary or mpf,
    raises ValueError, so none is ever printed.
    """

    __slots__ = ("kind", "values", "methods", "ctx")

    def __init__(self, kind: str, values: tuple, methods: tuple, ctx: PrecisionContext):
        start = family(kind)[0]
        if not values:
            raise ValueError(f"a {kind} table needs at least one value")
        _check_last(kind, start + len(values) - 1)
        if len(values) != len(methods):
            raise ValueError("a table needs one method tag per value")
        if not all(methods):
            raise ValueError("every table entry needs a method tag")
        values = tuple(map(Binary.of, values))
        self._set(kind=kind, values=values, methods=methods, ctx=ctx)

    @classmethod
    def of(cls, kind: str, values, method, ctx: PrecisionContext) -> "ConstantTable":
        """A `kind` table of a list of values from the family's first index
        on; `method` is one tag for every entry or a list of per-entry tags."""
        tags = [method] * len(values) if isinstance(method, str) else method
        return cls(kind, tuple(values), tuple(tags), ctx)

    @property
    def start(self) -> int:
        return FAMILIES[self.kind][0]

    @property
    def max_n(self) -> int:
        return self.start + len(self.values) - 1

    def __getitem__(self, n: int) -> Binary:
        """The value at index n."""
        check_index(n, f"a {self.kind} table index", self.start, self.max_n)
        return self.values[n - self.start]

    def rows(self):
        """(n, value as a decimal string of ctx.digits significant digits,
        method) for each entry: the table as the CLI prints it."""
        for n, value, method in zip(itertools.count(self.start), self.values, self.methods):
            yield n, decimal_str(value, self.ctx.digits, strip_zeros=False), method


def _check_last(kind: str, last: int) -> None:
    """ValueError unless a `kind` table may end at index `last`."""
    check_index(last, f"the last index of a {kind} table", *family(kind))


def require(table, kind: str, who: str, max_n: int | None = None) -> PrecisionContext:
    """The context of `table`, which its reader computes under; ValueError
    unless `table` is a `kind` table, reaching index max_n when one is given."""
    article = "an" if kind[0] in "aeiou" else "a"
    if not isinstance(table, ConstantTable):
        raise ValueError(f"{who} needs {article} {kind} table")
    if table.kind != kind:
        raise ValueError(f"{who} needs {article} {kind} table, got {table.kind}")
    if max_n is not None and table.max_n < max_n:
        raise ValueError(
            f"{who} needs {kind} entries up to {max_n}, table stops at {table.max_n}"
        )
    return table.ctx


def _two_atanh(p: int, q: int, bits: int) -> int:
    """2 atanh(p/q), scaled by 2^bits, for 0 <= p/q < 1, by
    atanh y = y + y^3/3 + y^5/5 + ... in integers; off by at most twice its
    number of terms in the last place."""
    term = (p << bits) // q
    square = q * q if p == 1 else (p * p << bits) // (q * q)
    acc, j = term, 1
    while term:  # at p = 1 each term is the exact floor of 2^bits / q^j
        term = term // square if p == 1 else (term * square) >> bits
        j += 2
        acc += term // j
    return 2 * acc


def _log_chain(log_x: int, a: int, count: int, bits: int) -> list:
    """log(x + k) for k < count, scaled by 2^bits, from log_x, the scaled
    log x of x = a / 2^bits >= 1, by log(x + 1) = log x + 2 atanh(1 / (2x + 1))."""
    logs = [log_x]
    for k in range(count - 1):
        logs.append(logs[-1] + _two_atanh(1 << bits, 2 * a + ((2 * k + 1) << bits), bits))
    return logs


def _log(x: Binary, bits: int) -> int:
    """log x of a Binary x > 0, scaled by 2^bits and truncated toward 0:
    with x = f 2^t, 1 <= f < 2, log x = 2 atanh((f - 1)/(f + 1)) +
    t 2 atanh(1/3), summed with 32 guard bits more than t has."""
    t = x.exp + x.man.bit_length() - 1
    one, guard = 1 << x.man.bit_length() - 1, 32 + t.bit_length()
    total = _two_atanh(x.man - one, x.man + one, bits + guard) + t * _two_atanh(1, 3, bits + guard)
    return total >> guard if total >= 0 else -(-total >> guard)


def _integer_logs(u: int, count: int, bits: int) -> list:
    """log(u + k) for k < count, scaled by 2^bits, for an integer u >= 1,
    from a smallest-prime-factor sieve: each prime p takes one atanh step,
    log p = log(p - 1) + 2 atanh(1 / (2p - 1)), and each composite m is the
    sum log p + log(m / p) of its smallest prime factor p and its cofactor."""
    top = u + count
    spf = list(range(top))
    for p in range(2, math.isqrt(top - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, top, p):
                spf[m] = min(spf[m], p)
    logs = [0, 0]  # log 1 at index 1; index 0 is never read
    for m in range(2, top):
        p = spf[m]
        logs.append(logs[m - 1] + _two_atanh(1, 2 * m - 1, bits) if p == m
                    else logs[p] + logs[m // p])
    return logs[u:]


def _series_length(log_u: float, stop_digits: int, max_n: int) -> int:
    """Outer terms the double series at U = e^log_u takes for every
    n <= max_n: one more than the first i >= 1 at which
    B(U, i) log^(max_n+1)(U + i) falls below 10^-stop_digits, so that i is
    the last outer index.  B(U, 1) = 1/U and
    B(U, i+1) = B(U, i) i/(U + i) are carried as logs in floats, since U
    may lie far past float range."""
    def log_x(i):  # log(U + i)
        return log_u + math.log1p(i * math.exp(-log_u))

    i, log_b, log_stop = 1, -log_u, -stop_digits * math.log(10)
    while log_b + (max_n + 1) * math.log(log_x(i)) >= log_stop:
        log_b += math.log(i) - log_x(i)
        i += 1
    return i + 1


@lru_cache(maxsize=32)
def _tail_weights(length: int) -> tuple:
    """(D, [(-1)^j D w_j], [(-1)^j C(I, j)]) for j <= I = length - 1, where
    w_j = sum_{i=j}^{I} C(i,j)/(i+1) and D = lcm(1, ..., I + 1), so that
    sum_{i<=I} sum_{j<=i} C(i,j) (-1)^j v_j / (i+1) = sum_j (-1)^j D w_j v_j / D.

    The w_j come in one pass, from their generating function
    sum_j w_j x^j = sum_{i<=I} (1+x)^i/(i+1).  Its constant term is
    w_0 = H_(I+1).  Times (1 + x), its coefficient of x^k, k >= 1, is
    w_k + w_(k-1) = sum_i C(i+1,k)/(i+1) = sum_i C(i,k-1)/k = C(I+1,k)/k by
    the hockey stick, so D w_k = (D/k) C(I+1,k) - D w_(k-1) in integers, with
    C(I+1,k) and C(I,k) from their running ratios.  (C(i,j)/(i+1) is not
    C(i+1,j+1)/(j+1): the hockey stick does not sum w_j itself.)"""
    scale = math.lcm(*range(1, length + 1))
    weight = sum(scale // i for i in range(1, length + 1))  # D H_(I+1)
    weights, last = [weight], [1]
    above, at = 1, 1  # C(I+1, k), C(I, k)
    for k in range(1, length):
        above = above * (length + 1 - k) // k
        at = at * (length - k) // k
        weight = scale // k * above - weight
        sign = -1 if k % 2 else 1
        weights.append(sign * weight)
        last.append(sign * at)
    return scale, weights, last


class _GammaRow:
    """Every gamma_n(u) at one u, a Binary, and one context.

    u is shifted once to U = u + shift.  The row holds, as integers scaled
    by 2^prec, log(u + k) for k < shift + alloc, the terms at power 0
    (start) and at the latest power (terms, see _terms), and the finished
    gamma_n(u) of every n summed so far.  first is 1 when u < 1: 1/u then
    has any size, so the term log^n(u)/u is divided by u as a Binary.
    Every n sums all alloc outer terms, the length the convergence bound
    gives the largest n, at most 20 (digits + guard) + 1; a series whose
    last outer term is not below the threshold raises ConvergenceError.
    """

    def __init__(self, u: Binary, ctx: PrecisionContext):
        self.u = u
        self.ctx = ctx
        target = math.ceil(ctx.working_dps * math.log(10))
        # floor(u), or 2^64 past it, where only its size matters
        floor = u.man >> -u.exp if u.exp < 0 else u.man << min(u.exp, 64)
        # U = target + frac(u); a u past the target is not shifted
        self.shift = max(target - floor, 0)
        # the log chain starts at u, or at u + 1 when u < 1
        self.first = first = 0 if floor else 1
        self.values = {}  # n -> gamma_n(u)
        self.big_u = _add(u, Binary(self.shift), dps_to_prec(ctx.working_dps)) if self.shift else u
        log_u = math.log(self.big_u.man) + self.big_u.exp * math.log(2)
        max_n = FAMILIES["gamma"][1]
        # the outer terms of every series stop below 10^-working_dps
        self.alloc = min(_series_length(log_u, ctx.working_dps, max_n), 1 + 20 * ctx.working_dps)
        self.prec = dps_to_prec(ctx.dps("gamma", max_n)) + self.alloc + 64
        bits = self.prec + 32  # the logs' rounding stays in these 32 bits
        count = self.shift + self.alloc
        # x = u + first, rounded to bits + 16 bits, as a / 2^bits; past
        # 2^(2 bits) no step of the chain moves a log by 2^-bits, so x is
        # clamped there
        x = _add(u, Binary(1), bits + 16) if first else u
        clamped = x.exp + x.man.bit_length() > 2 * bits
        a = 1 << 3 * bits if clamped else (x.numerator << bits) // x.denominator
        if u.exp >= 0 and floor <= count:
            logs = _integer_logs(floor, count, bits)
        else:
            heads = [_log(v, bits) for v in (u, x)[:first + 1]]
            logs = heads[:first] + _log_chain(heads[first], a, count - first, bits)
        self.logs = [v >> 32 for v in logs]
        # power 0: 1 = log^0 u when u < 1, then 1/(u + m) to the shift, then the tail's logs
        recips = [(1 << (self.prec + bits)) // (a + (m << bits)) for m in range(self.shift - first)]
        self.start = [1 << self.prec] * first + recips + self.logs[self.shift:]
        self.power, self.terms = 0, self.start

    def _terms(self, n: int) -> list:
        """The terms at power n, scaled by 2^prec: log^n(u + m)/(u + m) for m < shift
        (log^n u at m = 0 when u < 1) and log^(n+1)(U + j) for j < alloc; one
        multiply per term by its log per power, from power 0 again for a lower n."""
        if n < self.power:
            self.power, self.terms = 0, self.start
        while self.power < n:
            self.terms = [(t * v) >> self.prec for t, v in zip(self.terms, self.logs)]
            self.power += 1
        return self.terms

    def gamma(self, n: int) -> Binary:
        """gamma_n(u): the shifted terms plus the double series at U, added
        in integers, plus log^n(u)/u when u < 1, each quotient and the sum
        rounded to the working precision of n as mpf arithmetic rounds them."""
        if n not in self.values:
            prec = dps_to_prec(self.ctx.dps("gamma", n))
            if self.first:
                head = _round(self._terms(n)[0], self.u.man, -self.prec - self.u.exp, prec)
            total = (n + 1) * self._shifted(n) - self._tail(n, prec)
            value = _round(total, n + 1, -self.prec, prec)
            self.values[n] = _add(head, value, prec) if self.first else value
        return self.values[n]

    def _shifted(self, n: int) -> int:
        """sum_{first <= m < shift} log^n(u + m) / (u + m), scaled by 2^prec."""
        return sum(self._terms(n)[self.first:self.shift])

    def _tail(self, n: int, prec: int) -> int:
        """-(n + 1) gamma_n(U), the double series over the row's alloc outer
        terms as one dot product with _tail_weights, scaled by 2^self.prec.
        A ConvergenceError carries the partial sum rounded to prec bits, the
        working precision gamma_n is rounded to."""
        scale, weights, last = _tail_weights(self.alloc)
        powers = self._terms(n)[self.shift:]
        total = sum(map(operator.mul, weights, powers)) // scale
        # the last outer term, inner / (2^prec (I + 1)), is below 10^-(digits + guard)
        inner = sum(map(operator.mul, last, powers))
        if abs(inner) * 10 ** self.ctx.working_dps < self.alloc << self.prec:
            return total
        raise ConvergenceError(
            f"gamma_{n}({decimal_str(self.big_u, 8)}) did not converge within "
            f"{self.alloc} outer terms",
            partial=_round(-total, n + 1, -self.prec, prec),
            index=self.alloc,
        )


# one row per (u at the working precision of the largest n, ctx), so 1, "1",
# Fraction(1), mpf(1) and 1.0 share a row, while contexts that differ in any
# field stay separate computations
_gamma_row = lru_cache(maxsize=32)(_GammaRow)


def _row_u(u, ctx: PrecisionContext) -> Binary:
    """u as the gamma row keys it, read once for the CLI and the library:
    rounded as mpf(u) rounds it at the working precision of the largest n,
    a str read there in mpmath's syntax, and checked finite and > 0.  The
    messages name --u, the flag a CLI user typed it as."""
    if isinstance(u, str):
        try:
            value = _from_decimal(u, dps_to_prec(ctx.dps("gamma", FAMILIES["gamma"][1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse --u value {u!r}") from exc
    else:
        try:
            with workdps(ctx.dps("gamma", FAMILIES["gamma"][1])):
                value = rounded(u)
        except ValueError:  # an inf, a nan or no real number
            value = None
    if value is None or value.man <= 0:
        raise ValueError("--u must be a finite real > 0")
    return value


def stieltjes_gamma(n: int, u, ctx: PrecisionContext) -> Binary:
    """gamma_n(u) accurate to ctx.digits digits; gamma_n(1) = gamma_n.

    u accepts int, Fraction, mpf, Binary, or a decimal string, read as
    mpf(u) reads it at the row's precision, as --u is; a Python float is
    taken at its exact binary value (pass a string for decimal semantics).
    A string mpmath cannot read raises ValueError("cannot parse --u value
    ..."), and an inf, a nan, a u <= 0 or no number ValueError("--u must be
    a finite real > 0").  The value is the row's exact Binary.
    """
    start, cap = FAMILIES["gamma"]
    check_index(n, "the stieltjes index n", start, cap)
    return _gamma_row(_row_u(u, ctx), ctx).gamma(n)


def stieltjes_table(max_n: int, ctx: PrecisionContext, u=1) -> ConstantTable:
    """gamma_0(u) .. gamma_max_n(u) as a table of Binary values (u defaults
    to 1)."""
    check_index(max_n, "max_n", *FAMILIES["gamma"])
    u = _row_u(u, ctx)
    values = [stieltjes_gamma(n, u, ctx) for n in range(max_n + 1)]
    return ConstantTable.of("gamma", values, GAMMA_TAG, ctx)
