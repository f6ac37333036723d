"""Complete (exponential) Bell polynomials by three independent routes.

Y_n(x_1, ..., x_n) is built three ways, which downstream tests demand agree
exactly:

  * partition sum      Y_n = sum over k_1 + 2 k_2 + ... + n k_n = n of
                       n!/(k_1! ... k_n!) prod_j (x_j/j!)^(k_j)
  * recurrence         Y_{m+1} = sum_k C(m,k) Y_k x_{m-k+1}, Y_0 = 1
  * determinant        Y_n = [x_1/0!, -x_2/1!, ..., (-1)^(n+1) x_n/(n-1)!]
                       where [c_1..c_n] is an n x n almost-triangular
                       determinant with subdiagonal n-1, n-2, ..., 1

The recurrence is the fast numeric route; the partition sum is the symbolic
definition, returned as a plain {exponent tuple: coefficient} dict and
evaluated by substitute(); its enumeration is memoised per n, and every call
returns a fresh dict, which the caller may change.  substitute() reads each
monomial's nonzero exponents from a memo of every monomial to MAX_SYMBOLIC_N.
The determinant takes integer arguments and is evaluated by fraction-free
elimination in integers, so the three-route comparison is exact.  Every route
is weighted-homogeneous, Y_n(c x_1, c^2 x_2, ..., c^n x_n) = c^n Y_n(x), so an
exact caller scales rational arguments to integers and divides the value by
c^n once; the partition sum and the recurrence also take Fractions directly.
"""

from __future__ import annotations

import math
from functools import lru_cache

MAX_SYMBOLIC_N = 20  # partition enumeration cap; p(20) = 627 partitions


def _partition_multiplicities(n: int):
    """Yield all (k_1, ..., k_n) with sum j*k_j = n, by bounded descent."""
    ks = [0] * n

    def descend(j: int, remaining: int):
        if j == n:
            if remaining == 0:
                yield tuple(ks)
            return
        part = j + 1  # this slot is the multiplicity of part size j+1
        for k in range(remaining // part, -1, -1):
            ks[j] = k
            yield from descend(j + 1, remaining - k * part)
        ks[j] = 0

    yield from descend(0, n)


@lru_cache(maxsize=MAX_SYMBOLIC_N + 1)
def _partition_terms(n: int) -> tuple:
    """Y_n's (exponent tuple, coefficient) pairs, enumerated once per n."""
    nfact = math.factorial(n)
    terms = []
    for ks in _partition_multiplicities(n):
        denom = 1
        for j, k in enumerate(ks, start=1):
            if k:
                denom *= math.factorial(k) * math.factorial(j) ** k
        coeff, rem = divmod(nfact, denom)
        if rem:
            raise ArithmeticError(f"n!/{denom} is not an integer coefficient")
        terms.append((ks, coeff))
    return tuple(terms)


def bell_symbolic(n: int) -> dict:
    """Y_n from the partition-sum definition, as {exponent tuple: int coefficient}.

    The exponent tuple (e_1, ..., e_n) stands for x_1^e_1 ... x_n^e_n.
    """
    # a bool is refused, since True would pass for 1
    if type(n) is not int or n < 0:
        raise ValueError("bell_symbolic needs an integer n >= 0")
    if n > MAX_SYMBOLIC_N:
        raise ValueError(
            f"partition count grows too fast: n <= {MAX_SYMBOLIC_N} supported"
        )
    return dict(_partition_terms(n))


@lru_cache(maxsize=2714)  # every monomial of Y_0 .. Y_20: p(0) + p(1) + ... + p(20)
def _nonzero(expo: tuple) -> tuple:
    """The (index, exponent) pairs of a monomial's nonzero exponents."""
    return tuple((j, e) for j, e in enumerate(expo) if e)


def substitute(terms: dict, values):
    """Evaluate a bell_symbolic dict at values (exact for int/Fraction inputs)."""
    nvars = len(next(iter(terms), ()))
    if len(values) < nvars:
        raise ValueError(f"need {nvars} values, got {len(values)}")
    total = 0
    for expo, coeff in terms.items():
        for j, e in _nonzero(expo):
            coeff = coeff * (values[j] if e == 1 else values[j] ** e)
        total = total + coeff
    return total


def bell_recurrence_values(args) -> list:
    """[Y_0, Y_1(args[:1]), ..., Y_n(args)] by the binomial recurrence, generic
    over the scalar type.

    Works with Fraction/int (exact) or Binary arguments alike; never builds the
    symbolic polynomial.  Y_k reads only args[:k], so one pass serves a whole
    table.  Y_0 = 1.
    """
    ys = [1]
    for m in range(len(args)):
        # Y_{m+1} = sum_{k=0}^{m} C(m,k) Y_k x_{m-k+1}
        acc = 0
        for k in range(m + 1):
            acc = acc + math.comb(m, k) * ys[k] * args[m - k]
        ys.append(acc)
    return ys


def bell_recurrence_value(args):
    """Y_n(args) by the binomial recurrence; empty args give Y_0 = 1."""
    return bell_recurrence_values(args)[-1]


def _check_entries(entries, who):
    # a bool is refused, since True would pass for 1
    for c in entries:
        if type(c) is not int:
            raise ValueError(f"{who} takes int entries (bool refused), got {c!r}")


def _scaled_bracket(nums, den) -> int:
    """den^n [nums[0]/den, ..., nums[n-1]/den], in integers.

    The n x n bracket times den in every row has integer entries.  These are
    eliminated fraction-free (Bareiss, Math. Comp. 22, 1968): below pivot k
    only row k+1 is nonzero, so each step replaces that one row by
    pivot * row - subdiagonal * pivot row, after which its entry in column j
    is the minor on rows 1..k+1 and columns 1..k, j.  Bareiss divides each
    update by the previous pivot; here that pivot is also the factor an
    untouched row carries in Bareiss's scheme, so the two cancel and nothing
    is divided.  A zero pivot thus needs no row swap, and the last pivot is
    den^n times the determinant.
    """
    n = len(nums)
    row = nums
    for k in range(1, n):
        pivot, sub = row[0], (n - k) * den
        row = [pivot * c - sub * r for c, r in zip(nums, row[1:])]
    return row[0]


def bracket_determinant(cs) -> int:
    """The n x n almost-triangular determinant [c_1, c_2, ..., c_n].

    Row 1 holds c_1..c_n; row i (i >= 2) holds the subdiagonal entry n-i+1
    followed by c_1..c_{n-i+1}; everything below the subdiagonal is zero.
    The entries are ints (bool refused; anything else raises ValueError),
    so the determinant is _scaled_bracket's elimination at den = 1.
    """
    if len(cs) < 1:
        raise ValueError("bracket determinant needs n >= 1 entries")
    _check_entries(cs, "bracket_determinant")
    return _scaled_bracket(cs, 1)


def bell_determinant(args) -> int:
    """Y_n(args) as the determinant [x_1/0!, -x_2/1!, ..., (-1)^(n+1) x_n/(n-1)!].

    The arguments are ints (bool refused; anything else raises ValueError).
    D = (n-1)! clears every entry (-1)^k x_k / k! at once, each factor
    (-1)^k D / k! the one before divided by -k, and Y_n is
    _scaled_bracket's D^n Y_n divided by D^n.  Integer arguments give an
    integer Y_n, so a remainder is a fault in the elimination and raises
    ArithmeticError.
    """
    n = len(args)
    if n < 1:
        raise ValueError("bell_determinant needs n >= 1 arguments")
    _check_entries(args, "bell_determinant")
    den = entry = math.factorial(n - 1)
    nums = []
    for k, x in enumerate(args):
        nums.append(entry * x)
        entry = -entry // (k + 1)
    value, rem = divmod(_scaled_bracket(nums, den), den**n)
    if rem:
        raise ArithmeticError(f"bell_determinant: {den}^{n} leaves remainder {rem}")
    return value
