"""Complete (exponential) Bell polynomials by three independent routes.

Y_n(x_1, ..., x_n) is built three ways, which downstream tests demand agree
exactly in rational arithmetic:

  * partition sum      Y_n = sum over k_1 + 2 k_2 + ... + n k_n = n of
                       n!/(k_1! ... k_n!) prod_j (x_j/j!)^(k_j)
  * recurrence         Y_{m+1} = sum_k C(m,k) Y_k x_{m-k+1}, Y_0 = 1
  * determinant        Y_n = [x_1/0!, -x_2/1!, ..., (-1)^(n+1) x_n/(n-1)!]
                       where [c_1..c_n] is an n x n almost-triangular
                       determinant with subdiagonal n-1, n-2, ..., 1

The recurrence is the fast numeric route; the partition sum is the symbolic
definition; the determinant is evaluated by fraction-free elimination so the
three-route comparison is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

MAX_SYMBOLIC_N = 20  # partition enumeration cap; p(20) = 627 partitions


@dataclass(frozen=True)
class MultiPoly:
    """Exact integer-coefficient polynomial in x_1..x_nvars.

    terms maps an exponent tuple (e_1, ..., e_nvars) to its integer
    coefficient.  Instances are treated as immutable after construction.
    """

    nvars: int
    terms: dict = field(default_factory=dict)

    def substitute(self, values):
        """Evaluate at the given values (exact for int/Fraction inputs)."""
        if len(values) < self.nvars:
            raise ValueError(
                f"need {self.nvars} values, got {len(values)}"
            )
        total = 0
        for expo, coeff in self.terms.items():
            term = coeff
            for e, v in zip(expo, values):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def sorted_terms(self):
        """Deterministic (exponent, coefficient) listing."""
        return sorted(self.terms.items())

    def __str__(self) -> str:
        parts = []
        for expo, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                for i, e in enumerate(expo)
                if e
            )
            parts.append(f"{coeff}*{mono}" if mono else str(coeff))
        return " + ".join(parts) if parts else "0"


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


def bell_symbolic(n: int) -> MultiPoly:
    """Y_n as an exact polynomial from the partition-sum definition."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("bell_symbolic needs an integer n >= 0")
    if n > MAX_SYMBOLIC_N:
        raise ValueError(
            f"partition count grows too fast: n <= {MAX_SYMBOLIC_N} supported"
        )
    if n == 0:
        return MultiPoly(nvars=0, terms={(): 1})
    terms: dict = {}
    nfact = math.factorial(n)
    for ks in _partition_multiplicities(n):
        denom = 1
        for j, k in enumerate(ks, start=1):
            if k:
                denom *= math.factorial(k) * math.factorial(j) ** k
        coeff = Fraction(nfact, denom)
        assert coeff.denominator == 1
        terms[ks] = terms.get(ks, 0) + int(coeff)
    return MultiPoly(nvars=n, terms=terms)


def bell_recurrence_value(args):
    """Y_n(args) by the binomial recurrence, generic over the scalar type.

    Works with Fraction/int (exact) or mpf arguments alike; never builds the
    symbolic polynomial.  Empty args give Y_0 = 1.
    """
    n = len(args)
    ys = [1]
    for m in range(n):
        # Y_{m+1} = sum_{k=0}^{m} C(m,k) Y_k x_{m-k+1}
        acc = 0
        for k in range(m + 1):
            acc = acc + math.comb(m, k) * ys[k] * args[m - k]
        ys.append(acc)
    return ys[n]


def bracket_determinant(cs) -> Fraction:
    """The n x n almost-triangular determinant [c_1, c_2, ..., c_n].

    Row 1 holds c_1..c_n; row i (i >= 2) holds the subdiagonal entry n-i+1
    followed by c_1..c_{n-i+1}; everything below the subdiagonal is zero.
    Evaluated by fraction-free (Bareiss) elimination with row pivoting, so
    rational inputs give an exact rational value.
    """
    n = len(cs)
    if n < 1:
        raise ValueError("bracket determinant needs n >= 1 entries")
    cs = [Fraction(c) for c in cs]
    m = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        m[0][j] = cs[j]
    for i in range(1, n):
        m[i][i - 1] = Fraction(n - i)
        for j in range(i, n):
            m[i][j] = cs[j - i]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def bell_determinant(args) -> Fraction:
    """Y_n(args) as the determinant [x_1/0!, -x_2/1!, ..., (-1)^(n+1) x_n/(n-1)!]."""
    n = len(args)
    if n < 1:
        raise ValueError("bell_determinant needs n >= 1 arguments")
    cs = [
        Fraction((-1) ** k) * Fraction(args[k]) / math.factorial(k)
        for k in range(n)
    ]
    return bracket_determinant(cs)
