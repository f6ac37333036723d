"""Independent oracles the test suite judges the package against.

These deliberately share no code with the package:

  * gamma_n(u) from its defining limit, summed to N with Euler-Maclaurin
    boundary corrections (exact Bernoulli fractions, exact integer
    derivative coefficient tables);
  * zeta(n) from plain partial sums with an integral tail bound and a
    midpoint half-term, at doubled precision;
  * high-order derivatives by central-difference stencils at elevated
    precision;
  * the bracket determinant [c_1, ..., c_n] of the Bell-polynomial
    determinant route, written out entry by entry and expanded by cofactors;
  * lambda_r from sigma_1..sigma_r in exact rationals through the forward
    difference table, with no binomial coefficient in sight.

Route independence is the point: a bug in the package's series machinery
cannot also live here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import bernfrac, mp, mpf


def em_gamma_table(max_n: int, u, dps: int, N: int = 10000, corrections: int = 22):
    """gamma_n(u) for n = 0..max_n via the limit

        gamma_n(u) = lim_M [ sum_{k=0}^{M} log^n(u+k)/(u+k)
                             - log^(n+1)(u+M)/(n+1) ]

    evaluated as: explicit sum to N, integral term, half-term at the
    boundary, and Euler-Maclaurin derivative corrections there.  The m-th
    derivative of log^n(t)/t is t^-(m+1) times an integer-coefficient
    polynomial in log t, built by the recurrence
    c[m+1][i] = -(m+1) c[m][i] + (i+1) c[m][i+1].
    """
    with mp.workdps(dps + 15):
        uu = mpf(u)
        sums = [mp.mpf(0) for _ in range(max_n + 1)]
        for k in range(N):
            x = uu + k
            lx = mp.log(x)
            inv = 1 / x
            p = mp.mpf(1)
            for n in range(max_n + 1):
                sums[n] += p * inv
                p *= lx
        xN = uu + N
        lN = mp.log(xN)
        out = []
        for n in range(max_n + 1):
            acc = sums[n] - lN ** (n + 1) / (n + 1) + lN**n / (2 * xN)
            coeffs = [0] * (n + 1)
            coeffs[n] = 1
            order = 0
            corr = mp.mpf(0)
            for r in range(1, corrections + 1):
                while order < 2 * r - 1:
                    nxt = [0] * (n + 1)
                    for i in range(n + 1):
                        nxt[i] = -(order + 1) * coeffs[i]
                        if i + 1 <= n:
                            nxt[i] += (i + 1) * coeffs[i + 1]
                    coeffs = nxt
                    order += 1
                deriv = sum(c * lN**i for i, c in enumerate(coeffs)) / xN ** (order + 1)
                p_num, p_den = bernfrac(2 * r)
                corr += mpf(p_num) / p_den / mp.factorial(2 * r) * deriv
            out.append(+(acc - corr))
        return out


def brute_zeta(n: int, dps: int, N: int = 100000):
    """zeta(n) by partial sums plus integral tail bound, at 2x precision.

    tail ~ N^(1-n)/(n-1) + N^(-n)/2; error is O(n N^-(n+1)).
    """
    with mp.workdps(2 * dps):
        acc = mp.mpf(0)
        for k in range(1, N):
            acc += mpf(k) ** (-n)
        return +(acc + mpf(N) ** (1 - n) / (n - 1) + mpf(N) ** (-n) / 2)


def central_derivative(f, x, m: int, digits: int):
    """m-th derivative of f at x by an (m+1)-point central stencil.

    Truncation is O(h^2) with h = 10^-(digits+2)/2; evaluations carry enough
    extra digits that subtractive cancellation stays below truncation.
    """
    eval_dps = (m * (digits + 2)) // 2 + digits + 25
    with mp.workdps(eval_dps):
        h = mpf(10) ** (-(digits + 2) / 2.0)
        acc = mp.mpf(0)
        for i in range(m + 1):
            node = mpf(x) + (mpf(m) / 2 - i) * h
            acc += (-1) ** i * math.comb(m, i) * f(node)
        return +(acc / h**m)


def bracket_matrix(cs):
    """The n x n matrix of [c_1, ..., c_n], entry (i, j) for i, j = 1..n.

    Row 1 is c_1..c_n.  Row i >= 2 holds n-i+1 at column i-1 and c_{j-i+1}
    at each column j >= i; every other entry is zero.
    """
    n = len(cs)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == 1:
                row.append(Fraction(cs[j - 1]))
            elif j == i - 1:
                row.append(Fraction(n - i + 1))
            elif j >= i:
                row.append(Fraction(cs[j - i]))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return rows


def cofactor_determinant(rows):
    """Determinant by Laplace expansion along the first column (exact)."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for i, row in enumerate(rows):
        if row[0]:
            minor = [r[1:] for k, r in enumerate(rows) if k != i]
            total += (-1) ** i * row[0] * cofactor_determinant(minor)
    return total


def lambda_from_sigma_differences(sigmas):
    """lambda_1..lambda_n from sigma_1..sigma_n (exact Fractions).

    With x = (0, sigma_1, ..., sigma_n), the r-th forward difference at 0 is
    Delta^r x_0 = sum_j C(r,j) (-1)^(r-j) x_j, so the sigma-3.29 sum
    lambda_r = -sum_j (-1)^j C(r,j) sigma_j equals (-1)^(r+1) Delta^r x_0.
    Each difference row is one subtraction per entry of the row above.
    """
    row = [Fraction(0)] + [Fraction(s) for s in sigmas]
    out = []
    for r in range(1, len(row)):
        row = [b - a for a, b in zip(row, row[1:])]
        out.append(row[0] if r % 2 == 1 else -row[0])
    return out


# Frozen oracle outputs.  Each string was produced by the generator named
# next to it, at the stated parameters, and is used as a reference value in
# the tests so a regression in the oracle itself is also caught.
FROZEN = {
    # em_gamma_table(7, 1, 60): gamma_n = gamma_n(1)
    "gamma": "0.577215664901532860606512090082402431042159336",
    "gamma_1": "-0.0728158454836767248605863758749013191377363383",
    "gamma_2": "-0.0096903631928723184845303860352125293590658061",
    # gamma - 1, i.e. -psi(2) = gamma_0(2)
    "gamma_0_at_2": "-0.422784335098467139393487909917597568957840664",
    # -1/2 log pi + 1/2 gamma + 1 - log 2, with oracle gamma at 60 digits
    "lambda_1": "0.0230957089661210338143102479064952916219321272",
    # 3/4 zeta(2) + 1 + gamma - gamma^2 - 2 log 2 - log pi - 2 gamma_1
    "lambda_2": "0.0923457352280466703857284861920678867741322166",
    # gamma_1 + gamma^2/2 - pi^2/24 - log^2(2 pi)/2
    "zeta_deriv2_at_0": "-2.00635645590858485121010002672996043819899491",
    # -log(2 pi)/2
    "zeta_deriv1_at_0": "-0.918938533204672741780329736405617639861397474",
    # 2 - gamma - 2 log 2
    "psi_three_halves": "0.0364899739785765205590236670012444328068403953",
    # 3 zeta(2) - 4
    "psi1_three_halves": "0.934802200544679309417245499938075567656849704",
    # brute_zeta(2, 25, N=100000), trustworthy to ~1.6e-16
    "zeta_2_brute": "1.644934066848226",
    # brute_zeta(3, 25, N=100000), trustworthy to ~2.5e-21
    "zeta_3_brute": "1.2020569031595942854",
}
