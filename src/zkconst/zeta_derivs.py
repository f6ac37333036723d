"""Derivatives of the Riemann zeta function at s = 0, by two routes.

Route apostol-5.5 inverts the triangular relation

    n gamma_{n-1} = 2 sum_{k=0}^n C(n,k) Gamma^(n-k)(1)
                    sum_{j=0}^k C(k,j) (-1)^(k-j) log^(k-j)(2 pi)
                    sum_{l=0}^j C(j,l) w_{j-l} zeta^(l)(0)

where w_m = (pi/2)^m cos(m pi/2) vanishes for odd m and equals
(-1)^(m/2) (pi/2)^m for even m (the implementation skips odd m exactly
rather than evaluating a cosine).  The right-hand side is the n-th
derivative at 0 of f(s) = s zeta(1-s) = 2 (2 pi)^-s Gamma(s+1)
cos(pi s/2) zeta(s) assembled by the four-factor Leibniz rule, and
f^(n)(0) = n gamma_{n-1}.  The exact normalization is pinned empirically:
n = 1 collapses to log(2 pi) + gamma + 2 zeta'(0) = gamma and fixes the
outer 2; n = 2 must return gamma_1 (not 2 gamma_1) and fixes the n on the
left.  With zeta^(0)(0) = -1/2 seeded, zeta^(n)(0) has pivot coefficient
exactly 2 (k = j = l = n), so the system solves by forward substitution.
Evaluated the other way around, the same relation returns gamma_{n-1} from
a zeta-derivative table.

Route log-chain-s4 composes h(s) = (s-1) zeta(s) as exp(L(s)) with
L = log h:

    L^(1)(0) = log(2 pi) - 1
    L^(n+1)(0) = (-1)^n n! eta_n
                 + (1 - 2^-(n+1) [1 - (-1)^n]) n! zeta(n+1) - n!    (n >= 1)
    h^(n)(0) = h(0) Y_n(L^(1)(0), ..., L^(n)(0)),   h(0) = 1/2
    zeta^(n)(0) = n zeta^(n-1)(0) - h^(n)(0)

Gamma-function derivatives at 1 come from the Bell form
Gamma^(m)(1) = Y_m(-gamma, x_1, ..., x_{m-1}) with
x_p = (-1)^(p+1) p! zeta(p+1).
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from .bell import bell_recurrence_value
from .kernel import log_2pi_mpf, zeta_int_mpf
from .precision import PrecisionContext
from .stieltjes import FAMILIES, ConstantTable, require, stieltjes_gamma

APOSTOL_TAG = "apostol-5.5"
LOG_CHAIN_TAG = "log-chain-s4"
GAMMA_DERIV_TAG = "bell-A.7"
L_DERIV_TAG = "eta-zeta-s4"


def gamma_derivs_at_one_mpf(m: int, ctx: PrecisionContext):
    """Raw Gamma^(m)(1) at working precision."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("derivative order must be an integer >= 0")
    if m == 0:
        return mp.mpf(1)
    with mp.workdps(ctx.working_dps + m + 5):
        gamma = stieltjes_gamma(0, 1, ctx)
        args = [-gamma]
        for p in range(1, m):
            args.append(
                (-1) ** (p + 1)
                * mp.factorial(p)
                * zeta_int_mpf(p + 1, ctx, extra_dps=m + 5)
            )
        return +bell_recurrence_value(args)


def L_derivs_at_zero(n: int, etas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """L^(n+1)(0) for L(s) = log[(s-1) zeta(s)]; n = 0 gives log(2 pi) - 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("index must be an integer >= 0")
    with mp.workdps(ctx.working_dps + 5):
        if n == 0:
            return +(log_2pi_mpf(ctx) - 1)
        require(etas, "eta", n, "L_derivs_at_zero")
        fact = mp.factorial(n)
        zcoeff = 1 - mpf(2) ** (-(n + 1)) * (1 - (-1) ** n)
        return +(
            (-1) ** n * fact * etas.mpf(n)
            + zcoeff * fact * zeta_int_mpf(n + 1, ctx, extra_dps=5)
            - fact
        )


def _cos_weight(m: int, pi_val):
    """(pi/2)^m cos(m pi/2): exactly zero for odd m, signed power for even m."""
    if m % 2 == 1:
        return None
    sign = 1 if (m // 2) % 2 == 0 else -1
    return sign * (pi_val / 2) ** m


def _apostol_rhs(n: int, zeta_vals, ctx: PrecisionContext):
    """f^(n)(0) = n gamma_{n-1} assembled from zeta^(l)(0) values.

    zeta_vals[l] = zeta^(l)(0) for l = 0..n (the l = n slot may be a dummy
    when the caller is solving for it; see zeta_derivs_at_zero).
    """
    pi_val = +mp.pi
    log2pi = mp.log(2 * pi_val)
    gd = [gamma_derivs_at_one_mpf(m, ctx) for m in range(n + 1)]
    total = mp.mpf(0)
    for k in range(n + 1):
        inner_k = mp.mpf(0)
        for j in range(k + 1):
            inner_j = mp.mpf(0)
            for l in range(j + 1):
                w = _cos_weight(j - l, pi_val)
                if w is None:
                    continue
                inner_j += math.comb(j, l) * w * zeta_vals[l]
            inner_k += (
                math.comb(k, j)
                * (-1) ** (k - j)
                * log2pi ** (k - j)
                * inner_j
            )
        total += math.comb(n, k) * gd[n - k] * inner_k
    return 2 * total


def _solve_dps(max_n: int, ctx: PrecisionContext) -> int:
    """Working digits for a zeta0 table up to max_n, once max_n is in range."""
    _, cap = FAMILIES["zeta0"]
    if not isinstance(max_n, int) or not 0 <= max_n <= cap:
        raise ValueError(f"need 0 <= max_n <= {cap}")
    return ctx.working_dps + 2 * max_n + 10


def zeta_derivs_at_zero(
    max_n: int, gammas: ConstantTable, ctx: PrecisionContext
) -> ConstantTable:
    """zeta^(n)(0) for n = 0..max_n by route apostol-5.5, from a gamma table
    covering 0..max_n-1.  Entry 0 is zeta(0) = -1/2."""
    dps = _solve_dps(max_n, ctx)
    if max_n >= 1:
        require(gammas, "gamma", max_n - 1, "zeta_derivs_at_zero")
    with mp.workdps(dps):
        values = [mpf(-1) / 2]
        for n in range(1, max_n + 1):
            # pivot: the coefficient of zeta^(n)(0) in the rhs is exactly 2
            rhs0 = _apostol_rhs(n, values + [mp.mpf(0)], ctx)
            values.append(+((n * gammas.mpf(n - 1) - rhs0) / 2))
    return ConstantTable.of("zeta0", values, APOSTOL_TAG, ctx)


def zeta_derivs_log_chain(
    max_n: int, etas: ConstantTable, ctx: PrecisionContext
) -> ConstantTable:
    """zeta^(n)(0) for n = 0..max_n by route log-chain-s4, from an eta table
    covering 0..max_n-1 (none is read for max_n <= 1).  Entry 0 is
    zeta(0) = -1/2."""
    dps = _solve_dps(max_n, ctx)
    if max_n >= 2:
        require(etas, "eta", max_n - 1, "zeta_derivs_log_chain")
    with mp.workdps(dps):
        values = [mpf(-1) / 2]
        lder = [L_derivs_at_zero(m - 1, etas, ctx) for m in range(1, max_n + 1)]
        half = mpf(1) / 2
        for n in range(1, max_n + 1):
            h_n = half * bell_recurrence_value(lder[:n])
            values.append(+(n * values[n - 1] - h_n))
    return ConstantTable.of("zeta0", values, LOG_CHAIN_TAG, ctx)


def gamma_from_zeta_derivs(n: int, zeta0: ConstantTable, ctx: PrecisionContext) -> mpf:
    """gamma_{n-1} by forward evaluation of the triangular relation."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("index must be an integer >= 1")
    require(zeta0, "zeta0", n, "gamma_from_zeta_derivs")
    with mp.workdps(ctx.working_dps + 2 * n + 10):
        vals = [zeta0.mpf(l) for l in range(n + 1)]
        return +(_apostol_rhs(n, vals, ctx) / n)
