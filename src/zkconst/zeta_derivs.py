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
left.  Only zeta is unknown, so the other three factors are one fixed
series A(s) = 2 (2 pi)^-s Gamma(s+1) cos(pi s/2), and the relation reads

    n gamma_{n-1} = sum_{l=0}^n C(n,l) a_{n-l} zeta^(l)(0),   a_m = A^(m)(0)

with the pivot a_0 = 2 exactly.  With zeta^(0)(0) = -1/2 seeded, the system
solves by forward substitution.  Evaluated the other way around, the same
relation returns gamma_{n-1} from a zeta-derivative table.

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

Both routes and the forward map run at one precision per context, the zeta0
budget read at the family's cap, so zeta^(n)(0) depends only on n and the
context.  Each route is a step map: a gamma or eta table up to m gives
zeta^(0..m+1)(0) under that table's context, and an m + 1 past the cap is
refused before any entry is computed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .bell import bell_recurrence_value, bell_recurrence_values
from .kernel import atoms, zeta_int_mpf
from .precision import FAMILIES, PrecisionContext, check_index, extra_digits
from .stieltjes import Binary, ConstantTable, _check_last, require, stieltjes_gamma, workdps

APOSTOL_TAG = "apostol-5.5"
LOG_CHAIN_TAG = "log-chain-s4"
GAMMA_DERIV_TAG = "bell-A.7"
L_DERIV_TAG = "eta-zeta-s4"


def gamma_derivs_at_one_mpf(m: int, ctx: PrecisionContext) -> Binary:
    """Raw Gamma^(m)(1), at its own fixed precision, so every caller gets the
    same value."""
    check_index(m, "the derivative order m", 0)
    if m == 0:
        return Binary(1)
    with workdps(ctx.working_dps + extra_digits("gamma_deriv", m)):
        gamma = stieltjes_gamma(0, 1, ctx)
        args = [-gamma]
        for p in range(1, m):
            args.append((-1) ** (p + 1) * math.factorial(p) * zeta_int_mpf(p + 1, ctx))
        return +bell_recurrence_value(args)


def L_derivs_at_zero(n: int, etas: ConstantTable) -> Binary:
    """L^(n+1)(0) for L(s) = log[(s-1) zeta(s)]; n = 0 gives log(2 pi) - 1."""
    check_index(n, "the L derivative index n", 0)
    ctx = require(etas, "eta", "L_derivs_at_zero", n)
    with workdps(ctx.working_dps + extra_digits("step")):
        if n == 0:
            return +(atoms(ctx.working_dps).log_2pi - 1)
        fact = math.factorial(n)
        zcoeff = 1 - Binary(1, -(n + 1)) * (1 - (-1) ** n)
        return +(
            (-1) ** n * fact * etas[n]
            + zcoeff * fact * zeta_int_mpf(n + 1, ctx)
            - fact
        )


def _cos_weight(m: int, pi_val):
    """(pi/2)^m cos(m pi/2): exactly zero for odd m, signed power for even m."""
    if m % 2 == 1:
        return None
    return (-1) ** (m // 2) * (pi_val / 2) ** m


def _solve_dps(ctx: PrecisionContext) -> int:
    """Working digits of every zeta0 solve and forward evaluation: the zeta0
    budget read at the family's cap."""
    return ctx.working_dps + extra_digits("zeta0", FAMILIES["zeta0"][1])


@lru_cache(maxsize=16)
def _apostol_weights(ctx: PrecisionContext) -> tuple:
    """a_m = A^(m)(0) for A(s) = 2 (2 pi)^-s Gamma(1+s) cos(pi s/2) and
    m = 0 up to the zeta0 cap, at the solve precision, by two Leibniz
    products; a_0 = 2 exactly."""
    orders = range(FAMILIES["zeta0"][1] + 1)
    dps = _solve_dps(ctx)
    with workdps(dps):
        pi_val = atoms(dps).pi
        minus_log2pi = -atoms(dps).log_2pi
        cos_weights = [_cos_weight(j, pi_val) for j in orders]
        # (2 pi)^-s cos(pi s/2); the odd cosine orders vanish and are skipped
        ec = [
            sum(math.comb(k, j) * minus_log2pi ** (k - j) * w
                for j, w in enumerate(cos_weights[: k + 1]) if w is not None)
            for k in orders
        ]
        gd = [gamma_derivs_at_one_mpf(m, ctx) for m in orders]
        return tuple(
            2 * sum(math.comb(m, k) * gd[m - k] * ec[k] for k in range(m + 1))
            for m in orders
        )


def zeta_derivs_at_zero(gammas: ConstantTable) -> ConstantTable:
    """zeta^(n)(0) for n = 0..m+1 by route apostol-5.5, from the table
    gamma_0..gamma_m.  Entry 0 is zeta(0) = -1/2."""
    ctx = require(gammas, "gamma", "zeta_derivs_at_zero")
    max_n = gammas.max_n + 1
    check_index(max_n, "the largest zeta0 index of zeta_derivs_at_zero", *FAMILIES["zeta0"])
    a = _apostol_weights(ctx)
    with workdps(_solve_dps(ctx)):
        values = [Binary(-1, -1)]
        for n in range(1, max_n + 1):
            # the pivot C(n, n) a_0 = 2 multiplies the unknown zeta^(n)(0)
            known = sum(math.comb(n, l) * a[n - l] * values[l] for l in range(n))
            values.append(+((n * gammas[n - 1] - known) / 2))
    return ConstantTable.of("zeta0", values, APOSTOL_TAG, ctx)


def zeta_derivs_log_chain(etas: ConstantTable) -> ConstantTable:
    """zeta^(n)(0) for n = 0..m+1 by route log-chain-s4, from the table
    eta_0..eta_m; eta_0 is not read, since L^(1)(0) = log(2 pi) - 1.
    Entry 0 is zeta(0) = -1/2."""
    ctx = require(etas, "eta", "zeta_derivs_log_chain")
    max_n = etas.max_n + 1
    _check_last("zeta0", max_n)
    with workdps(_solve_dps(ctx)):
        values = [Binary(-1, -1)]
        lder = [L_derivs_at_zero(m, etas) for m in range(max_n)]
        ys = bell_recurrence_values(lder)
        for n in range(1, max_n + 1):
            values.append(+(n * values[n - 1] - ys[n] / 2))
    return ConstantTable.of("zeta0", values, LOG_CHAIN_TAG, ctx)


def gamma_from_zeta_derivs(n: int, zeta0: ConstantTable) -> Binary:
    """gamma_{n-1} by forward evaluation of the triangular relation, for n
    from 1 up to the zeta0 cap."""
    check_index(n, "the forward index n", 1, FAMILIES["zeta0"][1])
    ctx = require(zeta0, "zeta0", "gamma_from_zeta_derivs", n)
    a = _apostol_weights(ctx)
    with workdps(_solve_dps(ctx)):
        return +(sum(math.comb(n, l) * a[n - l] * zeta0[l] for l in range(n + 1)) / n)
