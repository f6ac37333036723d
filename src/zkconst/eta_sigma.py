"""Eta constants and sigma coefficients.

The eta constants are the Taylor coefficients of -d/ds log[(s-1) zeta(s)]
about s = 1.  They are tied to the Stieltjes constants by the recurrence

    (-1)^n (n+1) gamma_n = -n! eta_n + n! sum_{j=1}^{n}
                           (-1)^j j eta_{n-j} gamma_{j-1} / j!

solved here for eta_n in increasing n (route tag recurrence-4.4), and by the
equivalent rearrangement

    n! eta_n = (-1)^(n+1) (n+1) gamma_n
               + (-1)^(n+1) n! sum_{k=0}^{n-1} (-1)^(k+1)
                 gamma_{n-k-1} eta_k / (n-k-1)!

(route tag coffey-4.5).  Both are implemented as separate code paths; their
agreement is a cheap mutual check on the index bookkeeping.

The inverse map packs the eta constants into a complete Bell polynomial:

    (-1)^n (n+1) gamma_n = Y_{n+1}(gamma, -1! eta_1, ..., -n! eta_n)

The sigma coefficients (log-xi expansion about s = 1) follow from the eta
constants and integer zeta values:

    sigma_{n+1} = (-1)^(n+1) eta_n - [1 - 2^-(n+1)] zeta(n+1) + 1   (n >= 1)

sigma_1 equals the first Li/Keiper constant and is taken from its closed
form -1/2 log pi + 1/2 gamma + 1 - log 2, since the display above would need
zeta(1) at n = 0.

Each map takes a whole table and maps every entry of it: gamma_0..gamma_m
gives eta_0..eta_m and back, and eta_0..eta_m gives sigma_1..sigma_(m+1).
"""

from __future__ import annotations

import math

from .bell import bell_recurrence_values
from .kernel import atoms, zeta_int_mpf
from .precision import PrecisionContext, extra_digits
from .stieltjes import Binary, ConstantTable, require, workdps

ETA_TAG = "recurrence-4.4"
ETA_COFFEY_TAG = "coffey-4.5"
GAMMA_FROM_ETA_TAG = "bell-6.1"
SIGMA_CLOSED_TAG = "closed-2.13"
SIGMA_TAG = "eta-zeta-s4"


def eta_from_gamma(gammas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """eta_n for every gamma_n in the table, by solving the gamma/eta
    recurrence in rising n."""
    require(gammas, "gamma", "eta_from_gamma")
    with workdps(ctx.working_dps + extra_digits("eta")):
        etas = []
        for n in range(gammas.max_n + 1):
            acc = (-1) ** (n + 1) * (n + 1) * gammas[n] / math.factorial(n)
            for j in range(1, n + 1):
                acc += (
                    (-1) ** j
                    * gammas[j - 1]
                    * etas[n - j]
                    / math.factorial(j - 1)
                )
            etas.append(+acc)
    return ConstantTable.of("eta", etas, ETA_TAG, ctx)


def eta_from_gamma_coffey(gammas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """Same map through the rearranged recurrence, as an independent code path."""
    require(gammas, "gamma", "eta_from_gamma_coffey")
    with workdps(ctx.working_dps + extra_digits("eta")):
        etas = []
        for n in range(gammas.max_n + 1):
            acc = (-1) ** (n + 1) * (n + 1) * gammas[n]
            inner = Binary(0)
            for k in range(n):
                inner += (
                    (-1) ** (k + 1)
                    * gammas[n - k - 1]
                    * etas[k]
                    / math.factorial(n - k - 1)
                )
            acc += (-1) ** (n + 1) * math.factorial(n) * inner
            etas.append(+(acc / math.factorial(n)))
    return ConstantTable.of("eta", etas, ETA_COFFEY_TAG, ctx)


def gamma_from_eta(etas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """gamma_n = (-1)^n / (n+1) * Y_{n+1}(gamma, -1! eta_1, ..., -n! eta_n)
    for every eta_n in the table."""
    require(etas, "eta", "gamma_from_eta")
    with workdps(ctx.working_dps + extra_digits("eta")):
        args = [-math.factorial(r) * eta for r, eta in enumerate(etas.values)]
        ys = bell_recurrence_values(args)
        values = [+((-1) ** n * ys[n + 1] / (n + 1)) for n in range(len(args))]
    return ConstantTable.of("gamma", values, GAMMA_FROM_ETA_TAG, ctx)


def sigma_table(etas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """sigma_1 .. sigma_(m+1) from eta_0 .. eta_m: sigma_1 from its closed
    form, the rest from eta, with per-entry route tags."""
    require(etas, "eta", "sigma_table")
    with workdps(ctx.working_dps):
        gamma, logs = -etas[0], atoms(ctx.working_dps)
        values = [+(-logs.log_pi / 2 + gamma / 2 + 1 - logs.log2)]
    with workdps(ctx.working_dps + extra_digits("sigma")):
        for n in range(1, etas.max_n + 1):
            z = zeta_int_mpf(n + 1, ctx)
            values.append(
                +((-1) ** (n + 1) * etas[n] - (1 - Binary(1, -(n + 1))) * z + 1)
            )
    tags = [SIGMA_CLOSED_TAG] + [SIGMA_TAG] * etas.max_n
    return ConstantTable.of("sigma", values, tags, ctx)
