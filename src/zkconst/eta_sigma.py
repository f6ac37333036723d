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
"""

from __future__ import annotations

from mpmath import mp, mpf

from .bell import bell_recurrence_value
from .kernel import log2_mpf, log_pi_mpf, zeta_int_mpf
from .precision import PrecisionContext
from .stieltjes import ConstantTable, require

ETA_TAG = "recurrence-4.4"
ETA_COFFEY_TAG = "coffey-4.5"
GAMMA_FROM_ETA_TAG = "bell-6.1"
SIGMA_CLOSED_TAG = "closed-2.13"
SIGMA_TAG = "eta-zeta-s4"


def eta_from_gamma(max_n: int, gammas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """eta_0 .. eta_max_n by solving the gamma/eta recurrence in rising n."""
    require(gammas, "gamma", max_n, "eta_from_gamma")
    with mp.workdps(ctx.working_dps + 10):
        etas = []
        for n in range(max_n + 1):
            acc = (-1) ** (n + 1) * (n + 1) * gammas.mpf(n) / mp.factorial(n)
            for j in range(1, n + 1):
                acc += (
                    (-1) ** j
                    * gammas.mpf(j - 1)
                    * etas[n - j]
                    / mp.factorial(j - 1)
                )
            etas.append(+acc)
    return ConstantTable.of("eta", etas, ETA_TAG, ctx)


def eta_from_gamma_coffey(
    max_n: int, gammas: ConstantTable, ctx: PrecisionContext
) -> ConstantTable:
    """Same map through the rearranged recurrence, as an independent code path."""
    require(gammas, "gamma", max_n, "eta_from_gamma_coffey")
    with mp.workdps(ctx.working_dps + 10):
        etas = []
        for n in range(max_n + 1):
            acc = (-1) ** (n + 1) * (n + 1) * gammas.mpf(n)
            inner = mp.mpf(0)
            for k in range(n):
                inner += (
                    (-1) ** (k + 1)
                    * gammas.mpf(n - k - 1)
                    * etas[k]
                    / mp.factorial(n - k - 1)
                )
            acc += (-1) ** (n + 1) * mp.factorial(n) * inner
            etas.append(+(acc / mp.factorial(n)))
    return ConstantTable.of("eta", etas, ETA_COFFEY_TAG, ctx)


def gamma_from_eta(max_n: int, etas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """gamma_n = (-1)^n / (n+1) * Y_{n+1}(gamma, -1! eta_1, ..., -n! eta_n)."""
    require(etas, "eta", max_n, "gamma_from_eta")
    with mp.workdps(ctx.working_dps + 10):
        args = [-mp.factorial(r - 1) * etas.mpf(r - 1) for r in range(1, max_n + 2)]
        values = []
        for n in range(max_n + 1):
            y = bell_recurrence_value(args[: n + 1])
            values.append(+((-1) ** n * y / (n + 1)))
    return ConstantTable.of("gamma", values, GAMMA_FROM_ETA_TAG, ctx)


def sigma_from_eta(k: int, etas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """sigma_k for k >= 1 (k = 1 from the closed form, k >= 2 from eta)."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError("sigma index must be an integer >= 1")
    if k == 1:
        require(etas, "eta", 0, "sigma_from_eta")
        with mp.workdps(ctx.working_dps):
            gamma = -etas.mpf(0)
            return +(-log_pi_mpf(ctx) / 2 + gamma / 2 + 1 - log2_mpf(ctx))
    n = k - 1
    require(etas, "eta", n, "sigma_from_eta")
    with mp.workdps(ctx.working_dps + 5):
        z = zeta_int_mpf(n + 1, ctx, extra_dps=5)
        return +(
            (-1) ** (n + 1) * etas.mpf(n)
            - (1 - mpf(2) ** (-(n + 1))) * z
            + 1
        )


def sigma_table(max_k: int, etas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """sigma_1 .. sigma_max_k with per-entry route tags."""
    if not isinstance(max_k, int) or max_k < 1:
        raise ValueError("sigma table needs max_k >= 1")
    ks = range(1, max_k + 1)
    return ConstantTable.of(
        "sigma",
        [sigma_from_eta(k, etas, ctx) for k in ks],
        [SIGMA_CLOSED_TAG if k == 1 else SIGMA_TAG for k in ks],
        ctx,
    )
