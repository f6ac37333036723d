"""Derivatives of the Riemann xi function at s = 1.

With g(s) the log-derivative of xi and sigma_k its Taylor data at s = 1,
successive derivatives of xi = xi * exp-integral structure collapse onto a
complete Bell polynomial in the sigma coefficients:

    xi^(n)(1) = 1/2 Y_n(sigma_1, -1! sigma_2, ..., (-1)^(n-1) (n-1)! sigma_n)

since xi(1) = xi(0) = 1/2.  That Bell form is the canonical route here.  The
same recurrence that powers Y_{n+1} gives the cross-check

    xi^(n+1)(1) = 1/2 (-1)^n n! sigma_{n+1}
                  + sum_{k=1}^n C(n,k) (-1)^(n-k) (n-k)! sigma_{n-k+1} xi^(k)(1)

(the sigma index inside the sum is n-k+1 with weight (n-k)! and sign
(-1)^(n-k); this is the unique assignment consistent with the Bell route --
the k = n term must contribute C(n,n) sigma_1 xi^(n)(1) -- and it needs no
sigma_0 at all).  Reflection, xi^(n)(0) = (-1)^n xi^(n)(1), is honored
structurally: the value at 0 is exposed as exactly the signed stored value.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from .bell import bell_recurrence_value
from .precision import PrecisionContext
from .stieltjes import ConstantTable, require

XI_BELL_TAG = "bell-3.25"
XI_RECURRENCE_TAG = "recurrence-6.2-shifted"
# the recurrence variant validated against the Bell route, recorded for
# report output: sigma index n-k+1, factorial (n-k)!, sign (-1)^(n-k)
XI_RECURRENCE_CONVENTION = "sigma[n-k+1] * (n-k)! * (-1)^(n-k)"


def _bell_args(sigmas: ConstantTable, count: int):
    """x_j = (-1)^(j-1) (j-1)! sigma_j for j = 1..count."""
    return [
        (-1) ** (j - 1) * mp.factorial(j - 1) * sigmas.mpf(j)
        for j in range(1, count + 1)
    ]


def xi_deriv_at_one(n: int, sigmas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """xi^(n)(1) through the Bell-polynomial route."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("derivative order must be an integer >= 1")
    require(sigmas, "sigma", n, "xi_deriv_at_one")
    with mp.workdps(ctx.working_dps + 5):
        y = bell_recurrence_value(_bell_args(sigmas, n))
        return +(y / 2)


def xi_table(max_n: int, sigmas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """xi^(1)(1) .. xi^(max_n)(1) through the Bell route."""
    if not isinstance(max_n, int) or max_n < 1:
        raise ValueError("xi table needs max_n >= 1")
    values = [xi_deriv_at_one(n, sigmas, ctx) for n in range(1, max_n + 1)]
    return ConstantTable.of("xi1", values, XI_BELL_TAG, ctx)


def xi_deriv_recurrence(
    n_max: int, sigmas: ConstantTable, ctx: PrecisionContext
) -> ConstantTable:
    """xi^(n)(1) for n = 1..n_max by the recurrence, as a verification route."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("xi recurrence needs n_max >= 1")
    require(sigmas, "sigma", n_max, "xi_deriv_recurrence")
    with mp.workdps(ctx.working_dps + 5):
        xs = [mp.mpf(0)]  # placeholder for unused index 0
        xs.append(+(sigmas.mpf(1) / 2))  # xi'(1) = sigma_1 / 2
        for n in range(1, n_max):
            acc = (-1) ** n * mp.factorial(n) * sigmas.mpf(n + 1) / 2
            for k in range(1, n + 1):
                acc += (
                    math.comb(n, k)
                    * (-1) ** (n - k)
                    * mp.factorial(n - k)
                    * sigmas.mpf(n - k + 1)
                    * xs[k]
                )
            xs.append(+acc)
    return ConstantTable.of("xi1", xs[1:], XI_RECURRENCE_TAG, ctx)


def xi_deriv_at_zero(n: int, xi_at_one: ConstantTable) -> mpf:
    """xi^(n)(0) = (-1)^n xi^(n)(1), by the reflection xi(s) = xi(1-s)."""
    if xi_at_one.kind != "xi1":
        raise ValueError("xi_deriv_at_zero needs a xi1 table")
    base = xi_at_one.mpf(n)
    return base if n % 2 == 0 else -base
