"""Derivatives of the Riemann xi function at s = 1.

With g(s) the log-derivative of xi and sigma_k its Taylor data at s = 1,
successive derivatives of xi = xi * exp-integral structure collapse onto a
complete Bell polynomial in the sigma coefficients:

    xi^(n)(1) = 1/2 Y_n(sigma_1, -1! sigma_2, ..., (-1)^(n-1) (n-1)! sigma_n)

since xi(1) = xi(0) = 1/2.  That Bell form is the canonical route here, and
both routes map sigma_1..sigma_m to xi^(1)(1)..xi^(m)(1) under the sigma
table's context, refusing an m past the xi1 cap before any entry.  The same
recurrence that powers Y_{n+1} gives the cross-check

    xi^(n+1)(1) = 1/2 (-1)^n n! sigma_{n+1}
                  + sum_{k=1}^n C(n,k) (-1)^(n-k) (n-k)! sigma_{n-k+1} xi^(k)(1)

(the sigma index inside the sum is n-k+1 with weight (n-k)! and sign
(-1)^(n-k); this is the unique assignment consistent with the Bell route --
the k = n term must contribute C(n,n) sigma_1 xi^(n)(1) -- and it needs no
sigma_0 at all).
"""

from __future__ import annotations

import math

from .bell import bell_recurrence_values
from .stieltjes import Binary, ConstantTable, _check_last, require, workdps

XI_BELL_TAG = "bell-3.25"
XI_RECURRENCE_TAG = "recurrence-6.2-shifted"
# the recurrence variant validated against the Bell route, recorded for
# report output: sigma index n-k+1, factorial (n-k)!, sign (-1)^(n-k)
XI_RECURRENCE_CONVENTION = "sigma[n-k+1] * (n-k)! * (-1)^(n-k)"


def xi_table(sigmas: ConstantTable) -> ConstantTable:
    """xi^(n)(1) for every sigma_n in the table, through the Bell route:
    xi^(n)(1) is half of Y_n at x_j = (-1)^(j-1) (j-1)! sigma_j."""
    ctx = require(sigmas, "sigma", "xi_table")
    _check_last("xi1", sigmas.max_n)
    with workdps(ctx.dps("step")):
        args = [
            (-1) ** (j - 1) * math.factorial(j - 1) * sigmas[j]
            for j in range(1, sigmas.max_n + 1)
        ]
        values = [y / 2 for y in bell_recurrence_values(args)[1:]]
    return ConstantTable("xi1", values, XI_BELL_TAG, ctx)


def xi_deriv_recurrence(sigmas: ConstantTable) -> ConstantTable:
    """xi^(n)(1) for every sigma_n in the table by the recurrence, as a
    verification route."""
    ctx = require(sigmas, "sigma", "xi_deriv_recurrence")
    _check_last("xi1", sigmas.max_n)
    with workdps(ctx.dps("step")):
        xs = [Binary(0)]  # placeholder for unused index 0
        xs.append(sigmas[1] / 2)  # xi'(1) = sigma_1 / 2
        for n in range(1, sigmas.max_n):
            acc = (-1) ** n * math.factorial(n) * sigmas[n + 1] / 2
            for k in range(1, n + 1):
                acc += (
                    math.comb(n, k)
                    * (-1) ** (n - k)
                    * math.factorial(n - k)
                    * sigmas[n - k + 1]
                    * xs[k]
                )
            xs.append(acc)
    return ConstantTable("xi1", xs[1:], XI_RECURRENCE_TAG, ctx)

