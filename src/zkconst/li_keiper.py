"""Li/Keiper constants through four independent formula routes.

lambda_n is the n-th coefficient in Li's positivity criterion: nonnegativity
of the whole sequence is equivalent to the Riemann Hypothesis.  The package
computes each lambda_r by up to four routes and insists they agree:

  closed-2.13 / closed-3.6   closed forms for r = 1, 2
  sigma-3.29                 lambda_r = -sum_{j=1}^r (-1)^j C(r,j) sigma_j
  eta-psi-3.33               binomial sum over polygamma values at 3/2 and
                             eta constants, plus a linear term
  coffey-3.34                binomial sum over integer zeta values and eta
                             constants; its additive constant is calibrated
                             at build time against closed-3.6 and reported,
                             never hardcoded

The sigma route is canonical (simplest error surface); the others are
verification-only.  lambda_0 = 0 by convention throughout.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from .eta_sigma import SIGMA_CLOSED_TAG
from .kernel import (
    log2_mpf,
    log_pi_mpf,
    polygamma_three_halves_mpf,
    zeta_int_mpf,
)
from .precision import PrecisionContext
from .reports import inequality_report
from .stieltjes import FAMILIES, ConstantTable, require, stieltjes_gamma

LAMBDA_TAG = "sigma-3.29"
LAMBDA_CLOSED_TAGS = {1: SIGMA_CLOSED_TAG, 2: "closed-3.6"}
LAMBDA_ETA_PSI_TAG = "eta-psi-3.33"
LAMBDA_COFFEY_TAG = "coffey-3.34"
G_DERIV_TAG = "binomial-3.26"
G_DERIV_ETA_TAG = "eta-psi-3.32"
RESIDUAL_TAG = "recurrence-3.13"


def falling_factorial(x, j: int):
    """x (x-1) ... (x-j+1); exact for int/Fraction inputs, 1 for j = 0."""
    out = 1
    for i in range(j):
        out = out * (x - i)
    return out


def rising_factorial(x, p: int):
    """x (x+1) ... (x+p-1); exact for int/Fraction inputs, 1 for p = 0."""
    out = 1
    for i in range(p):
        out = out * (x + i)
    return out


def binomial_alternating_transform(seq):
    """a_n = sum_{k=0}^n C(n,k) (-1)^k b_k; an exact involution."""
    return [
        sum(math.comb(n, k) * (-1) ** k * seq[k] for k in range(n + 1))
        for n in range(len(seq))
    ]


def lambda_closed(n: int, ctx: PrecisionContext) -> mpf:
    """Closed forms: only lambda_1 and lambda_2 have one."""
    if n not in (1, 2):
        raise ValueError("closed forms exist only for n in (1, 2)")
    with mp.workdps(ctx.working_dps + 5):
        gamma = stieltjes_gamma(0, 1, ctx)
        log2 = log2_mpf(ctx)
        logpi = log_pi_mpf(ctx)
        if n == 1:
            return +(-logpi / 2 + gamma / 2 + 1 - log2)
        gamma1 = stieltjes_gamma(1, 1, ctx)
        z2 = zeta_int_mpf(2, ctx)
        return +(
            mpf(3) / 4 * z2
            + 1
            + gamma
            - gamma**2
            - 2 * log2
            - logpi
            - 2 * gamma1
        )


def lambda_via_sigma(r: int, sigmas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """lambda_r = -sum_{j=1}^r (-1)^j C(r,j) sigma_j.

    The binomial transform of the sigma coefficients; the left-hand index is
    r (the transform order), not the summation index.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("lambda index must be an integer >= 1")
    require(sigmas, "sigma", r, "lambda_via_sigma")
    with mp.workdps(ctx.working_dps + 5):
        acc = mp.mpf(0)
        for j in range(1, r + 1):
            acc += (-1) ** j * math.comb(r, j) * sigmas.mpf(j)
        return +(-acc)


def lambda_table(max_r: int, sigmas: ConstantTable, ctx: PrecisionContext) -> ConstantTable:
    """lambda_1 .. lambda_max_r through the canonical sigma route."""
    if not isinstance(max_r, int) or max_r < 1:
        raise ValueError("lambda table needs max_r >= 1")
    values = [lambda_via_sigma(r, sigmas, ctx) for r in range(1, max_r + 1)]
    return ConstantTable.of("lambda", values, LAMBDA_TAG, ctx)


def _linear_term(r: int, gamma, ctx: PrecisionContext):
    """r/2 (gamma - 2 log 2 + 2 - log pi) = r * lambda_1."""
    return r * (gamma - 2 * log2_mpf(ctx) + 2 - log_pi_mpf(ctx)) / 2


def lambda_via_eta_psi(r: int, etas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """lambda_r from polygamma values at 3/2 and eta constants.

    lambda_r = sum_{j=2}^r C(r,j)/(j-1)! [psi^(j-1)(3/2)/2^j - (j-1)! eta_{j-1}]
               + r/2 (gamma - 2 log 2 + 2 - log pi)

    r = 1 is the bare linear term, which is lambda_1 itself.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("lambda index must be an integer >= 1")
    require(etas, "eta", r - 1, "lambda_via_eta_psi")
    with mp.workdps(ctx.working_dps + 5):
        gamma = -etas.mpf(0)
        acc = _linear_term(r, gamma, ctx)
        for j in range(2, r + 1):
            psi = polygamma_three_halves_mpf(j - 1, ctx)
            bracket = psi / mpf(2) ** j - mp.factorial(j - 1) * etas.mpf(j - 1)
            acc += math.comb(r, j) * bracket / mp.factorial(j - 1)
        return +acc


def _coffey_sum(r: int, etas: ConstantTable, ctx: PrecisionContext):
    """Everything in the coffey-3.34 route except its additive constant."""
    gamma = -etas.mpf(0)
    acc = mp.mpf(0)
    for j in range(2, r + 1):
        acc += (
            (-1) ** j
            * math.comb(r, j)
            * (1 - mpf(2) ** (-j))
            * zeta_int_mpf(j, ctx, extra_dps=5)
        )
    for j in range(1, r + 1):
        acc -= math.comb(r, j) * etas.mpf(j - 1)
    acc -= r * (gamma + 2 * log2_mpf(ctx) + log_pi_mpf(ctx)) / 2
    return acc


def coffey_constant(etas: ConstantTable, ctx: PrecisionContext):
    """The additive constant of the coffey-3.34 route, calibrated at r = 2.

    Printed statements of this formula disagree on whether the constant is
    0, 1 or 2, so it is fixed numerically against the lambda_2 closed form
    and reported alongside any value computed through the route.
    """
    require(etas, "eta", 1, "coffey_constant")
    with mp.workdps(ctx.working_dps + 5):
        return +(lambda_closed(2, ctx) - _coffey_sum(2, etas, ctx))


def lambda_via_coffey(r: int, etas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """lambda_r from integer zeta values and eta constants (r >= 2)."""
    if not isinstance(r, int) or r < 2:
        raise ValueError("this route is defined for r >= 2")
    require(etas, "eta", r - 1, "lambda_via_coffey")
    with mp.workdps(ctx.working_dps + 5):
        return +(_coffey_sum(r, etas, ctx) + coffey_constant(etas, ctx))


def g_derivs_at_one(r: int, lambdas: ConstantTable, ctx: PrecisionContext) -> mpf:
    """Derivatives at 1 of the log-derivative of xi:

    g^(r)(1) = (-1)^(r+1) r! sum_{j=1}^{r+1} C(r+1,j) (-1)^j lambda_j

    with lambda_0 = 0, so g(1) = lambda_1, g'(1) = lambda_2 - 2 lambda_1, ...
    """
    if not isinstance(r, int) or r < 0:
        raise ValueError("derivative order must be an integer >= 0")
    require(lambdas, "lambda", r + 1, "g_derivs_at_one")
    with mp.workdps(ctx.working_dps + 5):
        acc = mp.mpf(0)
        for j in range(1, r + 2):
            acc += math.comb(r + 1, j) * (-1) ** j * lambdas.mpf(j)
        return +((-1) ** (r + 1) * mp.factorial(r) * acc)


def g_derivs_at_one_via_eta(
    r: int, etas: ConstantTable, ctx: PrecisionContext
) -> mpf:
    """Independent route: g^(r)(1) = psi^(r)(3/2)/2^(r+1) - r! eta_r
    - [r = 0] log(pi)/2."""
    if not isinstance(r, int) or r < 0:
        raise ValueError("derivative order must be an integer >= 0")
    require(etas, "eta", r, "g_derivs_at_one_via_eta")
    with mp.workdps(ctx.working_dps + 5):
        value = polygamma_three_halves_mpf(r, ctx) / mpf(2) ** (r + 1)
        value -= mp.factorial(r) * etas.mpf(r)
        if r == 0:
            value -= log_pi_mpf(ctx) / 2
        return +value


def recurrence_residual_3_13(
    n: int,
    gammas: ConstantTable,
    lambdas: ConstantTable,
    ctx: PrecisionContext,
) -> mpf:
    """|LHS - RHS| of the master gamma/lambda recurrence at index n.

    LHS = psi^(n+1)(3/2)/2^(n+2)
          + (n+1)/2^(n+1) sum_{m=0}^n C(n,m) (-1)^m gamma_m 2^m psi^(n-m)(3/2)
          + 1/2 (-1)^(n+1) (n+1) gamma_n log pi
          + (-1)^(n+1) (n+2) gamma_{n+1}
    RHS = (-1)^n (n+1)! sum_{j=1}^{n+2} C(n+2,j) (-1)^j lambda_j
          + (-1)^(n+1) (n+1) sum_{m=0}^n C(n,m) m! gamma_{n-m}
            sum_{j=1}^{m+1} C(m+1,j) (-1)^j lambda_j

    The gamma-weighted double sum carries the coefficient (n+1) C(n,m) m!;
    that weight is forced by the n = 0 specialization (tag eq-3.14), where
    the sum must contribute exactly gamma * lambda_1.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("recurrence index must be an integer >= 0")
    require(gammas, "gamma", n + 1, "recurrence_residual_3_13")
    require(lambdas, "lambda", n + 2, "recurrence_residual_3_13")
    with mp.workdps(ctx.working_dps + n + 10):
        psis = [polygamma_three_halves_mpf(k, ctx) for k in range(n + 2)]
        lhs = psis[n + 1] / mpf(2) ** (n + 2)
        s = mp.mpf(0)
        for m in range(n + 1):
            s += (
                math.comb(n, m)
                * (-1) ** m
                * gammas.mpf(m)
                * mpf(2) ** m
                * psis[n - m]
            )
        lhs += (n + 1) * s / mpf(2) ** (n + 1)
        lhs += (-1) ** (n + 1) * (n + 1) * gammas.mpf(n) * log_pi_mpf(ctx) / 2
        lhs += (-1) ** (n + 1) * (n + 2) * gammas.mpf(n + 1)

        rhs = mp.mpf(0)
        for j in range(1, n + 3):
            rhs += math.comb(n + 2, j) * (-1) ** j * lambdas.mpf(j)
        rhs *= (-1) ** n * mp.factorial(n + 1)
        double = mp.mpf(0)
        for m in range(n + 1):
            inner = mp.mpf(0)
            for j in range(1, m + 2):
                inner += math.comb(m + 1, j) * (-1) ** j * lambdas.mpf(j)
            double += math.comb(n, m) * mp.factorial(m) * gammas.mpf(n - m) * inner
        rhs += (-1) ** (n + 1) * (n + 1) * double

        return +abs(lhs - rhs)


def positivity_report(max_n: int, ctx: PrecisionContext):
    """Sign verdicts for lambda_1..lambda_max_n plus the chained inequalities.

    Returns one VerificationReport per lambda index asserting nonnegativity,
    dedicated reports for lambda_2 > lambda_1 (2 - lambda_1), for
    lambda_2 > lambda_1, and for lambda_3 > 0.  Failures are reported, not
    raised.  The range error names the li-check flag, since the CLI passes
    --max-n straight through.
    """
    from .chain import table  # not at the top: chain imports li_keiper

    start, cap = FAMILIES["lambda"]
    if not isinstance(max_n, int) or not start <= max_n <= cap:
        raise ValueError(f"--max-n for li-check must lie in [{start}, {cap}]")
    lambdas = table("lambda", max(max_n, 3), ctx)
    reports = []
    for r in range(1, max_n + 1):
        reports.append(
            inequality_report(
                f"li-positivity-n{r}",
                lambdas.mpf(r),
                0,
                ctx,
                method_tags=(LAMBDA_TAG,),
            )
        )
    with mp.workdps(ctx.working_dps + 5):
        l1 = lambdas.mpf(1)
        bound_317 = +(l1 * (2 - l1))
    reports.append(
        inequality_report(
            "eq-3.17",
            lambdas.mpf(2),
            bound_317,
            ctx,
            method_tags=(LAMBDA_TAG, "xi2-positivity"),
        )
    )
    reports.append(
        inequality_report(
            "eq-3.18",
            lambdas.mpf(2),
            lambdas.mpf(1),
            ctx,
            method_tags=(LAMBDA_TAG,),
        )
    )
    reports.append(
        inequality_report(
            "li-lambda3-positive",
            lambdas.mpf(3),
            0,
            ctx,
            method_tags=(LAMBDA_TAG, "xi3-positivity"),
        )
    )
    return reports
