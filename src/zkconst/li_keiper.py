"""Li/Keiper constants through four independent formula routes.

lambda_n is the n-th coefficient in Li's positivity criterion: nonnegativity
of the whole sequence is equivalent to the Riemann Hypothesis.  The package
computes each lambda_r, r >= 2, by up to four routes and insists they agree:

  closed-3.6     lambda_2's closed form (lambda_closed)
  sigma-3.29     lambda_r = -sum_{j=1}^r (-1)^j C(r,j) sigma_j, one r per
                 sigma_r, in one pass (lambda_table)
  eta-psi-3.33   binomial sum over polygamma values at 3/2 and eta
                 constants, plus a linear term
  coffey-3.34    binomial sum over integer zeta values and eta constants,
                 plus the 1 that the factor s of xi(s) adds to every lambda_r

lambda_1 has one expression only, -log(pi)/2 + gamma/2 + 1 - log 2: its
closed form (lambda_closed(1), closed-2.13), sigma_1, the eta-psi-3.33
linear term and g(1) all reduce to it, so no two routes check it.
The sigma route is canonical (simplest error surface); the others are
verification-only.  Every route computes under its table's context, and
the recurrence-3.13 residual refuses two tables at two contexts.
lambda_0 = sigma_0 = 0 by convention throughout, so every alternating
binomial sum over sigma or lambda (sigma-3.29, binomial-3.26, the
recurrence-3.13 residual) is an entry of binomial_alternating_transform;
the other routes keep their own sums.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import chain
from .kernel import atoms, polygamma_three_halves_mpf, zeta_int_mpf
from .precision import FAMILIES, PrecisionContext, check_index, extra_digits
from .reports import inequality_report, inequality_reports
from .stieltjes import Binary, ConstantTable, require, stieltjes_gamma, workdps

LAMBDA_TAG = "sigma-3.29"
LAMBDA_CLOSED_TAG = "closed-3.6"
LAMBDA_ETA_PSI_TAG = "eta-psi-3.33"
LAMBDA_COFFEY_TAG = "coffey-3.34"
G_DERIV_TAG = "binomial-3.26"
G_DERIV_ETA_TAG = "eta-psi-3.32"
RESIDUAL_TAG = "recurrence-3.13"


def binomial_alternating_transform(seq):
    """a_n = sum_{k=0}^n C(n,k) (-1)^k b_k = (-1)^n d^n b_0 for every n < len(seq),
    the last entry of the difference diagonal [b_n, d b_(n-1), ..., d^n b_0],
    grown by subtractions alone: an exact involution on exact values."""
    sums, diagonal = [], []
    for n, b in enumerate(seq):
        diagonal = list(itertools.accumulate(diagonal, operator.sub, initial=b))
        sums.append(-diagonal[-1] if n % 2 else diagonal[-1])
    return sums


def lambda_closed(n: int, ctx: PrecisionContext) -> Binary:
    """Closed forms: only lambda_1 and lambda_2 have one."""
    check_index(n, "a closed form's index n", 1, 2)
    with workdps(ctx.working_dps + extra_digits("step")):
        gamma = stieltjes_gamma(0, Binary(1), ctx)
        logs = atoms(ctx.working_dps)
        if n == 1:
            return +(-logs.log_pi / 2 + gamma / 2 + 1 - logs.log2)
        gamma1 = stieltjes_gamma(1, Binary(1), ctx)
        z2 = zeta_int_mpf(2, ctx)
        return +(
            Binary(3, -2) * z2
            + 1
            + gamma
            - gamma**2
            - 2 * logs.log2
            - logs.log_pi
            - 2 * gamma1
        )


def lambda_table(sigmas: ConstantTable) -> ConstantTable:
    """lambda_r for every sigma_r in the table, through the canonical sigma
    route: the negated binomial transform of sigma_0 = 0, sigma_1, ..."""
    ctx = require(sigmas, "sigma", "lambda_table")
    with workdps(ctx.working_dps + extra_digits("step")):
        transform = binomial_alternating_transform([0, *sigmas.values])
        values = [-t for t in transform[1:]]
    return ConstantTable.of("lambda", values, LAMBDA_TAG, ctx)


def _linear_term(r: int, gamma, ctx: PrecisionContext):
    """r/2 (gamma - 2 log 2 + 2 - log pi) = r * lambda_1."""
    logs = atoms(ctx.working_dps)
    return r * (gamma - 2 * logs.log2 + 2 - logs.log_pi) / 2


def lambda_via_eta_psi(r: int, etas: ConstantTable) -> Binary:
    """lambda_r from polygamma values at 3/2 and eta constants.

    lambda_r = sum_{j=2}^r C(r,j)/(j-1)! [psi^(j-1)(3/2)/2^j - (j-1)! eta_{j-1}]
               + r/2 (gamma - 2 log 2 + 2 - log pi)

    r = 1 is the bare linear term, which is lambda_1 itself.
    """
    check_index(r, "the lambda index r", 1)
    ctx = require(etas, "eta", "lambda_via_eta_psi", r - 1)
    with workdps(ctx.working_dps + extra_digits("step")):
        gamma = -etas[0]
        acc = _linear_term(r, gamma, ctx)
        for j in range(2, r + 1):
            psi = polygamma_three_halves_mpf(j - 1, ctx)
            bracket = psi / 2 ** j - math.factorial(j - 1) * etas[j - 1]
            acc += math.comb(r, j) * bracket / math.factorial(j - 1)
        return +acc


def lambda_via_coffey(r: int, etas: ConstantTable) -> Binary:
    """lambda_r from integer zeta values and eta constants (r >= 2)."""
    check_index(r, "the coffey-3.34 index r", 2)
    ctx = require(etas, "eta", "lambda_via_coffey", r - 1)
    with workdps(ctx.working_dps + extra_digits("step")):
        gamma = -etas[0]
        acc = Binary(0)
        for j in range(2, r + 1):
            acc += (
                (-1) ** j
                * math.comb(r, j)
                * (1 - Binary(1, -j))
                * zeta_int_mpf(j, ctx)
            )
        for j in range(1, r + 1):
            acc -= math.comb(r, j) * etas[j - 1]
        logs = atoms(ctx.working_dps)
        acc -= r * (gamma + 2 * logs.log2 + logs.log_pi) / 2
        # lambda_r = r [z^r] log xi(1/(1-z)), and the factor s of
        # xi(s) = s (s-1) pi^(-s/2) Gamma(s/2) zeta(s) / 2 gives
        # log s = -log(1-z) = sum_r z^r / r there: 1 in every lambda_r
        return +(acc + 1)


def g_derivs_at_one(r: int, lambdas: ConstantTable) -> Binary:
    """Derivatives at 1 of the log-derivative of xi:

    g^(r)(1) = (-1)^(r+1) r! sum_{j=1}^{r+1} C(r+1,j) (-1)^j lambda_j

    with lambda_0 = 0, so g(1) = lambda_1, g'(1) = lambda_2 - 2 lambda_1, ...
    """
    check_index(r, "the derivative order r", 0)
    ctx = require(lambdas, "lambda", "g_derivs_at_one", r + 1)
    with workdps(ctx.working_dps + extra_digits("step")):
        acc = binomial_alternating_transform([0, *lambdas.values[: r + 1]])[r + 1]
        return +((-1) ** (r + 1) * math.factorial(r) * acc)


def g_derivs_at_one_via_eta(r: int, etas: ConstantTable) -> Binary:
    """Independent route: g^(r)(1) = psi^(r)(3/2)/2^(r+1) - r! eta_r
    - [r = 0] log(pi)/2."""
    check_index(r, "the derivative order r", 0)
    ctx = require(etas, "eta", "g_derivs_at_one_via_eta", r)
    with workdps(ctx.working_dps + extra_digits("step")):
        value = polygamma_three_halves_mpf(r, ctx) / 2 ** (r + 1)
        value -= math.factorial(r) * etas[r]
        if r == 0:
            value -= atoms(ctx.working_dps).log_pi / 2
        return +value


def recurrence_residual_3_13(n: int, gammas: ConstantTable, lambdas: ConstantTable) -> Binary:
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
    check_index(n, "the recurrence index n", 0)
    ctx = require(gammas, "gamma", "recurrence_residual_3_13", n + 1)
    if require(lambdas, "lambda", "recurrence_residual_3_13", n + 2) != ctx:
        raise ValueError("recurrence_residual_3_13 needs its two tables at one context")
    with workdps(ctx.working_dps + extra_digits("residual_3_13", n)):
        psis = [polygamma_three_halves_mpf(k, ctx) for k in range(n + 2)]
        lhs = psis[n + 1] / 2 ** (n + 2)
        s = Binary(0)
        for m in range(n + 1):
            s += (
                math.comb(n, m)
                * (-1) ** m
                * gammas[m]
                * 2 ** m
                * psis[n - m]
            )
        lhs += (n + 1) * s / 2 ** (n + 1)
        lhs += (-1) ** (n + 1) * (n + 1) * gammas[n] * atoms(ctx.working_dps).log_pi / 2
        lhs += (-1) ** (n + 1) * (n + 2) * gammas[n + 1]

        # sums[k] = sum_{j=1}^k C(k,j) (-1)^j lambda_j, with lambda_0 = 0
        sums = binomial_alternating_transform([0, *lambdas.values[: n + 2]])
        rhs = sums[n + 2] * ((-1) ** n * math.factorial(n + 1))
        double = Binary(0)
        for m in range(n + 1):
            double += math.comb(n, m) * math.factorial(m) * gammas[n - m] * sums[m + 1]
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
    check_index(max_n, "--max-n for li-check", *FAMILIES["lambda"])
    lambdas = chain.table("lambda", max(max_n, 3), ctx)
    reports = inequality_reports(
        range(1, max_n + 1), ctx,
        ("li-positivity-n", lambda r: lambdas[r], lambda r: 0, (LAMBDA_TAG,)),
    )
    with workdps(ctx.working_dps + extra_digits("side")):
        l1 = lambdas[1]
        bound_317 = +(l1 * (2 - l1))
    reports.append(
        inequality_report(
            "eq-3.17",
            lambdas[2],
            bound_317,
            ctx,
            method_tags=(LAMBDA_TAG, "xi2-positivity"),
        )
    )
    reports.append(
        inequality_report(
            "eq-3.18",
            lambdas[2],
            lambdas[1],
            ctx,
            method_tags=(LAMBDA_TAG,),
        )
    )
    reports.append(
        inequality_report(
            "li-lambda3-positive",
            lambdas[3],
            0,
            ctx,
            method_tags=(LAMBDA_TAG, "xi3-positivity"),
        )
    )
    return reports
