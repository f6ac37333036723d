"""Identity suites: every cross-route claim in the package, run end to end.

Each suite builds the constant tables it needs, evaluates both sides of each
identity, and emits one VerificationReport per check.  Exact combinatorial
identities run in rational arithmetic on seeded random vectors (the seed is
fixed, so repeated runs are byte-identical); numeric identities are judged
against 10^-tol_exp, defaulting to tol_exp = digits - 5.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpf

from . import bell, eta_sigma, li_keiper, xi, zeta_derivs
from .chain import table
from .kernel import log_2pi_mpf, zeta_int_mpf
from .precision import MAX_DIGITS, PrecisionContext
from .reports import (
    default_tol,
    equality_report,
    exact_report,
    inequality_report,
)
from .stieltjes import GAMMA_TAG, alternating_binomial_sum, stieltjes_gamma

_RNG_SEED = 1729

# the degree-1..5 polynomials the symbolic generator must reproduce term for
# term (exponent vector over x_1..x_n -> coefficient)
_REFERENCE_POLYS = {
    1: {(1,): 1},
    2: {(2, 0): 1, (0, 1): 1},
    3: {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1},
    4: {(4, 0, 0, 0): 1, (2, 1, 0, 0): 6, (1, 0, 1, 0): 4, (0, 2, 0, 0): 3,
        (0, 0, 0, 1): 1},
    5: {(5, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 10, (2, 0, 1, 0, 0): 10,
        (1, 2, 0, 0, 0): 15, (1, 0, 0, 1, 0): 5, (0, 1, 1, 0, 0): 10,
        (0, 0, 0, 0, 1): 1},
}


def _random_fractions(rng, n, lo=-20, hi=20, max_den=12):
    return [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(n)]


# ---------------------------------------------------------------------------
# bell suite


def _central_diff_exp_cubic(x, m, digits):
    """m-th derivative of exp(t^3) at x by a central difference stencil.

    Step h = 10^-(digits+2)/2 gives truncation ~h^2; evaluations carry
    enough extra digits that the h^-m noise amplification stays below the
    truncation error.
    """
    eval_dps = (m * (digits + 2)) // 2 + digits + 25
    with mp.workdps(eval_dps):
        h = mpf(10) ** (-(digits + 2) / 2.0)
        acc = mp.mpf(0)
        for i in range(m + 1):
            node = x + (mpf(m) / 2 - i) * h
            acc += (-1) ** i * math.comb(m, i) * mp.exp(node**3)
        return acc / h**m


def _first_mismatch(identity, pairs, ctx, method_tags):
    """Exact report that every (lhs, rhs) in `pairs` is equal.

    `pairs` is lazy, so seeded trials stop drawing at the first mismatch,
    which becomes the witness; when all agree the last pair is the witness.
    """
    lhs = rhs = Fraction(0)
    for lhs, rhs in pairs:
        if lhs != rhs:
            break
    return exact_report(identity, lhs == rhs, lhs, rhs, ctx, method_tags=method_tags)


def _route_pairs(rng, n):
    """Partition sum against recurrence, then against determinant, per trial."""
    poly = bell.bell_symbolic(n)
    for _ in range(100):
        v = _random_fractions(rng, n)
        a = poly.substitute(v)
        b = bell.bell_recurrence_value(v)
        c = bell.bell_determinant(v)
        yield a, b
        yield a, c


def _convolution_pairs(rng, n):
    for _ in range(20):
        xs = _random_fractions(rng, n)
        ys = _random_fractions(rng, n)
        lhs = bell.bell_recurrence_value([a + b for a, b in zip(xs, ys)])
        rhs = sum(
            math.comb(n, k)
            * bell.bell_recurrence_value(xs[: n - k])
            * bell.bell_recurrence_value(ys[:k])
            for k in range(n + 1)
        )
        yield lhs, rhs


def _scaled_determinant_pairs(rng, n):
    for _ in range(20):
        bs = _random_fractions(rng, n)
        scaled = [math.factorial(j) * bs[j] for j in range(n)]
        yield (
            bell.bell_recurrence_value(scaled),
            bell.bracket_determinant([(-1) ** k * bs[k] for k in range(n)]),
        )


def suite_bell(ctx: PrecisionContext, tol_exp: int | None = None):
    rng = random.Random(_RNG_SEED)
    reports = []

    for n in range(1, 9):
        reports.append(
            _first_mismatch(
                f"bell-routes-exact-n{n}", _route_pairs(rng, n), ctx,
                ("partition-A.1", "recurrence-3.30", "determinant-A.17"),
            )
        )

    for n in range(1, 6):
        got = bell.bell_symbolic(n).terms
        ok = got == _REFERENCE_POLYS[n]
        reports.append(
            exact_report(
                f"bell-printed-poly-n{n}", ok, 1 if ok else 0, 1, ctx,
                method_tags=("partition-A.1", "printed-3.24"),
            )
        )

    for n in range(1, 11):
        poly = bell.bell_symbolic(n)
        ok = all(
            sum((j + 1) * e for j, e in enumerate(expo)) == n and coeff > 0
            for expo, coeff in poly.sorted_terms()
        )
        reports.append(
            exact_report(
                f"bell-monomial-weights-n{n}", ok, 1 if ok else 0, 1, ctx,
                method_tags=("partition-A.1", "weight-A.2"),
            )
        )

    for n in range(1, 7):
        reports.append(
            _first_mismatch(
                f"bell-convolution-n{n}", _convolution_pairs(rng, n), ctx,
                ("recurrence-3.30", "convolution-5.4"),
            )
        )

    for n in range(1, 7):
        reports.append(
            _first_mismatch(
                f"bell-scaled-determinant-n{n}", _scaled_determinant_pairs(rng, n),
                ctx, ("recurrence-3.30", "determinant-A.16"),
            )
        )

    # derivative rule for exp(f): d^m/dx^m e^(f(x)) = e^f Y_m(f', ..., f^(m))
    # probed with f(x) = x^3, so f' = 3x^2, f'' = 6x, f''' = 6, higher = 0
    diff_tol = default_tol(ctx, ctx.digits - 3)
    for m in range(1, 6):
        with mp.workdps(ctx.working_dps + 10):
            for xs in ("0.3", "0.7"):
                x = mpf(xs)
                args = [3 * x**2, 6 * x, mpf(6), mpf(0), mpf(0)][:m]
                lhs = mp.exp(x**3) * bell.bell_recurrence_value(args)
                rhs = _central_diff_exp_cubic(x, m, ctx.digits)
                reports.append(
                    equality_report(
                        f"bell-exp-derivative-m{m}-x{xs}", lhs, rhs, diff_tol, ctx,
                        method_tags=("bell-A.5", "central-difference"),
                    )
                )
    return reports


# ---------------------------------------------------------------------------
# stieltjes suite


def suite_stieltjes(ctx: PrecisionContext, tol_exp: int | None = None):
    tol = default_tol(ctx, tol_exp)
    reports = []

    # inner alternating sums of the constant 1 collapse to a Kronecker delta
    ok = alternating_binomial_sum([1]) == 1 and all(
        alternating_binomial_sum([1] * (i + 1)) == 0 for i in range(1, 13)
    )
    reports.append(
        exact_report(
            "hasse-normalization-delta", ok, 1 if ok else 0, 1, ctx,
            method_tags=(GAMMA_TAG, "limit-2.5"),
        )
    )

    gamma = stieltjes_gamma(0, 1, ctx)
    gamma_at_2 = stieltjes_gamma(0, 2, ctx)
    with mp.workdps(ctx.working_dps + 5):
        reports.append(
            equality_report(
                "gamma0-at-2-is-gamma-minus-1",
                gamma_at_2,
                gamma - 1,
                tol,
                ctx,
                method_tags=(GAMMA_TAG, "digamma-shift"),
            )
        )

    # precision escalation: D and D+20 agree to 10^-(D-2)
    step = min(20, MAX_DIGITS - ctx.digits)
    if step > 0:
        esc = ctx.escalated(step)
        esc_tol = default_tol(ctx, ctx.digits - 2)
        for n in (0, 1, 5):
            a = stieltjes_gamma(n, 1, ctx)
            b = stieltjes_gamma(n, 1, esc)
            reports.append(
                equality_report(
                    f"gamma-escalation-n{n}", a, b, esc_tol, ctx,
                    method_tags=(GAMMA_TAG, f"{GAMMA_TAG}@{esc.digits}d"),
                )
            )

    # guard stability: guard_digits -> guard_digits + 10 moves the value
    # by less than 10^-(digits-2)
    wide = PrecisionContext(ctx.digits, ctx.guard_digits + 10)
    guard_tol = default_tol(ctx, ctx.digits - 2)
    for n in (1, 3):
        a = stieltjes_gamma(n, 1, ctx)
        b = stieltjes_gamma(n, 1, wide)
        reports.append(
            equality_report(
                f"gamma-guard-stability-n{n}", a, b, guard_tol, ctx,
                method_tags=(GAMMA_TAG, f"{GAMMA_TAG}+guard"),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# eta suite


def suite_eta(ctx: PrecisionContext, tol_exp: int | None = None):
    tol = default_tol(ctx, tol_exp)
    reports = []
    max_n = 12
    gammas = table("gamma", max_n, ctx)
    etas = table("eta", max_n, ctx)
    etas_alt = eta_sigma.eta_from_gamma_coffey(max_n, gammas, ctx)

    with mp.workdps(ctx.working_dps + 5):
        g0, g1, g2 = gammas.mpf(0), gammas.mpf(1), gammas.mpf(2)
        reports.append(
            equality_report(
                "eta0-is-neg-gamma", etas.mpf(0), -g0, tol, ctx,
                method_tags=(eta_sigma.ETA_TAG, GAMMA_TAG),
            )
        )
        reports.append(
            equality_report(
                "eta1-closed-form", etas.mpf(1), g0**2 + 2 * g1, tol, ctx,
                method_tags=(eta_sigma.ETA_TAG, GAMMA_TAG),
            )
        )
        reports.append(
            equality_report(
                "eta2-closed-form",
                3 * g2,
                -2 * g0**3 - 6 * g0 * g1 - 2 * etas.mpf(2),
                tol,
                ctx,
                method_tags=(eta_sigma.ETA_TAG, GAMMA_TAG),
            )
        )
        reports.append(
            inequality_report(
                "eta1-nonneg-consequence", 2 * g1 + g0**2, 0, ctx,
                method_tags=(GAMMA_TAG,),
            )
        )

    for n in range(max_n + 1):
        reports.append(
            equality_report(
                f"eta-recurrence-agreement-n{n}",
                etas.mpf(n),
                etas_alt.mpf(n),
                tol,
                ctx,
                method_tags=(eta_sigma.ETA_TAG, eta_sigma.ETA_COFFEY_TAG),
            )
        )

    reports.append(
        inequality_report(
            "eta0-negative", 0, etas.mpf(0), ctx, method_tags=(eta_sigma.ETA_TAG,)
        )
    )
    for n in range(1, max_n + 1):
        signed = etas.mpf(n) if n % 2 == 1 else -etas.mpf(n)
        reports.append(
            inequality_report(
                f"eta-sign-alternation-n{n}", signed, 0, ctx,
                method_tags=(eta_sigma.ETA_TAG,),
            )
        )

    round_trip = eta_sigma.gamma_from_eta(8, etas, ctx)
    for n in range(9):
        reports.append(
            equality_report(
                f"gamma-eta-roundtrip-n{n}",
                round_trip.mpf(n),
                gammas.mpf(n),
                tol,
                ctx,
                method_tags=(eta_sigma.GAMMA_FROM_ETA_TAG, GAMMA_TAG),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# lambda suite


def suite_lambda(ctx: PrecisionContext, tol_exp: int | None = None):
    tol = default_tol(ctx, tol_exp)
    reports = []
    max_r = 10
    gammas = table("gamma", max_r + 1, ctx)
    etas = table("eta", max_r + 1, ctx)
    lambdas = table("lambda", max_r + 2, ctx)

    closed = {r: li_keiper.lambda_closed(r, ctx) for r in (1, 2)}
    eta_psi = {
        r: li_keiper.lambda_via_eta_psi(r, etas, ctx)
        for r in range(1, max_r + 1)
    }
    coffey = {
        r: li_keiper.lambda_via_coffey(r, etas, ctx)
        for r in range(2, max_r + 1)
    }

    for r in (1, 2):
        reports.append(
            equality_report(
                f"lambda-closed-vs-sigma-r{r}", closed[r], lambdas.mpf(r), tol, ctx,
                method_tags=(li_keiper.LAMBDA_CLOSED_TAGS[r], li_keiper.LAMBDA_TAG),
            )
        )
        reports.append(
            equality_report(
                f"lambda-closed-vs-eta-psi-r{r}", closed[r], eta_psi[r], tol, ctx,
                method_tags=(li_keiper.LAMBDA_CLOSED_TAGS[r], li_keiper.LAMBDA_ETA_PSI_TAG),
            )
        )
    reports.append(
        equality_report(
            "lambda-closed-vs-coffey-r2", closed[2], coffey[2], tol, ctx,
            method_tags=(li_keiper.LAMBDA_CLOSED_TAGS[2], li_keiper.LAMBDA_COFFEY_TAG),
        )
    )
    for r in range(1, max_r + 1):
        reports.append(
            equality_report(
                f"lambda-sigma-vs-eta-psi-r{r}", lambdas.mpf(r), eta_psi[r], tol, ctx,
                method_tags=(li_keiper.LAMBDA_TAG, li_keiper.LAMBDA_ETA_PSI_TAG),
            )
        )
    for r in range(2, max_r + 1):
        reports.append(
            equality_report(
                f"lambda-sigma-vs-coffey-r{r}", lambdas.mpf(r), coffey[r], tol, ctx,
                method_tags=(li_keiper.LAMBDA_TAG, li_keiper.LAMBDA_COFFEY_TAG),
            )
        )
        reports.append(
            equality_report(
                f"lambda-eta-psi-vs-coffey-r{r}", eta_psi[r], coffey[r], tol, ctx,
                method_tags=(li_keiper.LAMBDA_ETA_PSI_TAG, li_keiper.LAMBDA_COFFEY_TAG),
            )
        )

    cal = li_keiper.coffey_constant(etas, ctx)
    with mp.workdps(ctx.working_dps + 5):
        nearest = mp.nint(cal)
    reports.append(
        equality_report(
            "coffey-3.34-calibrated-constant", cal, nearest, tol, ctx,
            method_tags=(li_keiper.LAMBDA_COFFEY_TAG, "calibrated-vs-closed-3.6"),
        )
    )

    # master recurrence residuals; n = 0 is the eq-3.14 specialization
    res_tol = default_tol(ctx, ctx.digits - 8)
    for n in range(0, 7):
        res = li_keiper.recurrence_residual_3_13(n, gammas, lambdas, ctx)
        name = "eq-3.14-n0" if n == 0 else f"eq-3.13-n{n}"
        reports.append(
            equality_report(
                name, res, 0, res_tol, ctx,
                method_tags=(li_keiper.RESIDUAL_TAG, GAMMA_TAG, li_keiper.LAMBDA_TAG),
            )
        )

    for r in range(0, 9):
        a = li_keiper.g_derivs_at_one(r, lambdas, ctx)
        b = li_keiper.g_derivs_at_one_via_eta(r, etas, ctx)
        reports.append(
            equality_report(
                f"g-deriv-two-routes-r{r}", a, b, tol, ctx,
                method_tags=(li_keiper.G_DERIV_TAG, li_keiper.G_DERIV_ETA_TAG),
            )
        )

    rng = random.Random(_RNG_SEED + 1)
    ok = True
    for _ in range(25):
        length = rng.randint(1, 12)
        seq = [rng.randint(-50, 50) for _ in range(length)]
        twice = li_keiper.binomial_alternating_transform(
            li_keiper.binomial_alternating_transform(seq)
        )
        if twice != seq:
            ok = False
            break
    reports.append(
        exact_report(
            "eq-3.27-involution", ok, 1 if ok else 0, 1, ctx,
            method_tags=("binomial-inversion-3.27",),
        )
    )

    for p in range(1, 9):
        ok = True
        for k in range(1, 21):
            lhs = li_keiper.falling_factorial(k, p)
            rhs = (-1) ** p * sum(
                Fraction(math.factorial(p), math.factorial(j))
                * math.comb(p - 1, j - 1)
                * (-1) ** j
                * li_keiper.rising_factorial(k, j)
                for j in range(1, p + 1)
            )
            if lhs != rhs:
                ok = False
                break
        reports.append(
            exact_report(
                f"eq-3.9-p{p}", ok, 1 if ok else 0, 1, ctx,
                method_tags=("factorial-conversion-3.9",),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# xi suite


def suite_xi(ctx: PrecisionContext, tol_exp: int | None = None):
    tol = default_tol(ctx, tol_exp)
    reports = []
    max_n = 10
    sigmas = table("sigma", max_n, ctx)
    lambdas = table("lambda", max_n, ctx)
    xi_bell = table("xi1", max_n, ctx)
    xi_rec = xi.xi_deriv_recurrence(max_n, sigmas, ctx)

    with mp.workdps(ctx.working_dps + 5):
        l1, l2, l3 = lambdas.mpf(1), lambdas.mpf(2), lambdas.mpf(3)
        reports.append(
            equality_report(
                "eq-3.15", xi_bell.mpf(1), l1 / 2, tol, ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        reports.append(
            equality_report(
                "eq-3.16", xi_bell.mpf(2), (l1**2 + l2 - 2 * l1) / 2, tol, ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        reports.append(
            equality_report(
                "xi3-lambda-expansion",
                xi_bell.mpf(3),
                (l1**3 + 3 * l1 * (l2 - 2 * l1) + 6 * l1 - 6 * l2 + 2 * l3) / 2,
                tol,
                ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        # xi''(1) > 0 rearranges to the lambda_2 lower bound: the two sides
        # differ by exactly the factor 2
        reports.append(
            equality_report(
                "xi2-implies-eq-3.17",
                2 * xi_bell.mpf(2),
                l2 - l1 * (2 - l1),
                tol,
                ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        reports.append(
            inequality_report(
                "eq-3.17", l2, l1 * (2 - l1), ctx,
                method_tags=(li_keiper.LAMBDA_TAG,),
            )
        )
    reports.append(
        inequality_report(
            "eq-3.18", lambdas.mpf(2), lambdas.mpf(1), ctx,
            method_tags=(li_keiper.LAMBDA_TAG,),
        )
    )
    reports.append(
        inequality_report(
            "eq-3.20", sigmas.mpf(1) ** 2, sigmas.mpf(2), ctx,
            method_tags=(eta_sigma.SIGMA_CLOSED_TAG, eta_sigma.SIGMA_TAG),
        )
    )
    reports.append(
        equality_report(
            "sigma1-equals-lambda1", sigmas.mpf(1), lambdas.mpf(1), tol, ctx,
            method_tags=(eta_sigma.SIGMA_CLOSED_TAG, li_keiper.LAMBDA_TAG),
        )
    )

    for n in range(1, 9):
        reports.append(
            equality_report(
                f"eq-6.2-vs-bell-n{n}", xi_rec.mpf(n), xi_bell.mpf(n), tol, ctx,
                method_tags=(
                    f"{xi.XI_RECURRENCE_TAG} ({xi.XI_RECURRENCE_CONVENTION})",
                    xi.XI_BELL_TAG,
                ),
            )
        )
    for n in range(1, max_n + 1):
        reports.append(
            inequality_report(
                f"xi-deriv-positive-n{n}", xi_bell.mpf(n), 0, ctx,
                method_tags=(xi.XI_BELL_TAG,),
            )
        )
        at_zero = xi.xi_deriv_at_zero(n, xi_bell)
        expected = xi_bell.mpf(n) if n % 2 == 0 else -xi_bell.mpf(n)
        reports.append(
            exact_report(
                f"xi-reflection-n{n}",
                at_zero == expected,
                at_zero,
                expected,
                ctx,
                method_tags=(xi.XI_BELL_TAG, "reflection"),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# zeta-derivs suite


def suite_zeta_derivs(ctx: PrecisionContext, tol_exp: int | None = None):
    tol = default_tol(ctx, tol_exp)
    reports = []
    max_n = 8
    gammas = table("gamma", max_n, ctx)
    etas = table("eta", max_n, ctx)
    z_ap = table("zeta0", max_n, ctx)
    z_lc = zeta_derivs.zeta_derivs_log_chain(max_n, etas, ctx)

    with mp.workdps(ctx.working_dps + 10):
        log2pi = log_2pi_mpf(ctx)
        tol_52 = default_tol(ctx, ctx.digits - 3)
        reports.append(
            equality_report(
                "eq-5.2", z_ap.mpf(1), -log2pi / 2, tol_52, ctx,
                method_tags=(zeta_derivs.APOSTOL_TAG, "closed-5.2"),
            )
        )
        g0, g1 = gammas.mpf(0), gammas.mpf(1)
        eta1 = etas.mpf(1)
        z2 = zeta_int_mpf(2, ctx)
        via_53 = g1 + g0**2 / 2 - +mp.pi**2 / 24 - log2pi**2 / 2
        via_s4 = eta1 / 2 - z2 / 4 - log2pi**2 / 2
        reports.append(
            equality_report(
                "eq-5.3-vs-s4-zeta2deriv", via_53, via_s4, tol, ctx,
                method_tags=("closed-5.3", "eta-route-s4"),
            )
        )
        reports.append(
            equality_report(
                "zeta2deriv-table-vs-5.3", z_lc.mpf(2), via_53, tol, ctx,
                method_tags=(zeta_derivs.LOG_CHAIN_TAG, "closed-5.3"),
            )
        )
        # L''(0) from the eta route against -2 zeta''(0) - log^2(2 pi) - 1
        l2_eta = zeta_derivs.L_derivs_at_zero(1, etas, ctx)
        reports.append(
            equality_report(
                "eq-4.6-L2-cross-route",
                l2_eta,
                -2 * z_ap.mpf(2) - log2pi**2 - 1,
                tol,
                ctx,
                method_tags=(zeta_derivs.L_DERIV_TAG, zeta_derivs.APOSTOL_TAG),
            )
        )

    route_tol = default_tol(ctx, ctx.digits - 6)
    for n in range(max_n + 1):
        reports.append(
            equality_report(
                f"zeta0-routes-n{n}", z_ap.mpf(n), z_lc.mpf(n), route_tol, ctx,
                method_tags=(zeta_derivs.APOSTOL_TAG, zeta_derivs.LOG_CHAIN_TAG),
            )
        )
    for n in range(1, max_n + 1):
        fwd = zeta_derivs.gamma_from_zeta_derivs(n, z_lc, ctx)
        reports.append(
            equality_report(
                f"eq-5.5-forward-n{n}", fwd, gammas.mpf(n - 1), route_tol, ctx,
                method_tags=("forward-5.5", zeta_derivs.LOG_CHAIN_TAG, GAMMA_TAG),
            )
        )
        fwd_ap = zeta_derivs.gamma_from_zeta_derivs(n, z_ap, ctx)
        reports.append(
            equality_report(
                f"forward-inverse-identity-n{n}",
                fwd_ap,
                gammas.mpf(n - 1),
                route_tol,
                ctx,
                method_tags=("forward-5.5", zeta_derivs.APOSTOL_TAG),
            )
        )

    with mp.workdps(ctx.working_dps + 10):
        g0 = gammas.mpf(0)
        z2 = zeta_int_mpf(2, ctx)
        z3 = zeta_int_mpf(3, ctx)
        known = {
            1: -g0,
            2: z2 + g0**2,
            3: -(2 * z3 + 3 * g0 * z2 + g0**3),
        }
    for m, expected in known.items():
        got = zeta_derivs.gamma_derivs_at_one_mpf(m, ctx)
        reports.append(
            equality_report(
                f"gamma-deriv-at-one-m{m}", got, expected, tol, ctx,
                method_tags=(zeta_derivs.GAMMA_DERIV_TAG, "closed-A.7"),
            )
        )

    # the cosine-derivative weights must be exactly sparse in odd order
    with mp.workdps(ctx.working_dps + 10):
        pi_val = +mp.pi
        ok = True
        worst = mp.mpf(0)
        for m in range(11):
            numeric = (pi_val / 2) ** m * mp.cos(m * pi_val / 2)
            w = zeta_derivs._cos_weight(m, pi_val)
            if m % 2 == 1:
                if w is not None:
                    ok = False
            else:
                worst = max(worst, abs(numeric - w))
        sparsity_tol = default_tol(ctx, ctx.digits + ctx.guard_digits - 8)
        reports.append(
            exact_report(
                "cos-weight-odd-orders-vanish", ok, 1 if ok else 0, 1, ctx,
                method_tags=("cos-derivative-5.5",),
            )
        )
        reports.append(
            equality_report(
                "cos-weight-even-orders", worst, 0, sparsity_tol, ctx,
                method_tags=("cos-derivative-5.5", "numeric-cosine"),
            )
        )
    return reports


# ---------------------------------------------------------------------------


_SUITE_RUNNERS = {
    "bell": suite_bell,
    "stieltjes": suite_stieltjes,
    "eta": suite_eta,
    "lambda": suite_lambda,
    "xi": suite_xi,
    "zeta-derivs": suite_zeta_derivs,
}


SUITES = ("all", *_SUITE_RUNNERS)


def run_suite(suite: str, ctx: PrecisionContext, tol_exp: int | None = None):
    """Run one named suite (or all of them) and return its reports.

    tol_exp must lie in [1, ctx.digits]: a looser bound would pass vacuously,
    and no check can meet a tighter one at the run's precision.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if tol_exp is not None and not 1 <= tol_exp <= ctx.digits:
        raise ValueError(f"--tol-exp must lie in [1, {ctx.digits}]")
    names = _SUITE_RUNNERS if suite == "all" else (suite,)
    return [r for name in names for r in _SUITE_RUNNERS[name](ctx, tol_exp)]
