"""Identity suites: every cross-route claim in the package, run end to end.

Each suite builds the constant tables it needs, evaluates both sides of each
identity, and emits one VerificationReport per check.  An indexed family of
checks is a list of route-pair rows handed to `equality_reports` or
`inequality_reports`: each report is named row prefix + index
(`eta-recurrence-agreement-n3`), and within one index the rows come in the
order given, so `lambda-sigma-vs-coffey-r2` precedes
`lambda-eta-psi-vs-coffey-r2`, which precedes `lambda-sigma-vs-coffey-r3`.
Exact combinatorial identities run on seeded trials (the seed is fixed, so
repeated runs are byte-identical).  A Bell trial draws rationals as integer
pairs (p, q), the pairs randint would draw (see `_random_pairs`); the
routes take them scaled to integers and only the witness is divided by the
scale, once (see `_scale_to_integers`), so every trial runs in integers.

Every numeric identity is judged against one tolerance per run, which
run_suite makes once and hands to every suite: reports.default_tol, which
checks tol_exp and gives 10^-tol_exp, with tol_exp = digits - 5 by default.
Exact and inequality checks are judged against 0.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import bell, eta_sigma, li_keiper, stieltjes, xi, zeta_derivs
from .chain import table
from .kernel import atoms, zeta_int_mpf
from .precision import FAMILIES, MAX_DIGITS, SUITES, PrecisionContext
from .reports import (
    default_tol,
    equality_report,
    equality_reports,
    exact_report,
    inequality_report,
    inequality_reports,
)
from .stieltjes import GAMMA_TAG, Binary, stieltjes_gamma, workdps

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


def _random_pairs(rng, n):
    """n seeded rationals p/q as unreduced (p, q) integer pairs, p in
    [-20, 20] and q in [1, 12], drawn as rng.randint(-20, 20) and then
    rng.randint(1, 12) draw them: 6 random bits redrawn while >= 41, 4 while >= 12."""
    bits, pairs = rng.getrandbits, []
    for _ in range(n):
        while (p := bits(6)) >= 41:
            pass
        while (q := bits(4)) >= 12:
            pass
        pairs.append((p - 20, q + 1))
    return pairs


def _scale_to_integers(*vectors):
    """L, the lcm of every q in `vectors` of (p, q) pairs, then each vector x
    as the integers L^j x_j (j = 1..n).  Every Bell route is
    weighted-homogeneous, Y_n(L x_1, L^2 x_2, ..., L^n x_n) = L^n Y_n(x), so it
    maps these to L^n Y_n(x): exactly, and in integers.  The q need not be
    reduced: any common multiple L gives the same Y_n(x)."""
    scale = math.lcm(*(q for vs in vectors for _, q in vs))
    scaled = []
    for vs in vectors:
        power = 1  # L^j after the j-th entry
        scaled.append([p * (power := power * scale) // q for p, q in vs])
    return scale, *scaled


# ---------------------------------------------------------------------------
# bell suite


def _holds(identity, ok, ctx, method_tags):
    """Exact report that a property holds: witness 1 against 1, else 0."""
    return exact_report(identity, 1 if ok else 0, 1, ctx, method_tags=method_tags)


def _first_mismatch(identity, trials, ctx, method_tags):
    """Exact report that lhs == rhs for every (lhs, rhs, scale) in `trials`,
    whose sides are the trial's values times scale.

    `trials` is lazy, so seeded trials stop drawing at the first mismatch,
    which becomes the witness; when all agree the last trial is the witness.
    The witness sides are divided by their scale once, here.  No trial at
    all is a fault of the suite, not of the input, and raises RuntimeError:
    nothing would have been checked.
    """
    scale = None
    for lhs, rhs, scale in trials:
        if lhs != rhs:
            break
    if scale is None:
        raise RuntimeError(f"{identity}: no trial was drawn")
    return exact_report(identity, Fraction(lhs, scale), Fraction(rhs, scale), ctx,
                        method_tags=method_tags)


def _route_pairs(rng, n):
    """Partition sum against recurrence, then against determinant, per trial."""
    terms = bell._sparse(bell.bell_symbolic(n))
    for _ in range(100):
        scale, v = _scale_to_integers(_random_pairs(rng, n))
        a = bell.substitute(terms, v)
        b = bell.bell_recurrence_value(v)
        c = bell.bell_determinant(v)
        yield a, b, scale**n
        yield a, c, scale**n


def _convolution_pairs(rng, n):
    """Y_n(x + y) against sum_k C(n, k) Y_(n-k)(x) Y_k(y), per trial; one
    recurrence pass each gives Y_0..Y_n of x and of y."""
    for _ in range(20):
        scale, xs, ys = _scale_to_integers(_random_pairs(rng, n), _random_pairs(rng, n))
        lhs = bell.bell_recurrence_value([a + b for a, b in zip(xs, ys)])
        yx, yy = bell.bell_recurrence_values(xs), bell.bell_recurrence_values(ys)
        rhs = sum(math.comb(n, k) * yx[n - k] * yy[k] for k in range(n + 1))
        yield lhs, rhs, scale**n


def _scaled_determinant_pairs(rng, n):
    for _ in range(20):
        scale, bs = _scale_to_integers(_random_pairs(rng, n))
        scaled = [math.factorial(j) * bs[j] for j in range(n)]
        yield (
            bell.bell_recurrence_value(scaled),
            bell.bracket_determinant([(-1) ** k * bs[k] for k in range(n)]),
            scale**n,
        )


def suite_bell(ctx: PrecisionContext, tol: Binary):
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
        ok = bell.bell_symbolic(n) == _REFERENCE_POLYS[n]
        reports.append(
            _holds(f"bell-printed-poly-n{n}", ok, ctx, ("partition-A.1", "printed-3.24"))
        )

    for n in range(1, 11):
        ok = all(
            sum((j + 1) * e for j, e in enumerate(expo)) == n and coeff > 0
            for expo, coeff in bell.bell_symbolic(n).items()
        )
        reports.append(
            _holds(f"bell-monomial-weights-n{n}", ok, ctx, ("partition-A.1", "weight-A.2"))
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
    # probed with f(x) = x^3, so f' = 3x^2, f'' = 6x, f''' = 6, higher = 0,
    # against the product rule d^m/dx^m e^(x^3) = e^(x^3) P_m(x) with the
    # integer polynomials P_0 = 1, P_(m+1) = P_m' + 3x^2 P_m: e^(x^3)
    # cancels, so Y_m = P_m(x) exactly at rational x
    poly = [1]  # P_m's coefficients, constant term first
    for m in range(1, 6):
        step = [0, 0, *(3 * c for c in poly)]
        for k in range(1, len(poly)):
            step[k - 1] += k * poly[k]
        poly = step
        for xs in ("0.3", "0.7"):
            x = Fraction(xs)
            lhs = bell.bell_recurrence_value([3 * x**2, 6 * x, 6, 0, 0][:m])
            rhs = sum(c * x**k for k, c in enumerate(poly))
            reports.append(
                exact_report(f"bell-exp-derivative-m{m}-x{xs}", lhs, rhs, ctx,
                             method_tags=("bell-A.5", "product-rule"))
            )
    return reports


# ---------------------------------------------------------------------------
# stieltjes suite


def suite_stieltjes(ctx: PrecisionContext, tol: Binary):
    reports = []

    # the inner sums of the constant 1 are a Kronecker delta in i, so the weights
    # of this suite's gamma_0(1) row sum it to 1, and its last outer term is 0
    gamma = stieltjes_gamma(0, 1, ctx)
    row = stieltjes._gamma_row(stieltjes.Binary(1), ctx)
    scale, weights, last = row.tail_weights
    ok = sum(weights) == scale and sum(last) == 0
    reports.append(_holds("hasse-normalization-delta", ok, ctx, (GAMMA_TAG, "limit-2.5")))

    # blind to the row's tail and logs: both integer-u rows run at the same U
    # with the same logs and tail, so this holds by construction (a 2^-40
    # plant in _GammaRow._tail passes it; the reports below catch it at 30
    # and 60 digits)
    gamma_at_2 = stieltjes_gamma(0, 2, ctx)
    with workdps(ctx.dps("side")):
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

    # precision escalation: D and D+20 agree
    step = min(20, MAX_DIGITS - ctx.digits)
    if step > 0:
        esc = PrecisionContext(ctx.digits + step, ctx.guard_digits)
        reports += equality_reports(
            (0, 1, 5), tol, ctx,
            ("gamma-escalation-n", lambda n: stieltjes_gamma(n, 1, ctx),
             lambda n: stieltjes_gamma(n, 1, esc),
             (GAMMA_TAG, f"{GAMMA_TAG}@{esc.digits}d")),
        )

    # guard stability: guard_digits -> guard_digits + 10 moves the value
    # by no more than the tolerance
    wide = PrecisionContext(ctx.digits, ctx.guard_digits + 10)
    reports += equality_reports(
        (1, 3), tol, ctx,
        ("gamma-guard-stability-n", lambda n: stieltjes_gamma(n, 1, ctx),
         lambda n: stieltjes_gamma(n, 1, wide), (GAMMA_TAG, f"{GAMMA_TAG}+guard")),
    )
    return reports


# ---------------------------------------------------------------------------
# eta suite


def suite_eta(ctx: PrecisionContext, tol: Binary):
    reports = []
    max_n = 12
    gammas = table("gamma", max_n, ctx)
    etas = table("eta", max_n, ctx)
    etas_alt = eta_sigma.eta_from_gamma_coffey(gammas)

    with workdps(ctx.dps("side")):
        g0, g1, g2 = gammas[0], gammas[1], gammas[2]
        reports.append(
            equality_report(
                "eta0-is-neg-gamma", etas[0], -g0, tol, ctx,
                method_tags=(eta_sigma.ETA_TAG, GAMMA_TAG),
            )
        )
        reports.append(
            equality_report(
                "eta1-closed-form", etas[1], g0**2 + 2 * g1, tol, ctx,
                method_tags=(eta_sigma.ETA_TAG, GAMMA_TAG),
            )
        )
        reports.append(
            equality_report(
                "eta2-closed-form",
                3 * g2,
                -2 * g0**3 - 6 * g0 * g1 - 2 * etas[2],
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

    reports += equality_reports(
        range(max_n + 1), tol, ctx,
        ("eta-recurrence-agreement-n", etas.__getitem__, etas_alt.__getitem__,
         (eta_sigma.ETA_TAG, eta_sigma.ETA_COFFEY_TAG)),
    )

    reports.append(
        inequality_report(
            "eta0-negative", 0, etas[0], ctx, method_tags=(eta_sigma.ETA_TAG,)
        )
    )
    reports += inequality_reports(
        range(1, max_n + 1), ctx,
        ("eta-sign-alternation-n",
         lambda n: etas[n] if n % 2 == 1 else Binary(-etas[n].man, etas[n].exp),
         lambda n: 0, (eta_sigma.ETA_TAG,)),
    )

    round_trip = eta_sigma.gamma_from_eta(etas)
    reports += equality_reports(
        range(9), tol, ctx,
        ("gamma-eta-roundtrip-n", round_trip.__getitem__, gammas.__getitem__,
         (eta_sigma.GAMMA_FROM_ETA_TAG, GAMMA_TAG)),
    )
    return reports


# ---------------------------------------------------------------------------
# lambda suite


def suite_lambda(ctx: PrecisionContext, tol: Binary):
    reports = []
    max_r = 12
    gammas = table("gamma", max_r - 1, ctx)
    etas = table("eta", max_r - 1, ctx)
    lambdas = table("lambda", max_r, ctx)

    # no report on lambda_1: its closed form, sigma_1, the eta-psi-3.33
    # linear term, entry 1 of coffey-3.34 and g(1) are one expression, so no
    # two routes check it
    routes = range(2, max_r + 1)
    eta_psi = li_keiper.lambda_via_eta_psi(etas)
    coffey = li_keiper.lambda_via_coffey(etas)
    closed = {2: li_keiper.lambda_closed(2, ctx)}
    reports += equality_reports(
        closed, tol, ctx,
        ("lambda-closed-vs-sigma-r", closed.get, lambdas.__getitem__,
         (li_keiper.LAMBDA_CLOSED_TAG, li_keiper.LAMBDA_TAG)),
        ("lambda-closed-vs-eta-psi-r", closed.get, eta_psi.__getitem__,
         (li_keiper.LAMBDA_CLOSED_TAG, li_keiper.LAMBDA_ETA_PSI_TAG)),
        ("lambda-closed-vs-coffey-r", closed.get, coffey.__getitem__,
         (li_keiper.LAMBDA_CLOSED_TAG, li_keiper.LAMBDA_COFFEY_TAG)),
    )
    reports += equality_reports(
        routes, tol, ctx,
        ("lambda-sigma-vs-eta-psi-r", lambdas.__getitem__, eta_psi.__getitem__,
         (li_keiper.LAMBDA_TAG, li_keiper.LAMBDA_ETA_PSI_TAG)),
    )
    reports += equality_reports(
        routes, tol, ctx,
        ("lambda-sigma-vs-coffey-r", lambdas.__getitem__, coffey.__getitem__,
         (li_keiper.LAMBDA_TAG, li_keiper.LAMBDA_COFFEY_TAG)),
        ("lambda-eta-psi-vs-coffey-r", eta_psi.__getitem__, coffey.__getitem__,
         (li_keiper.LAMBDA_ETA_PSI_TAG, li_keiper.LAMBDA_COFFEY_TAG)),
    )

    # master recurrence residuals, n = 0 .. max_r - 2 from gamma to max_r - 1
    # and lambda to max_r; n = 0 is the eq-3.14 specialization
    residual = (
        li_keiper.recurrence_residual_3_13(gammas, lambdas).__getitem__,
        lambda n: 0,
        (li_keiper.RESIDUAL_TAG, GAMMA_TAG, li_keiper.LAMBDA_TAG),
    )
    reports += equality_reports((0,), tol, ctx, ("eq-3.14-n", *residual))
    reports += equality_reports(range(1, max_r - 1), tol, ctx, ("eq-3.13-n", *residual))

    # g^(r)(1), r = 0 .. max_r - 1, from lambda to max_r and eta to
    # max_r - 1; r = 0 is lambda_1
    reports += equality_reports(
        range(1, max_r), tol, ctx,
        ("g-deriv-two-routes-r", li_keiper.g_derivs_at_one(lambdas).__getitem__,
         li_keiper.g_derivs_at_one_via_eta(etas).__getitem__,
         (li_keiper.G_DERIV_TAG, li_keiper.G_DERIV_ETA_TAG)),
    )

    # every lambda and g^(r)(1) above goes through this transform; seeded
    # trials stop drawing at the first failure
    rng = random.Random(_RNG_SEED + 1)
    seqs = ([rng.randint(-50, 50) for _ in range(rng.randint(1, 12))] for _ in range(25))
    transform = li_keiper.binomial_alternating_transform
    ok = all(transform(transform(seq)) == seq for seq in seqs)
    reports.append(_holds("eq-3.27-involution", ok, ctx, ("binomial-inversion-3.27",)))

    for p in range(1, 9):
        ok = all(
            math.perm(k, p) == (-1) ** p * sum(
                math.factorial(p) // math.factorial(j)
                * math.comb(p - 1, j - 1)
                * (-1) ** j
                * math.perm(k + j - 1, j)
                for j in range(1, p + 1)
            )
            for k in range(1, 21)
        )
        reports.append(_holds(f"eq-3.9-p{p}", ok, ctx, ("factorial-conversion-3.9",)))
    return reports


# ---------------------------------------------------------------------------
# xi suite


def suite_xi(ctx: PrecisionContext, tol: Binary):
    reports = []
    max_n = FAMILIES["xi1"][1]
    sigmas = table("sigma", max_n, ctx)
    lambdas = table("lambda", max_n, ctx)
    xi_bell = table("xi1", max_n, ctx)
    xi_rec = xi.xi_deriv_recurrence(sigmas)

    with workdps(ctx.dps("side")):
        l1, l2, l3 = lambdas[1], lambdas[2], lambdas[3]
        reports.append(
            equality_report(
                "eq-3.15", xi_bell[1], l1 / 2, tol, ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        reports.append(
            equality_report(
                "eq-3.16", xi_bell[2], (l1**2 + l2 - 2 * l1) / 2, tol, ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        reports.append(
            equality_report(
                "xi3-lambda-expansion",
                xi_bell[3],
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
                2 * xi_bell[2],
                l2 - l1 * (2 - l1),
                tol,
                ctx,
                method_tags=(xi.XI_BELL_TAG, li_keiper.LAMBDA_TAG),
            )
        )
        reports += li_keiper.lambda2_bounds(lambdas, (li_keiper.LAMBDA_TAG,))
        reports.append(
            inequality_report(
                "eq-3.20", sigmas[1] ** 2, sigmas[2], ctx,
                method_tags=(eta_sigma.SIGMA_CLOSED_TAG, eta_sigma.SIGMA_TAG),
            )
        )

    reports += equality_reports(
        range(1, max_n + 1), tol, ctx,
        ("eq-6.2-vs-bell-n", xi_rec.__getitem__, xi_bell.__getitem__,
         (f"{xi.XI_RECURRENCE_TAG} ({xi.XI_RECURRENCE_CONVENTION})", xi.XI_BELL_TAG)),
    )
    reports += inequality_reports(
        range(1, max_n + 1), ctx,
        ("xi-deriv-positive-n", xi_bell.__getitem__, lambda n: 0, (xi.XI_BELL_TAG,)),
    )
    return reports


# ---------------------------------------------------------------------------
# zeta-derivs suite


def suite_zeta_derivs(ctx: PrecisionContext, tol: Binary):
    reports = []
    max_n = 8
    gammas = table("gamma", max_n, ctx)
    etas = table("eta", max_n, ctx)
    z_ap = table("zeta0", max_n, ctx)
    z_lc = zeta_derivs.zeta_derivs_log_chain(table("eta", max_n - 1, ctx))

    # every elementary side, from log(2 pi), pi, gamma_0, gamma_1, zeta(2)
    # and zeta(3) read once; the reports keep their order
    with workdps(ctx.dps("elementary_side")):
        log2pi = atoms(ctx.working_dps).log_2pi
        pi_val = atoms(ctx.dps("elementary_side")).pi
        g0, g1 = gammas[0], gammas[1]
        z2, z3 = zeta_int_mpf(2, ctx), zeta_int_mpf(3, ctx)
        reports.append(
            equality_report(
                "eq-5.2", z_ap[1], -log2pi / 2, tol, ctx,
                method_tags=(zeta_derivs.APOSTOL_TAG, "closed-5.2"),
            )
        )
        via_53 = g1 + g0**2 / 2 - pi_val**2 / 24 - log2pi**2 / 2
        via_s4 = etas[1] / 2 - z2 / 4 - log2pi**2 / 2
        reports.append(
            equality_report(
                "eq-5.3-vs-s4-zeta2deriv", via_53, via_s4, tol, ctx,
                method_tags=("closed-5.3", "eta-route-s4"),
            )
        )
        reports.append(
            equality_report(
                "zeta2deriv-table-vs-5.3", z_lc[2], via_53, tol, ctx,
                method_tags=(zeta_derivs.LOG_CHAIN_TAG, "closed-5.3"),
            )
        )
        # L''(0) from the eta route against -2 zeta''(0) - log^2(2 pi) - 1
        reports.append(
            equality_report(
                "eq-4.6-L2-cross-route",
                zeta_derivs.L_derivs_at_zero(etas)[1],
                -2 * z_ap[2] - log2pi**2 - 1,
                tol,
                ctx,
                method_tags=(zeta_derivs.L_DERIV_TAG, zeta_derivs.APOSTOL_TAG),
            )
        )
        known = {
            1: -g0,
            2: z2 + g0**2,
            3: -(2 * z3 + 3 * g0 * z2 + g0**3),
        }
        # the cosine-derivative weights must be exactly sparse in odd order;
        # cos(m pi/2) = Re(i^m), with i^m = re + i im kept in Gaussian
        # integers.  In even order both sides round the same power
        # (pi/2)^m, so they agree exactly
        ok = True
        worst = Binary(0)
        re, im = 1, 0
        for m in range(11):
            numeric = (pi_val / 2) ** m * re
            re, im = -im, re
            w = zeta_derivs._cos_weight(m, pi_val)
            if m % 2 == 1:
                if w is not None:
                    ok = False
            else:
                worst = max(worst, abs(numeric - w))

    reports += equality_reports(
        range(max_n + 1), tol, ctx,
        ("zeta0-routes-n", z_ap.__getitem__, z_lc.__getitem__,
         (zeta_derivs.APOSTOL_TAG, zeta_derivs.LOG_CHAIN_TAG)),
    )
    # gamma_0 .. gamma_(max_n - 1) from each zeta0 table
    forward_lc = zeta_derivs.gamma_from_zeta_derivs(z_lc)
    forward_ap = zeta_derivs.gamma_from_zeta_derivs(z_ap)
    reports += equality_reports(
        range(1, max_n + 1), tol, ctx,
        ("eq-5.5-forward-n", lambda n: forward_lc[n - 1], lambda n: gammas[n - 1],
         (zeta_derivs.FORWARD_TAG, zeta_derivs.LOG_CHAIN_TAG, GAMMA_TAG)),
        ("forward-inverse-identity-n", lambda n: forward_ap[n - 1], lambda n: gammas[n - 1],
         (zeta_derivs.FORWARD_TAG, zeta_derivs.APOSTOL_TAG)),
    )
    reports += equality_reports(
        known, tol, ctx,
        ("gamma-deriv-at-one-m", lambda m: zeta_derivs.gamma_derivs_at_one_mpf(m, ctx),
         known.get, (zeta_derivs.GAMMA_DERIV_TAG, "closed-A.7")),
    )
    reports.append(_holds("cos-weight-odd-orders-vanish", ok, ctx, ("cos-derivative-5.5",)))
    reports.append(
        exact_report("cos-weight-even-orders", worst, 0, ctx,
                     method_tags=("cos-derivative-5.5", "numeric-cosine"))
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


def run_suite(suite: str, ctx: PrecisionContext, tol_exp: int | None = None):
    """Run one named suite (or all of them) and return its reports.

    The run's one tolerance is made here, once, after the suite name is
    checked, by reports.default_tol, which checks tol_exp.  It judges every
    numeric identity; exact and inequality checks are judged against 0.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    tol = default_tol(ctx, tol_exp)
    names = _SUITE_RUNNERS if suite == "all" else (suite,)
    return [r for name in names for r in _SUITE_RUNNERS[name](ctx, tol)]
