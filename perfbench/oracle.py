"""Reference values that share no code with the zkconst package.

Stieltjes constants come from their defining limit,

    gamma_n(u) = lim_M [ sum_{k=0}^{M} log^n(u+k)/(u+k) - log^(n+1)(u+M)/(n+1) ],

summed explicitly to N and closed with Euler-Maclaurin boundary terms.  The
other families follow from gamma_n(1) by power-series algebra on

    (s-1) zeta(s) = 1 + sum_n (-1)^n gamma_n / n! (s-1)^(n+1)
    xi(s)         = 1/2 s pi^(-s/2) Gamma(s/2) (s-1) zeta(s)

with mpmath's own log, pi and polygamma; zeta derivatives at 0 are mpmath's
zeta(0, derivative=n).  Nothing here imports zkconst.
"""

from __future__ import annotations

import math

from mpmath import bernfrac, mp, mpf


def stieltjes(max_n: int, u, dps: int, N: int = 1000, corrections: int = 40):
    """[gamma_0(u), ..., gamma_max_n(u)] to about dps digits; u > 0 as a str or number."""
    with mp.workdps(dps + 20):
        u = mpf(u)
        sums = [mpf(0)] * (max_n + 1)
        for k in range(N):
            x = u + k
            term, lx = 1 / x, mp.log(x)
            for n in range(max_n + 1):
                sums[n] += term
                term *= lx
        x = u + N
        lx = mp.log(x)
        # B_2r / (2r)!, shared by every n
        weights = []
        for r in range(1, corrections + 1):
            p, q = bernfrac(2 * r)
            weights.append(mpf(p) / q / math.factorial(2 * r))
        out = []
        for n in range(max_n + 1):
            value = sums[n] - lx ** (n + 1) / (n + 1) + lx**n / (2 * x)
            # d^m/dx^m [log^n x / x] = x^-(m+1) sum_i poly[i] log^i x
            poly = [0] * n + [1]
            for m in range(1, 2 * corrections):
                poly = [-m * c + (i + 1) * d for i, (c, d) in enumerate(zip(poly, poly[1:] + [0]))]
                if m % 2 == 1:
                    deriv = mp.polyval(poly[::-1], lx) / x ** (m + 1)
                    value -= weights[m // 2] * deriv
            out.append(+value)
        return out


def _series_log(h, order):
    """log of a power series with h[0] = 1, to t^order."""
    out = [mpf(0)] * (order + 1)
    for k in range(1, order + 1):
        out[k] = h[k] - mp.fsum(j * out[j] * h[k - j] for j in range(1, k)) / k
    return out


def _series_exp(a, order):
    """exp of a power series with a[0] = 0, to t^order."""
    out = [mpf(1)] + [mpf(0)] * order
    for k in range(1, order + 1):
        out[k] = mp.fsum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def families(dps: int, order: int = 20):
    """{family: {n: value}} for gamma, eta, sigma, lambda, xi1 and zeta0 at s = 1 / s = 0."""
    gammas = stieltjes(order, 1, dps)
    with mp.workdps(dps + 20):
        # h(t) = (s-1) zeta(s) at s = 1 + t, carried to t^(order+1) for eta_order
        h = [mpf(1)] + [(-1) ** n * gammas[n] / math.factorial(n) for n in range(order + 1)]
        L = _series_log(h, order + 1)
        # log xi(1 + t) - log(1/2) = sum_k a_k t^k
        a = [mpf(0)] * (order + 1)
        for k in range(1, order + 1):
            a[k] = mpf((-1) ** (k + 1)) / k + L[k] + mp.polygamma(k - 1, 0.5) / (
                math.factorial(k) * 2**k
            )
        a[1] -= mp.log(mp.pi) / 2
        xi_series = _series_exp(a, order)
        out = {
            "gamma": dict(enumerate(gammas)),
            "eta": {n: -(n + 1) * L[n + 1] for n in range(order + 1)},
            "sigma": {k: (-1) ** (k - 1) * k * a[k] for k in range(1, order + 1)},
            "lambda": {
                n: n * mp.fsum(math.comb(n - 1, k - 1) * a[k] for k in range(1, n + 1))
                for n in range(1, order + 1)
            },
            "xi1": {n: math.factorial(n) * xi_series[n] / 2 for n in range(1, order + 1)},
            "zeta0": {n: mp.zeta(0, derivative=n) for n in range(11)},
        }
        return {fam: {n: +v for n, v in vals.items()} for fam, vals in out.items()}
