"""Arbitrary-precision numeric substrate.

Fundamental logarithms (log 2, log pi, log 2 pi), integer-argument zeta
values, and polygamma values at 3/2.  Everything downstream (eta constants,
sigma coefficients, Li/Keiper constants, xi and zeta derivatives) pulls its
transcendental atoms from here, so that a wrong digit in one place shows up
as a route disagreement rather than being silently re-derived.

zeta(n) is evaluated through the alternating series

    eta(n) = sum_{k>=1} (-1)^(k-1) k^(-n),    zeta(n) = eta(n) / (1 - 2^(1-n))

accelerated with the Chebyshev-weight scheme of Cohen, Rodriguez Villegas and
Zagier, which gains ~0.76 decimal digits per term uniformly in n.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp, mpf

from .precision import PrecisionContext
from .stieltjes import stieltjes_gamma


def log2_mpf(ctx: PrecisionContext):
    """log 2 at working precision."""
    with mp.workdps(ctx.working_dps):
        return mp.log(2)


def log_pi_mpf(ctx: PrecisionContext):
    """log pi at working precision."""
    with mp.workdps(ctx.working_dps):
        return mp.log(mp.pi)


def log_2pi_mpf(ctx: PrecisionContext):
    """log(2 pi) at working precision."""
    with mp.workdps(ctx.working_dps):
        return mp.log(2 * mp.pi)


@lru_cache(maxsize=4096)
def _zeta_int_raw(n: int, dps: int):
    """zeta(n) as an mpf accurate to ~dps digits, n >= 2."""
    with mp.workdps(dps + 10):
        nterms = int(1.32 * (dps + 10)) + 4
        d = (3 + mp.sqrt(8)) ** nterms
        d = (d + 1 / d) / 2
        b = mp.mpf(-1)
        c = -d
        acc = mp.mpf(0)
        for k in range(nterms):
            c = b - c
            acc += c * mpf(k + 1) ** (-n)
            b = (k + nterms) * (k - nterms) * b / ((k + mpf(1) / 2) * (k + 1))
        eta = acc / d
        return +(eta / (1 - mpf(2) ** (1 - n)))


def zeta_int_mpf(n: int, ctx: PrecisionContext, extra_dps: int = 0):
    """Raw zeta(n) at working precision (+ extra_dps)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("zeta pole or divergent argument: need integer n >= 2")
    return _zeta_int_raw(n, ctx.working_dps + extra_dps)


def polygamma_three_halves_mpf(n: int, ctx: PrecisionContext):
    """Raw psi^(n)(3/2) at working precision.

    n = 0:   psi(3/2) = 2 - gamma - 2 log 2, with gamma taken from the
             Stieltjes machinery (single source of truth for gamma).
    n >= 1:  psi^(n)(3/2) = (-1)^(n+1) n! ([2^(n+1) - 1] zeta(n+1) - 2^(n+1)).

    The n >= 1 bracket cancels to roughly (2/3)^(n+1), i.e. ~n/2 digits are
    lost to cancellation; it is evaluated with n extra digits and the stable
    grouping 2^(n+1) (zeta(n+1) - 1) - zeta(n+1) + ... rearranged below.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("polygamma order must be an integer >= 0")
    if n == 0:
        gamma = stieltjes_gamma(0, 1, ctx)
        with mp.workdps(ctx.working_dps):
            return +(2 - gamma - 2 * mp.log(2))
    boost = n + 5
    with mp.workdps(ctx.working_dps + boost):
        z = zeta_int_mpf(n + 1, ctx, extra_dps=boost)
        # (2^(n+1) - 1) z - 2^(n+1) = 2^(n+1) (z - 1) - z
        bracket = mpf(2) ** (n + 1) * (z - 1) - z
        sign = 1 if n % 2 == 1 else -1
        return +(sign * mp.factorial(n) * bracket)
