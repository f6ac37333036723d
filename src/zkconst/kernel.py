"""Arbitrary-precision numeric substrate, on the standard library.

pi and the fundamental logarithms (log 2, log pi, log 2 pi), integer-argument
zeta values, and polygamma values at 3/2, each a stieltjes.Binary with the
bits of the mpf that mpmath gives at the same precision.  Everything downstream
(eta constants, sigma coefficients, Li/Keiper constants, xi and zeta
derivatives) pulls its transcendental atoms from here, so that a wrong digit
in one place shows up as a route disagreement rather than being silently
re-derived.

pi comes from Machin's 16 atan(1/5) - 4 atan(1/239) and each log from the
gamma row's integer atanh (stieltjes._log), in fixed point with 64 guard
bits, rounded once as mp.pi and mp.log round theirs; log pi and log 2 pi
are, as mpmath takes them, the logs of pi and 2 pi rounded to the working
precision.  All four are computed once per precision, by atoms(dps).

zeta(n) is evaluated through the alternating series

    eta(n) = sum_{k>=1} (-1)^(k-1) k^(-n),    zeta(n) = eta(n) / (1 - 2^(1-n))

accelerated with the Chebyshev-weight scheme of Cohen, Rodriguez Villegas and
Zagier ("Convergence acceleration of alternating series", Experimental Math.
9, 2000), which gains ~0.76 decimal digits per term uniformly in n.  Its
weights are exact integers: d = ((3+sqrt 8)^N + (3-sqrt 8)^N)/2 is the x_N of
(x, y) <- (3x + 8y, x + 3y) from (1, 0), and
b_k = (-1)^(k+1) N/(N+k) C(N+k, 2k) 4^k, so each c_k = b_k - c_(k-1) is an
integer.  The sum over them runs in fixed-point integers, and only its final
quotient is rounded, once, as the one mpf division it was.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .precision import PrecisionContext, check_index, dps_to_prec, extra_digits
from .stieltjes import Binary, _log, _round, stieltjes_gamma, workdps


def _atan_inverse(x: int, bits: int) -> int:
    """atan(1/x) of an integer x > 1, scaled by 2^bits, by
    atan y = y - y^3/3 + y^5/5 - ... in integers; off by at most twice its
    number of terms."""
    power = total = (1 << bits) // x
    j = 1
    while power:
        power //= x * x
        j += 2
        total += -(power // j) if j % 4 == 3 else power // j
    return total


def _pi(bits: int) -> int:
    """pi scaled by 2^bits, off by under 2, from Machin's formula with 32
    guard bits."""
    return (16 * _atan_inverse(5, bits + 32) - 4 * _atan_inverse(239, bits + 32)) >> 32


class Atoms(NamedTuple):
    pi: Binary
    log2: Binary
    log_pi: Binary
    log_2pi: Binary


@lru_cache(maxsize=16)
def atoms(dps: int) -> Atoms:
    """pi, log 2, log pi and log(2 pi) rounded to dps digits, once per dps,
    as mp.pi, mp.log(2), mp.log(mp.pi) and mp.log(2 * mp.pi) take them."""
    prec = dps_to_prec(dps)
    bits = prec + 64  # guard bits, as mpmath computes its own
    pi = _round(_pi(bits), 1, -bits, prec)
    return Atoms(pi, *(_round(_log(x, bits), 1, -bits, prec)
                       for x in (Binary(2), pi, Binary(pi.man, pi.exp + 1))))


class _CrvzWeights:
    """The CRVZ weights at one dps, shared by every zeta(n) evaluated there:
    the integers d and c_0 .. c_(N-1), the working precision the sum is
    rounded to, and its fixed-point width in bits.

    All of them are exact.  d = ((3+sqrt 8)^N + (3-sqrt 8)^N)/2 is an integer,
    and so is every b_k = (-1)^(k+1) N/(N+k) C(N+k, 2k) 4^k, whence the
    division in b_(k+1) = 2(k+N)(k-N) b_k / ((2k+1)(k+1)) is exact and each
    c_k = b_k - c_(k-1), from c_(-1) = -d, is an integer too.  The sum
    leaves a relative truncation error of at most 2 (3+sqrt 8)^-N, about 1/d,
    and N is chosen so that d > 10^working_dps.
    """

    def __init__(self, dps: int):
        self.working_dps = dps + extra_digits("zeta_int")
        # each of the N floors of the sum errs by under 2^-shift, which d
        # absorbs
        self.shift = dps_to_prec(self.working_dps)
        nterms = int(1.32 * self.working_dps) + 4
        x, y = 1, 0
        for _ in range(nterms):
            x, y = 3 * x + 8 * y, x + 3 * y
        self.d = x
        b, c = -1, -x
        weights = []
        for k in range(nterms):
            c = b - c
            weights.append(c)
            b = 2 * (k + nterms) * (k - nterms) * b // ((2 * k + 1) * (k + 1))
        self.weights = tuple(weights)


# one row per dps; zeta_int_mpf reads one dps per context
_crvz_weights = lru_cache(maxsize=16)(_CrvzWeights)


@lru_cache(maxsize=4096)
def _zeta_int_raw(n: int, dps: int) -> Binary:
    """zeta(n), n >= 2, accurate to dps + the zeta_int row's digits.

    acc = sum_k floor(c_k 2^shift / (k+1)^n) is eta(n) d 2^shift in integers;
    zeta(n) = acc 2^(n-1) / (d (2^(n-1) - 1) 2^shift) is rounded once, at
    the row's working precision.
    """
    row = _crvz_weights(dps)
    acc = sum((c << row.shift) // k**n for k, c in enumerate(row.weights, 1))
    half = 1 << (n - 1)
    return _round(acc * half, row.d * (half - 1), -row.shift, dps_to_prec(row.working_dps))


def zeta_int_mpf(n: int, ctx: PrecisionContext) -> Binary:
    """zeta(n), n >= 2, at one precision per context, wide enough for every
    reader: working_dps plus the zeta_atom row, accurate to the zeta_int row
    beyond that."""
    check_index(n, "the zeta argument n", 2)
    return _zeta_int_raw(n, ctx.working_dps + extra_digits("zeta_atom"))


def polygamma_three_halves_mpf(n: int, ctx: PrecisionContext) -> Binary:
    """Raw psi^(n)(3/2) at working precision.

    n = 0:   psi(3/2) = 2 - gamma - 2 log 2, with gamma taken from the
             Stieltjes machinery (single source of truth for gamma).
    n >= 1:  psi^(n)(3/2) = (-1)^(n+1) n! ([2^(n+1) - 1] zeta(n+1) - 2^(n+1)).

    The n >= 1 bracket cancels to roughly (2/3)^(n+1), so it is evaluated
    at the budget's psi_three_halves row in the stable grouping below.
    """
    check_index(n, "the polygamma order n", 0)
    return _polygamma_memo(n, ctx)


@lru_cache(maxsize=256)
def _polygamma_memo(n: int, ctx: PrecisionContext) -> Binary:
    """psi^(n)(3/2) for a checked n, at its own fixed precision."""
    if n == 0:
        gamma = stieltjes_gamma(0, Binary(1), ctx)
        with workdps(ctx.working_dps):
            return +(2 - gamma - 2 * atoms(ctx.working_dps).log2)
    with workdps(ctx.working_dps + extra_digits("psi_three_halves", n)):
        z = zeta_int_mpf(n + 1, ctx)
        # (2^(n+1) - 1) z - 2^(n+1) = 2^(n+1) (z - 1) - z
        bracket = 2 ** (n + 1) * (z - 1) - z
        sign = 1 if n % 2 == 1 else -1
        return +(sign * math.factorial(n) * bracket)
