"""One builder for every constant family, and the one place their order
gamma -> eta -> sigma -> lambda | xi1 (and gamma -> zeta0) is written down.

Above gamma, only `table` takes a max_n and checks it against the family's
cap: each step map takes the table below it and maps the whole of it, under
that table's context, so a family up to max_n is the map of the table below
it up to max_n (eta_0..eta_(max_n - 1) for sigma, gamma_0..gamma_(max_n - 1)
for zeta0, whose table up to 0 is a prefix of the one up to 1).
Range errors name the CLI flags, since the CLI passes its arguments
straight through.

Every table is built once per process.  A gamma table is the prefix of the
gamma row, the one memo of gamma (stieltjes.stieltjes_table).  Above gamma,
each step map is prefix-stable: the table up to m is, value for value, the
first entries of the table up to any longer max_n.  So one memo per (family,
context) keeps the longest table built so far and serves a shorter request
as its prefix; only a longer one builds again, from the memoised table below
it.  A build that raises stores nothing.
"""

from __future__ import annotations

from functools import lru_cache

from . import eta_sigma, li_keiper, stieltjes, xi, zeta_derivs
from .precision import PrecisionContext, check_index, family


def table(kind: str, max_n: int, ctx: PrecisionContext, u=None) -> stieltjes.ConstantTable:
    """The `kind` family from its first index up to max_n; u is for gamma only."""
    start, cap = family(kind)
    if u is not None and kind != "gamma":
        raise ValueError("--u is only meaningful with --seq gamma")
    check_index(max_n, f"--max-n for {kind}", start, cap)
    if kind == "gamma":
        return stieltjes.stieltjes_table(max_n, ctx, 1 if u is None else u)
    return _longest(kind, ctx).prefix(max_n)


class _Longest:
    """The longest `kind` table built so far at one ctx."""

    def __init__(self, kind: str, ctx: PrecisionContext):
        self.kind, self.ctx = kind, ctx
        self.table = None

    def prefix(self, max_n: int) -> stieltjes.ConstantTable:
        """The table up to max_n, built only when the longest one falls short."""
        if self.table is None or self.table.max_n < max_n:
            self.table = _build(self.kind, max_n, self.ctx)
        if self.table.max_n == max_n:
            return self.table
        end = max_n - self.table.start + 1
        return stieltjes.ConstantTable(self.kind, self.table.values[:end],
                                       self.table.methods[:end], self.ctx)


# the five families above gamma at a handful of contexts
_longest = lru_cache(maxsize=64)(_Longest)


def _build(kind: str, max_n: int, ctx: PrecisionContext) -> stieltjes.ConstantTable:
    """The `kind` table up to a checked max_n, from the memoised table below it."""
    if kind == "zeta0":
        return zeta_derivs.zeta_derivs_at_zero(table("gamma", max(0, max_n - 1), ctx))
    if kind == "eta":
        return eta_sigma.eta_from_gamma(table("gamma", max_n, ctx))
    if kind == "sigma":
        return eta_sigma.sigma_table(table("eta", max_n - 1, ctx))
    sigmas = table("sigma", max_n, ctx)
    if kind == "lambda":
        return li_keiper.lambda_table(sigmas)
    return xi.xi_table(sigmas)

