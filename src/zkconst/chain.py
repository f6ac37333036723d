"""One builder for every constant family, and the one place their order
gamma -> eta -> sigma -> lambda | xi1 (and gamma -> zeta0) is written down.

Above gamma, only `table` takes a max_n and checks it against the family's
cap: each step map takes the table below it and maps the whole of it, so a
family up to max_n is the map of the table below it up to max_n
(eta_0..eta_(max_n - 1) for sigma).  zeta0 keeps its max_n, since its solve
precision grows with it.  stieltjes_gamma memoises each series value, so rebuilding a chain
costs only the cheap algebra above gamma.  Range errors name the CLI flags,
since the CLI passes its arguments straight through.
"""

from __future__ import annotations

from . import eta_sigma, li_keiper, xi, zeta_derivs
from .precision import PrecisionContext, check_index
from .stieltjes import ConstantTable, family, stieltjes_table


def table(kind: str, max_n: int, ctx: PrecisionContext, u=None) -> ConstantTable:
    """The `kind` family from its first index up to max_n; u is for gamma only."""
    start, cap = family(kind)
    if u is not None and kind != "gamma":
        raise ValueError("--u is only meaningful with --seq gamma")
    check_index(max_n, f"--max-n for {kind}", start, cap)
    if kind == "gamma":
        return stieltjes_table(max_n, ctx, u=1 if u is None else u)
    if kind == "eta":
        return eta_sigma.eta_from_gamma(table("gamma", max_n, ctx), ctx)
    if kind == "sigma":
        return eta_sigma.sigma_table(table("eta", max_n - 1, ctx), ctx)
    if kind == "zeta0":
        gammas = table("gamma", max(0, max_n - 1), ctx)
        return zeta_derivs.zeta_derivs_at_zero(max_n, gammas, ctx)
    sigmas = table("sigma", max_n, ctx)
    if kind == "lambda":
        return li_keiper.lambda_table(sigmas, ctx)
    return xi.xi_table(sigmas, ctx)
