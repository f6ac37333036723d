"""High-precision constants of the Riemann zeta/xi circle, cross-verified.

Computes the generalized Stieltjes constants gamma_n(u), the eta constants
eta_n, the sigma coefficients of the log-xi expansion, the Li/Keiper
constants lambda_n, xi derivatives at 1, and zeta derivatives at 0 -- each
through multiple independent formula routes -- and verifies every identity,
recurrence and sign claim tying them together.

Every submodule but __main__ is registered lazily: it sits in sys.modules and
on the package from the start, but its code runs on the first attribute read,
so a command executes only the modules its route reaches (`table --seq gamma`
runs cli, chain, precision and stieltjes).  The public names are listed
once, in _HOMES under their home module, and __all__ is read off it; each
resolves through the module-level __getattr__, which loads its home module.
"""

import importlib.util
import os
import sys

__version__ = "0.1.0"

# the module each public name is defined in
_HOMES = {
    "bell": ("bell_determinant", "bell_symbolic"),
    "chain": ("table",),
    "eta_sigma": ("eta_from_gamma", "eta_from_gamma_coffey", "gamma_from_eta", "sigma_table"),
    "li_keiper": (
        "g_derivs_at_one", "g_derivs_at_one_via_eta", "lambda_closed", "lambda_table",
        "lambda_via_coffey", "lambda_via_eta_psi", "positivity_report",
        "recurrence_residual_3_13",
    ),
    "precision": ("ConvergenceError", "PrecisionContext"),
    "reports": ("VerificationReport",),
    "stieltjes": ("ConstantTable", "stieltjes_gamma", "stieltjes_table"),
    "verify": ("run_suite",),
    "xi": ("xi_deriv_recurrence", "xi_table"),
    "zeta_derivs": (
        "L_derivs_at_zero", "gamma_from_zeta_derivs", "zeta_derivs_at_zero",
        "zeta_derivs_log_chain",
    ),
}
__all__ = [name for names in _HOMES.values() for name in names]


def _register_lazily() -> None:
    """Put every submodule but __main__ in sys.modules and on the package,
    each to execute on its first attribute read."""
    for file in sorted(os.listdir(__path__[0])):
        if not file.endswith(".py") or file.startswith("__"):
            continue
        spec = importlib.util.find_spec(f"{__name__}.{file[:-3]}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        globals()[file[:-3]] = module
        spec.loader.exec_module(module)


_register_lazily()


def __getattr__(name: str):
    for home, names in _HOMES.items():
        if name in names:
            return getattr(globals()[home], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
