"""High-precision constants of the Riemann zeta/xi circle, cross-verified.

Computes the generalized Stieltjes constants gamma_n(u), the eta constants
eta_n, the sigma coefficients of the log-xi expansion, the Li/Keiper
constants lambda_n, xi derivatives at 1, and zeta derivatives at 0 -- each
through multiple independent formula routes -- and verifies every identity,
recurrence and sign claim tying them together.
"""

from .bell import MultiPoly, bell_determinant, bell_symbolic
from .chain import table
from .eta_sigma import (
    eta_from_gamma,
    eta_from_gamma_coffey,
    gamma_from_eta,
    sigma_from_eta,
    sigma_table,
)
from .li_keiper import (
    g_derivs_at_one,
    g_derivs_at_one_via_eta,
    lambda_closed,
    lambda_table,
    lambda_via_coffey,
    lambda_via_eta_psi,
    lambda_via_sigma,
    positivity_report,
    recurrence_residual_3_13,
)
from .precision import ConvergenceError, PrecisionContext
from .reports import VerificationReport
from .stieltjes import ConstantTable, stieltjes_gamma, stieltjes_table
from .verify import run_suite
from .xi import xi_deriv_at_one, xi_deriv_at_zero, xi_deriv_recurrence, xi_table
from .zeta_derivs import (
    L_derivs_at_zero,
    gamma_from_zeta_derivs,
    zeta_derivs_at_zero,
    zeta_derivs_log_chain,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantTable",
    "ConvergenceError",
    "MultiPoly",
    "PrecisionContext",
    "VerificationReport",
    "L_derivs_at_zero",
    "bell_determinant",
    "bell_symbolic",
    "eta_from_gamma",
    "eta_from_gamma_coffey",
    "g_derivs_at_one",
    "g_derivs_at_one_via_eta",
    "gamma_from_eta",
    "gamma_from_zeta_derivs",
    "lambda_closed",
    "lambda_table",
    "lambda_via_coffey",
    "lambda_via_eta_psi",
    "lambda_via_sigma",
    "positivity_report",
    "recurrence_residual_3_13",
    "run_suite",
    "sigma_from_eta",
    "sigma_table",
    "stieltjes_gamma",
    "stieltjes_table",
    "table",
    "xi_deriv_at_one",
    "xi_deriv_at_zero",
    "xi_deriv_recurrence",
    "xi_table",
    "zeta_derivs_at_zero",
    "zeta_derivs_log_chain",
]
