"""nleig: spectra of critical initial conditions of y'(x) = F(xy).

The library computes the discrete set of initial values E_n whose solutions
are separatrices, for a family of oscillatory generating functions F
(cosine, Bessel, Airy, reciprocal gamma, rescaled Riemann xi), and provides
the matching large-index asymptotics: limit curves, growth laws, envelope
scaling and the random-walk moment coefficients behind them.
"""

__version__ = "0.1.0"

from . import specfun
from .models import (AsymptoticForm, GeneratingFunction, Frame, make_model,
                     eval_F, eval_F_prime)
from .ode import IntegratorConfig, SolutionCurve, integrate, count_maxima
from .spectrum import EigenResult, classify, find_eigen, refine_backward, \
    spectrum_scan
from .asymptotics import (LimitCurve, GrowthLaw, WalkCoefficients,
                          limit_curve, growth_law, forbidden_region_z,
                          walk_coefficients, walk_coefficients_dp, envelope,
                          rgamma_asymptote, rgamma_asymptote_log,
                          rgamma_limit_curve)

__all__ = [
    "specfun", "__version__",
    "AsymptoticForm", "GeneratingFunction", "Frame", "make_model", "eval_F",
    "eval_F_prime",
    "IntegratorConfig", "SolutionCurve", "integrate", "count_maxima",
    "EigenResult", "classify", "find_eigen", "refine_backward", "spectrum_scan",
    "LimitCurve", "GrowthLaw", "WalkCoefficients", "limit_curve",
    "growth_law", "forbidden_region_z", "walk_coefficients",
    "walk_coefficients_dp", "envelope", "rgamma_asymptote",
    "rgamma_asymptote_log", "rgamma_limit_curve",
]
