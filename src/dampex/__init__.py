"""dampex: desk-scale verification of diffusion-type spectral expansions
for a wave equation carrying both frictional and viscoelastic damping."""

from .errors import (ConfigError, DampexError, InsufficientOrderError,
                     QuadratureError, SingularEvaluationError)
from .expansion import ExpansionPolynomial, Term, build_expansion, combine
from .experiments import (Case, TimeGrid, default_config,
                          expected_decay_slope, fit_decay_rate,
                          heat_comparison, run_report, sandwich_check,
                          vanishing_limit_check)
from .initial_data import (Box, Gaussian, GaussianMonomial, InitialDatum,
                           MomentTable, Shifted, SumDatum, add_data,
                           datum_from_config, gauss_kernel, moment_table,
                           pair_from_config, weighted_l1_norm, zero_datum)
from .norms import (FrequencyRegion, gaussian_monomial_integral,
                    heat_increment_norm, norm_curve, poly_gaussian_l2_norm,
                    region_l2_norm, residual_norm, residual_norm_curve)
from .quadrature import QuadResult
from .spectral import (REPRESENTATIONS, LowFrequencySymbol, SpectralSolution,
                       stable_heat_difference)

__version__ = "0.1.0"
