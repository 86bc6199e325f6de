"""Generalized grey Brownian motion: special functions, exact samplers,
path generation, densities, Green potentials, and Monte Carlo verification
of the perpetual-integral identity.
"""

from .exceptions import (ConvergenceError, DomainError, EmbeddingError,
                         GgbmError, PoleError, SingularMatrixError)
from .fbm import GridSpec, Path, generate_fbm
from .green import (GreenDensity, TestFunction, bump_test_function,
                    continuity_constant, gaussian_test_function,
                    green_density_at, green_measure_of_ball, potential,
                    time_integral_kernel)
from .model import ModelParams
from .montecarlo import (Estimate, PerpetualSpec, estimate_potential_mc,
                         tail_bound)
from .process import (fdd_charfun, fdd_density, ggbm_path_product,
                      ggbm_path_subordinated, ggbm_paths, marginal_density)
from .randvar import (SeedSpec, make_stream, sample_one_sided_stable,
                      sample_y_beta_array)
from .specfun import (EvalResult, gamma, green_constant, m_wright,
                      m_wright_moment, mittag_leffler, time_kernel_constant)

__version__ = "0.1.0"
