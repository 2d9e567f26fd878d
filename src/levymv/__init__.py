"""levymv: particle and spectral solvers for measure-dependent SDEs
driven by alpha-stable Levy noise."""

from .coefficients import (CauchyKernel, Constant, LinearInteraction, SineKernel,
                           SmoothedDensityPower)
from .drivers import (JumpAtoms, LevyTripletSpec, StableDriverSpec,
                      cf_constant_from_levy_constant, levy_constant_from_cf_constant,
                      sample_increment_array, truncated)
from .fokker_planck import (DensityGrid, FractionalParams, FpResult, StabilityError,
                            adjoint_identity_check, bump, fractional_laplacian,
                            gaussian_grid, solve_fp, solve_linear_exact,
                            stable_heat_kernel_grid)
from .measures import (EmpiricalMeasure, check_empirical_distance_bound,
                       empirical_gap_experiment, second_moment, smoothed_density,
                       truncated_wasserstein2_upper, wasserstein2)
from .particles import (FileLaw, GaussianLaw, MarginalFlow, PicardResult, PointMass,
                        SimulationConfig, SimulationError, UniformLaw, chaos_rate_experiment,
                        picard_flow, simulate, simulate_coupled)
from .perturbation import (PerturbationParams, perturbation_profile,
                           perturbation_profile_deriv, verify_h1)
from .rng import substream

__version__ = "0.1.0"
