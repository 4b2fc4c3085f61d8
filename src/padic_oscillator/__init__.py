"""Exact oscillator mechanics over the reals and every p-adic completion.

The package splits into layers: exact scalar arithmetic and characters
(`exact_numbers`), truncated power series over the rationals (`series`),
quadratic character integrals with an independent brute-force oracle
(`gauss_analysis`), the classical amplitude/phase solution and action
bookkeeping (`classical_oscillator`), quadratic kernels at one place
(`propagator`), adelic assembly (`adelic`), randomized verification
sweeps (`suites`) and the command line (`cli`).
"""

from .adelic import (
    Adele,
    AdelicProduct,
    AdelicState,
    GaussianGroundState,
    OmegaProduct,
    PAdicFactor,
    VacuumReport,
    adelic_propagator_product,
    discreteness_profile,
    eigen_evolution_check,
    omega_product,
    probability_reduction,
    vacuum_check,
    vacuum_state,
)
from .classical_oscillator import (
    DEFAULT_ORDER,
    AmplitudePhase,
    EndpointData,
    OscillatorModel,
    amplitude_residual,
    boundary_action,
    classical_action,
    convergence_certificate,
    endpoint_data,
    endpoint_momenta,
    model_from_omega_coeffs,
    momentum,
    momentum_series,
    parse_preset,
    phase_residual,
    preset_constant,
    preset_example1,
    preset_example2,
    preset_free,
    solve_amplitude_phase,
    trajectory_endpoints,
    trajectory_residual,
)
from .errors import (
    CausticError,
    DepthTooSmallError,
    DivergenceError,
    MagnitudeOverflowError,
    NormalizationError,
    OracleBudgetError,
    PadicOscillatorError,
    PrecisionError,
    PrimeCutoffError,
    VacuumAbsentError,
)
from .exact_numbers import (
    HalfPower,
    PAdicApprox,
    UnitPhase,
    canonical_expansion,
    chi,
    fractional_part,
    frac_str,
    omega,
    padic_norm,
    padic_sqrt,
    padic_valuation,
    parse_rational,
    primes_upto,
    real_norm,
)
from .gauss_analysis import (
    AmplitudeValue,
    GaussIntegralSpec,
    branch_of,
    gauss_brute_force,
    gauss_closed_form,
    lambda_p,
    local_constancy_depth,
    oracle_plan,
)
from .propagator import (
    REAL_PLACE,
    CompositionReport,
    KernelValue,
    QuadraticKernel,
    compose_oracle,
    evaluate_kernel,
    evolution_matrix,
    evolve_initial,
    kernel_at,
    kernel_from_action,
    kernel_solution,
    lambda_real,
    oscillator_kernel,
    phase_doubling_check,
)
from .series import (
    RationalSeries,
    atan_series,
    binomial_series,
    cos_series,
    exp_series,
    log1p_series,
    sin_series,
)

__version__ = "0.1.0"
