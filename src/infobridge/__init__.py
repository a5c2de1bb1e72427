"""Brownian bridges with random length and a discrete pinning point.

The package simulates the pinned bridge exactly on a grid, filters the
joint law of (length, pin) from the observed path, estimates pathwise local
times, and evaluates the explicit compensators of the absorption indicator
(and of the pin value times the indicator) as Stieltjes integrals of an
intensity kernel against local time at the pin levels.  A statistical
harness turns the model's exact identities into seeded pass/fail checks.
"""

from .kernels import (
    QuadratureError,
    gaussian_density,
    log_gaussian_density,
    bridge_marginal_density,
    mix_weight,
)
from .laws import (
    ExponentialLaw,
    UniformLaw,
    GammaLaw,
    TruncatedExponentialLaw,
    CustomLengthLaw,
    PinningLaw,
    ModelSpec,
)
from .paths import (
    SamplePath,
    PathEnsemble,
    simulate_deterministic_bridge,
    simulate_information_path,
    simulate_ensemble,
    simulate_bridge_ensemble,
    simulate_brownian_motion,
    quadratic_variation,
    save_path_csv,
    save_ensemble,
    load_ensemble,
)
from .filtering import (
    PosteriorState,
    TransitionLaw,
    posterior,
    pin_posterior,
    survival_probability,
    transition_law,
    drift,
    DriftCache,
    innovation_path,
)
from .localtime import (
    LocalTimeCurve,
    occupation_local_time,
    tanaka_local_time,
    occupation_formula_check,
)
from .compensator import (
    CompensatorCurve,
    IntensityKernel,
    compensator_K,
    compensator_frak,
    meyer_approx_Ah,
    martingale_N,
    martingale_M,
)
from .verify import (
    TestReport,
    EnsembleSummary,
    ks_test,
    ks_test_exponential,
    martingale_expectation_test,
    refinement_report,
    run_verification_suite,
)

__version__ = "0.1.0"
