"""snoise: simulation and analysis of time-inhomogeneous shot-noise processes.

Exact characteristic-function evaluation, thinning-based path simulation,
Markovianity detection, affine self-exciting dynamics, and
equivalent-martingale-measure construction for a shot-noise stock model,
with every closed form cross-validated against a Monte Carlo oracle.
"""

from . import errors
from .affine import (
    HawkesParams,
    HawkesPath,
    RiccatiSolution,
    affine_cf,
    riccati_solve,
    simulate_hawkes,
    simulate_hawkes_batch,
)
from .kernels import (
    MarkovTest,
    NoiseKernel,
    check_absolute_continuity,
    custom,
    eval_G,
    exponential,
    from_table,
    is_markov_kernel,
    jump_to_level,
    power_law,
    random_decay,
)
from .marks import (
    Discrete,
    Exponential,
    MarkDistribution,
    Normal,
    PointMass,
    ProductIid,
    SampleOnly,
    Uniform,
)
from .measure_change import (
    DensityPath,
    GirsanovKernel,
    MarketParams,
    MartingaleMeasureSpec,
    StockPaths,
    density_process,
    drift_residual,
    esscher_density,
    eta_normalization,
    girsanov_compensator,
    identity_kernel,
    jump_moment_m1,
    market_price_of_risk,
    mmm_ell,
    prime_spec,
    reweighted_expectation,
    simulate_stock,
    stationary_reweight,
    sum_past_g,
    unit_eta,
)
from .point_process import (
    CompensatorSpec,
    MppPath,
    compensator_mass,
    empty_path,
    past_sum,
    simulate_mpp,
    slice_integrand,
    standard,
)
from .quadrature import cumulative_integral, gauss_kronrod
from .rng import make_stream
from .shotnoise import (
    CfParts,
    Decomposition,
    FiltrationState,
    ShotNoiseProcess,
    conditional_cf,
    conditional_cf_parts,
    conditional_mean,
    eval_shotnoise,
    ou_recursive_update,
    semimartingale_decompose,
)
from .stats import (
    CfEstimate,
    DriftTestReport,
    KsResult,
    batch_log_weights,
    batch_terminal_shotnoise,
    cf_ratio,
    empirical_cf,
    ks_against_cdf,
    ks_two_sample_weighted,
    martingale_drift_test,
    mean_estimate,
    simulate_batch,
    simulate_standard_batch,
)

__version__ = "0.1.0"
