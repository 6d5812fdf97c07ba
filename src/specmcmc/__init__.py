"""Whittle-likelihood MCMC for stationary series, with subsampled estimators.

Inference runs in the frequency domain: the periodogram of a demeaned series
is matched against a parametric spectral density (ARMA, ARFIMA, ARTFIMA,
optionally wrapped for stochastic volatility) through the Whittle
log-likelihood.  For long series a block pseudo-marginal chain replaces the
full likelihood with a debiased subsampled estimate whose variance is tamed
by grouped control variates, either Taylor expansions or coresets.
"""

from .control_variates import (
    CoresetCV,
    GigaResult,
    GroupProjection,
    TaylorCV,
    WeightingDistribution,
    ZeroCV,
    build_coreset_cv,
    build_taylor_cv,
    giga,
    laplace_weighting,
    make_groups,
    project_group,
)
from .diagnostics import (
    EfficiencyReport,
    efficiency_report,
    inefficiency_factor,
    kde_grid,
    posterior_mean_spectrum,
    relative_ct,
)
from .models import (
    ModelSpec,
    NaturalParams,
    ParameterRangeError,
    log_prior,
    log_prior_derivatives,
    pacf_to_ar,
    spectral_density,
    to_natural,
)
from .sampler import (
    ChainOutput,
    ChainSettings,
    LogLikEstimate,
    ModeResult,
    SubsampleIndicators,
    block_refresh,
    diff_estimator,
    find_mode,
    run_full_chain,
    run_pm_chain,
)
from .series import TimeSeries, demean, load_series, log_square_transform, simulate_arma
from .spectral import FrequencyGrid, Periodogram, periodogram
from .whittle import GroupIndex, WhittleData, full_loglik, grad_hess

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
