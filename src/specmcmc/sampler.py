"""Posterior mode, subsampled likelihood estimator, and Metropolis chains.

The pseudo-marginal chain targets an extended posterior over (theta, u) where
u picks m frequency groups with replacement.  A debiased difference estimator
built from a control variate stands in for the log-likelihood; one block of u
is refreshed per iteration jointly with the parameter proposal, which keeps
successive estimates correlated and the acceptance rate healthy even when a
single estimate is noisy.

Both chains draw proposal increments and acceptance uniforms from one stream
and subsample indices from a second stream spawned off the same seed, so a
full-data run and a subsampled run with the same seed see identical proposal
sequences.

A proposal whose log-scale coordinates leave the floating-point range
(``ParameterRangeError`` from the parameter map) gets log target -inf: it is
rejected after the acceptance uniform is drawn, so the random streams stay in
step with a run that evaluated it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .models import ParameterRangeError
from .whittle import GroupIndex, fd_gradient, fd_hessian, full_loglik, group_logliks


@dataclass(frozen=True)
class SubsampleIndicators:
    """m group picks, partitioned into contiguous blocks of near-equal size."""

    u: np.ndarray
    n_blocks: int
    n_groups: int

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=np.intp)
        if u.ndim != 1 or u.size == 0:
            raise ValueError("u must be a non-empty index vector")
        if np.any(u < 0) or np.any(u >= self.n_groups):
            raise ValueError("group indices out of range")
        if self.n_blocks < 1:
            raise ValueError("need at least one block")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def m(self) -> int:
        return self.u.size

    def block_bounds(self, b: int) -> tuple[int, int]:
        """Half-open index range of block b; blocks may be empty when B > m."""
        if not 0 <= b < self.n_blocks:
            raise IndexError("block index out of range")
        base, extra = divmod(self.m, self.n_blocks)
        start = b * base + min(b, extra)
        return start, start + base + (1 if b < extra else 0)


def block_refresh(sub: SubsampleIndicators, b: int, rng: np.random.Generator) -> SubsampleIndicators:
    """Redraw block b uniformly over the groups, leaving the rest in place."""
    start, stop = sub.block_bounds(b)
    u = sub.u.copy()
    u[start:stop] = rng.integers(0, sub.n_groups, size=stop - start)
    return SubsampleIndicators(u=u, n_blocks=sub.n_blocks, n_groups=sub.n_groups)


@dataclass(frozen=True)
class LogLikEstimate:
    """Unbiased log-likelihood estimate with its variance estimate and cost."""

    ell_hat: float
    sigma2_hat: float
    density_evals: int

    def __post_init__(self) -> None:
        if self.sigma2_hat < 0:
            raise ValueError("variance estimate cannot be negative")


# Stands in for the estimate at a proposal outside the model's range: log
# target -inf, nothing evaluated.
_OUT_OF_RANGE = LogLikEstimate(ell_hat=-math.inf, sigma2_hat=0.0, density_evals=0)


def debias(estimate: LogLikEstimate) -> float:
    """Subtract half the estimated variance.

    exp(ell_hat - sigma2_hat / 2) is unbiased for the likelihood when ell_hat
    is Gaussian around the truth with variance sigma2_hat, which is what the
    pseudo-marginal argument needs.
    """
    return estimate.ell_hat - 0.5 * estimate.sigma2_hat


def diff_estimator(data, g: GroupIndex, cv, theta, sub: SubsampleIndicators) -> LogLikEstimate:
    """Difference estimator over the sampled groups.

    ell_hat = sum_k q_k(theta) + (n_groups / m) * sum_i (ell_{u_i} - q_{u_i})
    with q from the control variate (identically zero when ``cv`` is None),
    and sigma2_hat = n_groups^2 * var(differences) / m.  Charges one density
    evaluation per sampled frequency plus the control variate's own
    evaluation cost.
    """
    if sub.m < 2:
        raise ValueError("need m >= 2 so the variance is estimable")
    theta = np.asarray(theta, dtype=float)
    members = [np.asarray(g.groups[k], dtype=np.intp) for k in sub.u]
    indices = np.concatenate(members)
    terms = data.terms(theta, indices)
    bounds = np.cumsum([0] + [idx.size for idx in members])
    ell_groups = np.add.reduceat(terms, bounds[:-1])
    if cv is None:
        q_groups = np.zeros(sub.m)
        q_total = 0.0
        extra = 0
    else:
        q_groups = cv.group_values(data, theta, sub.u)
        q_total = cv.total(data, theta)
        extra = cv.eval_cost
    diffs = ell_groups - q_groups
    ell_hat = q_total + g.n_groups * float(diffs.mean())
    sigma2_hat = g.n_groups**2 * float(diffs.var(ddof=1)) / sub.m
    return LogLikEstimate(
        ell_hat=ell_hat,
        sigma2_hat=sigma2_hat,
        density_evals=int(indices.size) + extra,
    )


@dataclass(frozen=True)
class ModeResult:
    """Posterior mode with the log-posterior curvature there."""

    theta: np.ndarray
    hessian: np.ndarray
    log_posterior: float

    @property
    def laplace_cov(self) -> np.ndarray:
        return np.linalg.inv(-self.hessian)


def find_mode(data, log_prior_fn, theta0, max_iter: int = 1000) -> ModeResult:
    """Maximize the log posterior by quasi-Newton ascent.

    Gradients fed to the optimizer and the final curvature are central
    differences.  Exits only if the gradient norm is below
    1e-5 * (1 + |log posterior|); a curvature that is not negative definite
    at the optimum is an error rather than something to patch over.
    """
    theta0 = np.asarray(theta0, dtype=float)

    def log_post(v):
        return full_loglik(data, v) + log_prior_fn(v)

    result = minimize(
        lambda v: -log_post(v),
        theta0,
        jac=lambda v: -fd_gradient(log_post, v),
        method="BFGS",
        options={"gtol": 1e-9, "maxiter": max_iter},
    )
    mode = np.asarray(result.x, dtype=float)
    value = log_post(mode)
    grad_norm = float(np.linalg.norm(fd_gradient(log_post, mode)))
    if not grad_norm < 1e-5 * (1.0 + abs(value)):
        raise ValueError(f"mode search did not converge: |grad| = {grad_norm:.3e}")
    hessian = fd_hessian(log_post, mode)
    try:
        np.linalg.cholesky(-hessian)
    except np.linalg.LinAlgError as exc:
        raise ValueError("log-posterior curvature at the mode is not negative definite") from exc
    return ModeResult(theta=mode, hessian=hessian, log_posterior=float(value))


@dataclass(frozen=True)
class ChainSettings:
    """Length, blocking, and proposal scaling of a Metropolis run.

    ``iterations`` counts kept draws after ``burn_in`` discarded ones.
    ``proposal_scale`` multiplies the Laplace covariance; None picks the
    common 2.38^2 / dim random-walk scaling.  ``m`` and ``n_blocks`` only
    matter for the subsampled chain.
    """

    iterations: int = 50_000
    burn_in: int = 5_000
    seed: int = 0
    m: int = 2
    n_blocks: int = 1
    proposal_scale: float | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.burn_in < 0:
            raise ValueError("need iterations >= 1 and burn_in >= 0")
        if self.m < 2 or self.n_blocks < 1:
            raise ValueError("need m >= 2 and at least one block")
        if self.proposal_scale is not None and self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")


@dataclass(frozen=True)
class ChainOutput:
    """Kept draws (unconstrained space) with traces and cost accounting."""

    draws: np.ndarray
    loglik_trace: np.ndarray
    acceptance_rate: float
    density_evals: int
    param_names: tuple


def _chain_rngs(seed) -> tuple[np.random.Generator, np.random.Generator]:
    chain_seq, sub_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(chain_seq), np.random.default_rng(sub_seq)


def _proposal_factor(mode: ModeResult, settings: ChainSettings) -> np.ndarray:
    dim = mode.theta.size
    scale = settings.proposal_scale if settings.proposal_scale is not None else 2.38**2 / dim
    return np.linalg.cholesky(scale * mode.laplace_cov)


def _names(data, dim: int) -> tuple:
    model = getattr(data, "model", None)
    if model is not None:
        return model.param_names()
    return tuple(f"x{i}" for i in range(dim))


def run_full_chain(data, log_prior_fn, settings: ChainSettings, mode: ModeResult) -> ChainOutput:
    """Random-walk Metropolis on the exact Whittle posterior."""
    rng_chain, _ = _chain_rngs(settings.seed)
    factor = _proposal_factor(mode, settings)
    dim = mode.theta.size

    theta = mode.theta.copy()
    log_lik = full_loglik(data, theta)
    log_pri = log_prior_fn(theta)
    evals = data.n_freq

    total = settings.burn_in + settings.iterations
    draws = np.empty((settings.iterations, dim))
    trace = np.empty(settings.iterations)
    accepted = 0
    for it in range(total):
        proposal = theta + factor @ rng_chain.standard_normal(dim)
        try:
            lik_prop = full_loglik(data, proposal)
        except ParameterRangeError:
            lik_prop = -math.inf
        else:
            evals += data.n_freq
        pri_prop = log_prior_fn(proposal)
        log_ratio = (lik_prop + pri_prop) - (log_lik + log_pri)
        if math.log(rng_chain.random()) < log_ratio:
            theta, log_lik, log_pri = proposal, lik_prop, pri_prop
            accepted += 1
        if it >= settings.burn_in:
            draws[it - settings.burn_in] = theta
            trace[it - settings.burn_in] = log_lik
    return ChainOutput(
        draws=draws,
        loglik_trace=trace,
        acceptance_rate=accepted / total,
        density_evals=evals,
        param_names=_names(data, dim),
    )


def run_pm_chain(
    data,
    g: GroupIndex,
    cv,
    log_prior_fn,
    settings: ChainSettings,
    mode: ModeResult,
) -> ChainOutput:
    """Block pseudo-marginal Metropolis with the debiased difference estimator.

    Each iteration proposes theta and a refresh of one indicator block
    jointly; rejection keeps both.  The block index advances cyclically, so
    every indicator is refreshed once per n_blocks iterations on average.
    """
    rng_chain, rng_sub = _chain_rngs(settings.seed)
    factor = _proposal_factor(mode, settings)
    dim = mode.theta.size

    sub = SubsampleIndicators(
        u=rng_sub.integers(0, g.n_groups, size=settings.m),
        n_blocks=settings.n_blocks,
        n_groups=g.n_groups,
    )
    theta = mode.theta.copy()
    estimate = diff_estimator(data, g, cv, theta, sub)
    log_pri = log_prior_fn(theta)
    evals = estimate.density_evals + (cv.setup_evals if cv is not None else 0)

    total = settings.burn_in + settings.iterations
    draws = np.empty((settings.iterations, dim))
    trace = np.empty(settings.iterations)
    accepted = 0
    block = 0
    for it in range(total):
        proposal = theta + factor @ rng_chain.standard_normal(dim)
        sub_prop = block_refresh(sub, block, rng_sub)
        block = (block + 1) % settings.n_blocks
        try:
            est_prop = diff_estimator(data, g, cv, proposal, sub_prop)
        except ParameterRangeError:
            est_prop = _OUT_OF_RANGE
        pri_prop = log_prior_fn(proposal)
        evals += est_prop.density_evals
        log_ratio = (debias(est_prop) + pri_prop) - (debias(estimate) + log_pri)
        if math.log(rng_chain.random()) < log_ratio:
            theta, sub, estimate, log_pri = proposal, sub_prop, est_prop, pri_prop
            accepted += 1
        if it >= settings.burn_in:
            draws[it - settings.burn_in] = theta
            trace[it - settings.burn_in] = estimate.ell_hat
    return ChainOutput(
        draws=draws,
        loglik_trace=trace,
        acceptance_rate=accepted / total,
        density_evals=evals,
        param_names=_names(data, dim),
    )
