"""Posterior mode, subsampled likelihood estimator, and one Metropolis loop.

The pseudo-marginal chain targets an extended posterior over (theta, u) where
u picks m frequency groups with replacement.  A debiased difference estimator
built from a control variate stands in for the log-likelihood; one block of u
is refreshed per iteration jointly with the parameter proposal, which keeps
successive estimates correlated and the acceptance rate healthy even when a
single estimate is noisy.

There is one accept/reject loop.  The full-data chain is its exact,
zero-variance case: the estimate is the full log-likelihood with
sigma2_hat = 0, so its variance correction is zero, and there are no indicators.
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
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from .models import ParameterRangeError, _float_sum
from .whittle import GroupIndex, full_loglik, full_loglik_derivatives


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
        if not all(0 <= k < self.n_groups for k in u.tolist()):  # Python ints: cheaper
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
    """Redraw block b uniformly over the groups; for an empty block, ``sub`` itself."""
    start, stop = sub.block_bounds(b)
    if start == stop:
        return sub
    u = sub.u.copy()
    # size None draws what size 1 does, without numpy's np.prod(size) on the way
    u[start:stop] = rng.integers(0, sub.n_groups, size=None if stop - start == 1 else stop - start)
    return SubsampleIndicators(u=u, n_blocks=sub.n_blocks, n_groups=sub.n_groups)


@dataclass(frozen=True)
class LogLikEstimate:
    """Unbiased log-likelihood estimate with its variance estimate and cost."""

    ell_hat: float
    sigma2_hat: float
    density_evals: int

    def __post_init__(self) -> None:
        if not self.sigma2_hat >= 0:
            raise ValueError("variance estimate must be non-negative, not NaN")


# Stands in for the estimate at a proposal outside the model's range: log
# target -inf, nothing evaluated.
_OUT_OF_RANGE = LogLikEstimate(ell_hat=-math.inf, sigma2_hat=0.0, density_evals=0)


def diff_estimator(data, g: GroupIndex, cv, theta, sub: SubsampleIndicators) -> LogLikEstimate:
    """Difference estimator over the sampled groups.

    ell_hat = sum_k q_k(theta) + (n_groups / m) * sum_i (ell_{u_i} - q_{u_i})
    and sigma2_hat = n_groups^2 * var(differences) / m.  The control variate
    q is any object with ``group_values(data, theta, u)`` (q at the picked
    groups), ``total(data, theta)`` (q summed over all groups), ``eval_cost``
    (density evaluations charged per estimate) and ``setup_evals``
    (evaluations spent building it); ``ZeroCV`` gives the plain subsample
    estimator.
    Charges one density evaluation per sampled frequency plus ``eval_cost``.

    The mean and var(ddof=1) of the differences are numpy's bit for bit: the
    same float operations in Python, sums in ``np.sum``'s order (``_float_sum``).
    A non-finite difference, or differences too large to square, give ell_hat =
    -inf and sigma2_hat = +inf, a log target of -inf, which the chain rejects.
    """
    if sub.m < 2:
        raise ValueError("need m >= 2 so the variance is estimable")
    theta = np.asarray(theta, dtype=float)
    indices, starts = g.members(sub.u)
    ell_groups = np.add.reduceat(data.terms(theta, indices), starts)
    q = cv.group_values(data, theta, sub.u)
    density_evals = int(indices.size) + cv.eval_cost
    diffs = [ell - cv_value for ell, cv_value in zip(ell_groups.tolist(), q.tolist())]
    mean = _float_sum(diffs) / sub.m
    var = _float_sum([(d - mean) * (d - mean) for d in diffs]) / (sub.m - 1)
    if not math.isfinite(var):
        return LogLikEstimate(ell_hat=-math.inf, sigma2_hat=math.inf, density_evals=density_evals)
    return LogLikEstimate(
        ell_hat=cv.total(data, theta) + g.n_groups * mean,
        sigma2_hat=g.n_groups**2 * var / sub.m,
        density_evals=density_evals,
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


# Largest condition number of -H accepted at a mode.  Fits on the benchmark series read 24 (ARMA)
# to 580 (ARTFIMA); an all-zero periodogram, whose likelihood and prior cancel along the PACF
# coordinate, reads 7.5e11, a curvature of 1e-12 that only rounding makes negative.
_MAX_CONDITION = 1e10


def find_mode(data, log_prior_fn, theta0) -> ModeResult:
    """Maximize the log posterior by trust-region Newton steps on its exact curvature.

    ``log_prior_fn(v)`` gives the log prior's value, gradient and Hessian
    diagonal (``models.log_prior_derivatives``), one data pass the
    log-likelihood's (``whittle.full_loglik_derivatives``: on an M-point
    quadrature of the periodogram where it applies, else
    ``data.loglik_derivatives``), and scipy's
    ``trust-exact`` (More & Sorensen 1983) steps on their sum.  A point
    outside the model's range (``ParameterRangeError``, or a value or
    derivative beyond 1e150, whose square overflows) has objective +inf, so
    the trust region shrinks away from it.  Exits only if |grad| < 1e-5 *
    (1 + |log posterior|); the curvature is the exact Hessian at the mode,
    and one not negative definite, or whose condition number exceeds
    ``_MAX_CONDITION``, is an error.
    """
    passes = {}

    def negated(v):
        """-(log posterior), its gradient and Hessian at v, from one pass per distinct v."""
        key = v.tobytes()
        if key not in passes:
            passes[key] = (math.inf, np.zeros_like(v), np.zeros((v.size, v.size)))
            try:
                with np.errstate(all="ignore"):
                    loglik = full_loglik_derivatives(data, v)
                    prior = log_prior_fn(v)
            except ParameterRangeError:
                return passes[key]
            parts = (loglik[0] + prior[0], loglik[1] + prior[1], loglik[2] + np.diag(prior[2]))
            if all(np.all(np.abs(part) < 1e150) for part in parts):
                passes[key] = tuple(-part for part in parts)
        return passes[key]

    result = minimize(
        lambda v: negated(v)[0], theta0, method="trust-exact", options={"gtol": 1e-9, "maxiter": 1000},
        jac=lambda v: negated(v)[1], hess=lambda v: negated(v)[2],
    )
    mode = np.asarray(result.x, dtype=float)
    # trust-exact compares values, so it stops once a step gains less than their
    # rounding; Newton steps go on while each halves the exact gradient
    while True:
        _, grad, hess = negated(mode)
        try:  # scipy's Cholesky, which trust-exact has already loaded
            trial = mode - cho_solve(cho_factor(hess), grad)
        except np.linalg.LinAlgError:  # no minimum here; the curvature check says so
            break
        trial_value, trial_grad, _ = negated(trial)
        if not (trial_value < math.inf and np.linalg.norm(trial_grad) < 0.5 * np.linalg.norm(grad)):
            break
        mode = trial
    value, grad, hessian = (-part for part in negated(mode))
    grad_norm = float(np.linalg.norm(grad))
    if not (math.isfinite(value) and grad_norm < 1e-5 * (1.0 + abs(value))):
        raise ValueError(f"mode search did not converge: |grad| = {grad_norm:.3e}")
    try:
        np.linalg.cholesky(-hessian)
    except np.linalg.LinAlgError as exc:
        raise ValueError("log-posterior curvature at the mode is not negative definite") from exc
    condition = float(np.linalg.cond(-hessian))
    if condition > _MAX_CONDITION:
        raise ValueError(
            f"log-posterior curvature at the mode is ill-conditioned: cond(-H) = {condition:.3g} > "
            f"{_MAX_CONDITION:g}, so some direction is flat, as for degenerate data or parameters the data "
            "do not identify"
        )
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


def _metropolis(data, log_prior_fn, settings, mode, estimate, start, refresh, setup_evals):
    """The one accept/reject loop; both chains are this loop with their own estimate.

    ``estimate(theta, sub)`` returns a ``LogLikEstimate``, ``start(rng_sub)``
    draws the starting indicators and ``refresh(sub, block, rng_sub)``
    proposes new ones; ``setup_evals`` is charged once.  Each iteration
    proposes theta and a refresh of one indicator block jointly; rejection
    keeps both.  The block index advances cyclically, so every indicator is
    refreshed once per n_blocks iterations on average.
    """
    chain_seq, sub_seq = np.random.SeedSequence(settings.seed).spawn(2)
    rng_chain, rng_sub = np.random.default_rng(chain_seq), np.random.default_rng(sub_seq)
    dim = mode.theta.size
    scale = settings.proposal_scale if settings.proposal_scale is not None else 2.38**2 / dim
    factor = np.linalg.cholesky(scale * mode.laplace_cov)

    sub = start(rng_sub)
    theta = mode.theta.copy()
    current = estimate(theta, sub)
    # the pseudo-marginal target: exp(ell_hat - sigma2_hat / 2) is unbiased for
    # the likelihood exp(ell) when ell_hat ~ N(ell, sigma2_hat)
    target = current.ell_hat - 0.5 * current.sigma2_hat + log_prior_fn(theta)
    evals = current.density_evals + setup_evals

    total = settings.burn_in + settings.iterations
    draws = np.empty((settings.iterations, dim))
    trace = np.empty(settings.iterations)
    accepted = 0
    block = 0
    # a proposal far out in log sigma2 overflows the density to inf, which
    # gives a log target of -inf, a clean rejection; entered once per chain,
    # since errstate costs microseconds
    with np.errstate(over="ignore"):
        for it in range(total):
            proposal = theta + factor @ rng_chain.standard_normal(dim)
            sub_prop = refresh(sub, block, rng_sub)
            block = (block + 1) % settings.n_blocks
            try:
                est_prop = estimate(proposal, sub_prop)
            except ParameterRangeError:
                est_prop = _OUT_OF_RANGE
            evals += est_prop.density_evals
            target_prop = est_prop.ell_hat - 0.5 * est_prop.sigma2_hat + log_prior_fn(proposal)
            if math.log(rng_chain.random()) < target_prop - target:
                theta, sub, current, target = proposal, sub_prop, est_prop, target_prop
                accepted += 1
            if it >= settings.burn_in:
                draws[it - settings.burn_in] = theta
                trace[it - settings.burn_in] = current.ell_hat
    model = getattr(data, "model", None)
    names = model.param_names() if model is not None else tuple(f"x{i}" for i in range(dim))
    return ChainOutput(
        draws=draws,
        loglik_trace=trace,
        acceptance_rate=accepted / total,
        density_evals=evals,
        param_names=names,
    )


def run_full_chain(data, log_prior_fn, settings: ChainSettings, mode: ModeResult) -> ChainOutput:
    """Random-walk Metropolis on the exact Whittle posterior.

    The loop's exact, zero-variance case: every estimate is the full
    log-likelihood with sigma2_hat = 0, which the variance correction leaves
    unchanged, and there are no indicators to refresh.
    """
    return _metropolis(
        data,
        log_prior_fn,
        settings,
        mode,
        estimate=lambda theta, sub: LogLikEstimate(full_loglik(data, theta), 0.0, data.n_freq),
        start=lambda rng: None,
        refresh=lambda sub, block, rng: sub,
        setup_evals=0,
    )


def run_pm_chain(
    data,
    g: GroupIndex,
    cv,
    log_prior_fn,
    settings: ChainSettings,
    mode: ModeResult,
) -> ChainOutput:
    """Block pseudo-marginal Metropolis with the debiased difference estimator."""
    return _metropolis(
        data,
        log_prior_fn,
        settings,
        mode,
        estimate=lambda theta, sub: diff_estimator(data, g, cv, theta, sub),
        start=lambda rng: SubsampleIndicators(
            u=rng.integers(0, g.n_groups, size=settings.m),
            n_blocks=settings.n_blocks,
            n_groups=g.n_groups,
        ),
        refresh=block_refresh,
        setup_evals=cv.setup_evals,
    )
