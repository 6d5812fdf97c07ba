"""Chain efficiency measures and posterior summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal._sigtools import _linear_filter

from .models import LOG_TWO_PI, ModelSpec, NaturalParams, density_from_trig, to_natural, trig_table
from .sampler import ChainOutput
from .spectral import FrequencyGrid, _cosine_series


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    """Biased autocorrelation estimates at all lags, via the FFT."""
    x = x - x.mean()
    n = x.size
    size = next_fast_len(2 * n)
    spectrum = np.fft.rfft(x, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    return acov / acov[0]


IF_MIN_DRAWS = 100  # the fewest draws an inefficiency factor is estimated from


def inefficiency_factor(chain) -> float:
    """IF = 1 + 2 * sum of autocorrelations, truncated the conservative way.

    Lag pairs Gamma_t = rho_{2t} + rho_{2t+1} are summed while they stay
    positive (for a reversible chain the true pair sums are), which keeps the
    estimate stable without picking a bandwidth.  An iid chain gives about 1;
    the factor multiplies the variance of an MCMC average relative to iid
    sampling.
    """
    chain = np.asarray(chain, dtype=float).ravel()
    if chain.size < IF_MIN_DRAWS:
        raise ValueError(f"need at least {IF_MIN_DRAWS} draws to estimate an inefficiency factor")
    if np.ptp(chain) == 0.0:
        raise ValueError("chain is constant; inefficiency factor undefined")
    rho = _autocorrelations(chain)
    pairs = rho[: 2 * (rho.size // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0.0)
    cutoff = negative[0] if negative.size else pairs.size
    return float(-1.0 + 2.0 * pairs[:cutoff].sum())


@dataclass(frozen=True)
class EfficiencyReport:
    """Per-parameter inefficiency and computing-time figures for one chain."""

    param_names: tuple
    if_values: np.ndarray
    density_evals: int

    def __post_init__(self) -> None:
        if len(self.param_names) != np.asarray(self.if_values).size:
            raise ValueError("one inefficiency factor per parameter required")
        object.__setattr__(self, "if_values", np.asarray(self.if_values, dtype=float))

    @property
    def ct(self) -> np.ndarray:
        """Computing time: inefficiency times the density evaluations spent."""
        return self.if_values * self.density_evals


def efficiency_report(output: ChainOutput) -> EfficiencyReport:
    """Inefficiency factors of every parameter trace of a finished chain."""
    ifs = [inefficiency_factor(output.draws[:, j]) for j in range(output.draws.shape[1])]
    return EfficiencyReport(
        param_names=output.param_names,
        if_values=np.asarray(ifs),
        density_evals=output.density_evals,
    )


def relative_ct(subsample: EfficiencyReport, baseline: EfficiencyReport) -> np.ndarray:
    """How many times cheaper the subsampled chain is, per parameter."""
    if subsample.param_names != baseline.param_names:
        raise ValueError("reports cover different parameters")
    return baseline.ct / subsample.ct


def kde_grid(samples, grid_size: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density on mean +- 4 sd with Silverman's bandwidth.

    Returns (grid, density); the bandwidth is 1.06 * sd * n^(-1/5).
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise ValueError("need at least two samples")
    # ptp is exact on identical values, unlike the roundoff-prone sd
    if np.ptp(samples) == 0.0:
        raise ValueError("samples are constant; no density to estimate")
    sd = float(samples.std(ddof=1))
    mean = float(samples.mean())
    bandwidth = 1.06 * sd * samples.size ** (-0.2)
    grid = np.linspace(mean - 4.0 * sd, mean + 4.0 * sd, grid_size)
    norm = samples.size * bandwidth * np.sqrt(2.0 * np.pi)
    density = np.empty(grid_size)
    for i, point in enumerate(grid):
        z = (point - samples) / bandwidth
        density[i] = np.exp(-0.5 * z * z).sum() / norm
    return grid, density


def _cepstrum(nat: NaturalParams, n_time: int, size: int) -> np.ndarray | None:
    """C_0..C_{K-1} with log f = 2 sum_k C_k cos k*omega (- d L for ARFIMA), or None for K > n_time.

    C_0 = log(sigma2/2pi)/2.  A polynomial c(z) = 1 + sum_j c_j z^j, roots outside the unit circle, has
    log|c(exp(-i*omega))|^2 = 2 sum_k a_k cos k*omega, k a_k = k c_k - sum_j c_j (k - j) a_{k-j}: one IIR
    filter with denominator [1, c], at c = theta and, subtracted, c = -phi: ``_psi``'s, scipy's compiled
    ``_sigtools._linear_filter`` without ``lfilter``'s checks.  ARTFIMA's -d log T adds d exp(-lambda k)/k.
    K doubles from ``size`` until the last half of |C_k| sums below 1e-17.
    """
    polys = [(np.array([1.0, *c.tolist()]), sign) for c, sign in ((nat.theta, 1.0), (-nat.phi, -1.0)) if c.size]
    while True:
        size = min(size, n_time)
        k = np.arange(size, dtype=float)
        coef = np.zeros(size)  # k C_k until the division
        impulse = np.zeros(size)
        impulse[0] = 1.0
        for den, sign in polys:
            coef += sign * _linear_filter(np.arange(den.size) * den, den, impulse, -1)
        if nat.lambda_ is not None:
            coef[1:] += nat.d * np.exp(-nat.lambda_ * k[1:])
        coef[1:] /= k[1:]
        coef[0] = 0.5 * (math.log(nat.sigma2) - LOG_TWO_PI)
        if np.abs(coef[size // 2 :]).sum() < 1e-17:
            return coef
        if size == n_time:
            return None
        size *= 2


def posterior_mean_spectrum(draws, model: ModelSpec, grid: FrequencyGrid) -> np.ndarray:
    """Posterior mean of log f(omega) over the rows of ``draws``.

    Averaging on the log scale keeps the summary stable for long-memory
    models, whose density draws near omega = 0 are heavy-tailed enough that a
    plain mean would be dominated by a few of them.  It is one cosine series in
    the rows' averaged :func:`_cepstrum`, summed on the grid by one FFT
    (:func:`_cosine_series`); rows of a wrapped model (log(f_b + c) has no such
    series), or whose series would exceed n_time terms, add the kernel's log f.
    A row equal bit for bit to the one before (a rejection, thinned) adds the
    same again.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    trig = None  # built on first need, for the kernel or ARFIMA's L
    total, cepstrum, memory = np.zeros(grid.n_freq), np.zeros(grid.n_time), 0.0  # memory: sum of d
    previous, start, terms = None, 64, 1
    for row in draws:
        if (key := row.tobytes()) != previous:
            nat, previous = to_natural(model, row), key
            coef = None if model.sv_wrapper else _cepstrum(nat, grid.n_time, start)
            start = start if coef is None else coef.size  # the next row's series is likely as long
            if coef is None:
                trig = trig_table(model, grid.omegas) if trig is None else trig
                log_dens = density_from_trig(model, nat, trig)[0]
        if coef is None:
            total += log_dens
        else:
            cepstrum[: coef.size] += coef
            memory, terms = memory + nat.d, max(terms, coef.size)
    if not model.sv_wrapper:
        total += _cosine_series(2.0 * cepstrum[:terms], grid.n_time, grid.n_freq)
        if model.fractional == "arfima":
            total -= memory * (trig_table(model, grid.omegas) if trig is None else trig)[-1]
    return total / len(draws)
