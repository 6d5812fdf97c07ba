"""Chain efficiency measures and posterior summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .models import ModelSpec, density_from_trig, to_natural, trig_table
from .sampler import ChainOutput
from .spectral import FrequencyGrid


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    """Biased autocorrelation estimates at all lags, via the FFT."""
    x = x - x.mean()
    n = x.size
    size = next_fast_len(2 * n)
    spectrum = np.fft.rfft(x, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    return acov / acov[0]


def inefficiency_factor(chain) -> float:
    """IF = 1 + 2 * sum of autocorrelations, truncated the conservative way.

    Lag pairs Gamma_t = rho_{2t} + rho_{2t+1} are summed while they stay
    positive (for a reversible chain the true pair sums are), which keeps the
    estimate stable without picking a bandwidth.  An iid chain gives about 1;
    the factor multiplies the variance of an MCMC average relative to iid
    sampling.
    """
    chain = np.asarray(chain, dtype=float).ravel()
    if chain.size < 100:
        raise ValueError("need at least 100 draws to estimate an inefficiency factor")
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


def posterior_mean_spectrum(draws, model: ModelSpec, grid: FrequencyGrid) -> np.ndarray:
    """Posterior mean of log f(omega) over the rows of ``draws``.

    Averaging on the log scale keeps the summary stable for long-memory
    models, whose density draws near omega = 0 are heavy-tailed enough that a
    plain mean would be dominated by a few of them.  A row equal bit for bit
    to the one before (a rejection, thinned) adds the same log f again.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    trig = trig_table(model, grid.omegas)
    out, work = np.empty((2, 2, grid.n_freq))
    total = np.zeros(grid.n_freq)
    previous = None
    for row in draws:
        if (key := row.tobytes()) != previous:
            density_from_trig(model, to_natural(model, row), trig, out, work)
            previous = key
        total += out[0]
    return total / len(draws)
