"""Fourier frequencies and the periodogram."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TimeSeries


@dataclass(frozen=True)
class FrequencyGrid:
    """Positive Fourier frequencies 2*pi*k/n_time for k = 1..floor((n_time-1)/2).

    Zero is excluded because the series is demeaned, and pi (present for even
    n_time) is excluded so every retained ordinate has the same asymptotic
    exponential law.
    """

    n_time: int

    def __post_init__(self) -> None:
        if self.n_time < 4:
            raise ValueError("need n_time >= 4 for a non-empty frequency grid")

    @property
    def n_freq(self) -> int:
        return (self.n_time - 1) // 2

    @property
    def omegas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(1, self.n_freq + 1) / self.n_time


@dataclass(frozen=True)
class Periodogram:
    """Periodogram ordinates aligned with a frequency grid."""

    grid: FrequencyGrid
    ordinates: np.ndarray

    def __post_init__(self) -> None:
        ordinates = np.asarray(self.ordinates, dtype=float)
        if ordinates.shape != (self.grid.n_freq,):
            raise ValueError("ordinates do not match the frequency grid")
        if not np.all(np.isfinite(ordinates)) or np.any(ordinates < 0):
            raise ValueError("periodogram ordinates must be finite and non-negative")
        ordinates.flags.writeable = False
        object.__setattr__(self, "ordinates", ordinates)


def periodogram(series: TimeSeries) -> Periodogram:
    """Periodogram I(omega_k) = |J(omega_k)|^2 / n over the positive grid.

    J(omega) = (2*pi)^(-1/2) * sum_{t=1..n} x_t exp(-i*omega*t); the FFT
    indexes from t = 0, which changes only the phase of J.

    Requires a demeaned series; the k = 0 ordinate would otherwise carry the
    sample mean.  No padding or tapering is applied.
    """
    if not series.demeaned:
        raise ValueError("periodogram requires a demeaned series")
    grid = FrequencyGrid(series.n_time)
    coeffs = np.fft.rfft(series.values)[1 : grid.n_freq + 1]
    ordinates = (coeffs.real**2 + coeffs.imag**2) / (2.0 * np.pi * series.n_time)
    return Periodogram(grid, ordinates)
