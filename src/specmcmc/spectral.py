"""Fourier frequencies and the periodogram."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, rfft

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
    sample mean.  No padding or tapering is applied.  ``scipy.fft.rfft`` gives numpy's
    bits, and at a length with a large prime factor, such as 100001 = 11 * 9091,
    its cached plan makes a repeated call about 40% cheaper.
    """
    if not series.demeaned:
        raise ValueError("periodogram requires a demeaned series")
    grid = FrequencyGrid(series.n_time)
    coeffs = rfft(series.values)[1 : grid.n_freq + 1]
    ordinates = (coeffs.real**2 + coeffs.imag**2) / (2.0 * np.pi * series.n_time)
    return Periodogram(grid, ordinates)


def _chirp(m: np.ndarray, n_time: int) -> np.ndarray:
    """b_m = exp(i pi m^2 / n_time), with m^2 reduced mod 2 n_time in integers so the phases stay exact."""
    m = (m * m % (2 * n_time)) * (1j * np.pi / n_time)
    return np.exp(m, out=m)


def _cosine_series(coef: np.ndarray, n_time: int, n_out: int) -> np.ndarray:
    """sum_k coef_k cos(2 pi j k / n_time), k = 0, 1, ..., at j = 1..n_out, by one chirp convolution.

    Bluestein: exp(-2 pi i j k / n) = conj(b_j b_k) b_{j-k}, so the sum is conj(b_j) times a
    convolution of coef_k conj(b_k) with the chirp, taken at a fast FFT length.  A zero-padded FFT
    of length n would do the same, but for n with a large prime factor (100001 = 11 * 9091) it
    convolves internally at about 2n, in buffers of that size.  With the posterior spectrum's few
    cepstral coefficients the chirp is the cheaper (12.7 against 21 ms at n_time 100001, and
    cheaper at 200001 too).  The Whittle moment table has n_freq coefficients, where one chirp
    would need buffers about 3 n_freq long, so it is the plain FFT (``WhittleData.moments``).
    """
    size = coef.size
    length = next_fast_len(2 * size + n_out - 1)
    spectrum = np.fft.fft(coef * _chirp(np.arange(size), n_time).conj(), length)
    # b_{j-k}, a temporary: held past this line it would add to the transient
    spectrum *= np.fft.fft(_chirp(np.arange(1 - size, 1 + n_out), n_time), length)
    series = np.fft.ifft(spectrum, out=spectrum)[size : size + n_out]
    np.conjugate(series, out=series)
    series *= _chirp(np.arange(1, 1 + n_out), n_time)
    return series.real
