"""Frequency grid and periodogram properties."""

import math

import numpy as np
import pytest
from scipy import stats

import specmcmc as sm


def brute_force_dft(values: np.ndarray, omega: float) -> complex:
    """O(n) reference transform, summed explicitly with t starting at 1."""
    total = 0.0 + 0.0j
    for t, x in enumerate(values, start=1):
        total += x * complex(math.cos(omega * t), -math.sin(omega * t))
    return total / math.sqrt(2.0 * math.pi)


def test_fourier_frequencies_example():
    grid = sm.FrequencyGrid(8)
    assert grid.n_freq == 3
    np.testing.assert_allclose(grid.omegas, [2 * np.pi / 8, 4 * np.pi / 8, 6 * np.pi / 8])


def test_fourier_frequencies_excludes_endpoints():
    for n in (4, 5, 16, 17):
        omegas = sm.FrequencyGrid(n).omegas
        assert np.all(omegas > 0) and np.all(omegas < np.pi)
        assert np.all(np.diff(omegas) > 0)


def test_fourier_frequencies_minimum_length():
    with pytest.raises(ValueError):
        sm.FrequencyGrid(3)


@pytest.mark.parametrize("n_time", [5, 8, 33, 64])
def test_periodogram_matches_direct_transform(n_time):
    rng = np.random.default_rng(n_time)
    ts = sm.demean(sm.TimeSeries(rng.normal(size=n_time)))
    pgram = sm.periodogram(ts)
    direct = np.array(
        [abs(brute_force_dft(ts.values, w)) ** 2 / n_time for w in pgram.grid.omegas]
    )
    np.testing.assert_allclose(pgram.ordinates, direct, atol=1e-12)


def test_parseval_identity():
    # sum x_t^2 = (2 pi / n) sum over the full frequency set of |J|^2
    rng = np.random.default_rng(3)
    n = 48
    ts = sm.TimeSeries(rng.normal(size=n))
    omegas_full = 2 * np.pi * np.arange(n) / n
    energy = (2 * np.pi / n) * sum(abs(brute_force_dft(ts.values, w)) ** 2 for w in omegas_full)
    assert energy == pytest.approx(float(np.sum(ts.values**2)), rel=1e-10)


def test_white_noise_mean_ordinate():
    sigma2 = 2.5
    rng = np.random.default_rng(12)
    ts = sm.demean(sm.TimeSeries(rng.normal(0.0, math.sqrt(sigma2), size=2**14)))
    pgram = sm.periodogram(ts)
    assert float(pgram.ordinates.mean()) == pytest.approx(sigma2 / (2 * np.pi), rel=0.05)


def test_white_noise_ordinates_exponential():
    # Scaled ordinates of Gaussian white noise are Exp(1) (exactly, at
    # Fourier frequencies); a KS test at the 1% level should not reject.
    rng = np.random.default_rng(7)
    ts = sm.demean(sm.TimeSeries(rng.normal(size=2**12)))
    scaled = sm.periodogram(ts).ordinates * 2 * np.pi
    assert stats.kstest(scaled, "expon").pvalue > 0.01


def test_periodogram_requires_demeaned():
    ts = sm.TimeSeries(np.arange(16, dtype=float))
    with pytest.raises(ValueError, match="demeaned"):
        sm.periodogram(ts)


def test_periodogram_invariants():
    rng = np.random.default_rng(5)
    for n in (12, 13):
        ts = sm.demean(sm.TimeSeries(rng.normal(size=n)))
        pgram = sm.periodogram(ts)
        assert pgram.ordinates.size == (n - 1) // 2
        assert np.all(pgram.ordinates >= 0)


def test_periodogram_has_numpys_bits_at_a_prime_length():
    # scipy.fft.rfft computes the ordinates; at a prime length it takes
    # Bluestein's path, where numpy's pocketfft and scipy's could differ
    ts = sm.demean(sm.TimeSeries(np.random.default_rng(10007).normal(size=10007)))
    coeffs = np.fft.rfft(ts.values)[1:5004]
    expected = (coeffs.real**2 + coeffs.imag**2) / (2.0 * np.pi * 10007)
    np.testing.assert_array_equal(sm.periodogram(ts).ordinates, expected)
