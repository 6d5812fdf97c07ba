"""Input series, generating truths and reference spectra for the benchmark.

The generators live here, not in ``specmcmc.series``, so the inputs stay the
same when the program's own simulator changes, and so the tempered-memory
workload gets tempered-memory data.  Each series is written in the format
``specmcmc simulate`` produces (a ``# value`` header, then one ``repr`` per
line), which makes every workload read its data through the ``source = file``
path that real data takes.

The truth helpers below are written against the model definitions, not
against the program, so a fault in the program's parameter maps or density
shows up as a failed check instead of cancelling out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal


@dataclass(frozen=True)
class Truth:
    """Generating parameters of a series: ARMA part, tempered memory, scale."""

    phi: tuple = ()
    theta: tuple = ()
    d: float = 0.0
    lam: float | None = None
    sigma2: float = 1.0

    @property
    def natural(self) -> np.ndarray:
        """Natural parameters in the order :func:`natural_draws` returns."""
        if self.lam is None:
            return np.array([*self.phi, *self.theta, self.sigma2])
        return np.array([*self.phi, *self.theta, self.d, self.lam, self.sigma2])

    @property
    def scale_columns(self) -> list[int]:
        """Positions of the positive scale parameters (lambda, sigma2) in :attr:`natural`."""
        last = len(self.natural) - 1
        return [last - 1, last] if self.lam is not None else [last]


ARMA_BURN_IN = 1_000
TRUNCATION = 1e-12


def arma_series(truth: Truth, n_time: int, seed: int) -> np.ndarray:
    """Gaussian ARMA path from a zero-state IIR filter; burn-in discarded."""
    rng = np.random.default_rng(seed)
    eps = math.sqrt(truth.sigma2) * rng.standard_normal(n_time + ARMA_BURN_IN)
    b = np.concatenate(([1.0], truth.theta))
    a = np.concatenate(([1.0], -np.asarray(truth.phi, dtype=float)))
    return signal.lfilter(b, a, eps)[ARMA_BURN_IN:]


def tempered_filter(d: float, lam: float) -> np.ndarray:
    """Coefficients of (1 - exp(-lam) L)^(-d), cut where they drop below 1e-12.

    c_0 = 1 and c_j = c_{j-1} (j - 1 + d) exp(-lam) / j.
    """
    damp = math.exp(-lam)
    coeffs = [1.0]
    j = 1
    while abs(coeffs[-1]) > TRUNCATION:
        coeffs.append(coeffs[-1] * (j - 1 + d) * damp / j)
        j += 1
    return np.asarray(coeffs)


def tempered_series(truth: Truth, n_time: int, seed: int) -> np.ndarray:
    """ARMA path passed through the truncated tempered fractional filter."""
    coeffs = tempered_filter(truth.d, truth.lam)
    pad = coeffs.size - 1
    core = arma_series(truth, n_time + pad, seed)
    return signal.fftconvolve(core, coeffs)[pad : pad + n_time]


def make_series(truth: Truth, n_time: int, seed: int) -> np.ndarray:
    if truth.lam is None:
        return arma_series(truth, n_time, seed)
    return tempered_series(truth, n_time, seed)


def write_series(values: np.ndarray, path) -> None:
    """Write in ``specmcmc simulate`` format: a comment header, one repr a line."""
    with open(path, "w") as handle:
        handle.write("# value\n")
        handle.writelines(repr(float(v)) + "\n" for v in values)


def log_spectrum(truth: Truth, omegas: np.ndarray) -> np.ndarray:
    """log f(omega) of the generating process, from the model formula."""
    z = np.exp(-1j * np.asarray(omegas, dtype=float))
    ar = 1.0 - sum(p * z ** (i + 1) for i, p in enumerate(truth.phi))
    ma = 1.0 + sum(t * z ** (j + 1) for j, t in enumerate(truth.theta))
    out = math.log(truth.sigma2 / (2.0 * math.pi)) + 2.0 * (np.log(np.abs(ma)) - np.log(np.abs(ar)))
    if truth.lam is not None:
        out = out - 2.0 * truth.d * np.log(np.abs(1.0 - math.exp(-truth.lam) * z))
    return out


def _ar_from_pacf(pacf: np.ndarray) -> np.ndarray:
    """Durbin-Levinson map, vectorised over rows of partial autocorrelations."""
    coeffs = np.zeros((pacf.shape[0], 0))
    for k in range(pacf.shape[1]):
        r = pacf[:, k : k + 1]
        coeffs = np.hstack((coeffs - r * coeffs[:, ::-1], r))
    return coeffs


def natural_draws(truth: Truth, draws: np.ndarray) -> np.ndarray:
    """Map unconstrained draws (the columns of ``draws.csv``) to natural scale.

    Columns: arctanh pacf of the AR block, the reflected MA block, then d and
    log lambda for tempered memory, then log sigma2.  Rows come out in the
    order of :attr:`Truth.natural`.
    """
    q, p = len(truth.phi), len(truth.theta)
    parts = [
        _ar_from_pacf(np.tanh(draws[:, :q])),
        -_ar_from_pacf(-np.tanh(draws[:, q : q + p])),
    ]
    pos = q + p
    if truth.lam is not None:
        parts += [draws[:, pos : pos + 1], np.exp(draws[:, pos + 1 : pos + 2])]
        pos += 2
    parts.append(np.exp(draws[:, pos : pos + 1]))
    return np.hstack(parts)


def log_spectrum_draws(truth: Truth, draws: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """log f(omega) for each row of unconstrained draws, shape (rows, omegas)."""
    nat = natural_draws(truth, draws)
    q, p = len(truth.phi), len(truth.theta)
    out = np.empty((draws.shape[0], np.size(omegas)))
    for row, values in enumerate(nat):
        d, lam = (values[q + p], values[q + p + 1]) if truth.lam is not None else (0.0, None)
        out[row] = log_spectrum(
            Truth(tuple(values[:q]), tuple(values[q : q + p]), d, lam, values[-1]), omegas
        )
    return out
