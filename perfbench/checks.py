"""Correctness checks on the files a fit writes, modelled on the acceptance criteria.

Each check returns a list of failure messages; an empty list is a pass.  The
tolerances pair the acceptance criterion's fixed allowance with a Monte Carlo
allowance of four standard errors, because the benchmark's chains are shorter
than the acceptance suite's and must pass for any seed.  They were set on the
first commit that carries the benchmark and are not to be loosened.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from inputs import Truth, log_spectrum, log_spectrum_draws, natural_draws

MEAN_GAP_SD = 0.1      # criterion 5: posterior means within 0.1 SD
SD_RATIO_GAP = 0.1     # criterion 5: SD ratios within [0.9, 1.1]
SPECTRUM_GAP = 0.1     # criterion 11: within 0.1 log units of the truth
Z_LIMIT = 4.0          # Monte Carlo / posterior allowance, in standard errors
SPECTRUM_DRAWS = 200   # draws used to estimate the posterior spread of log f
LOGLIK_RTOL = 1e-10    # full_loglik against the stored reference


def read_draws(path) -> tuple[tuple, np.ndarray]:
    """Header and rows of a ``draws.csv``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return tuple(rows[0]), np.array(rows[1:], dtype=float)


def read_spectrum(path) -> np.ndarray:
    """(omega, mean_log_density) rows of a ``spectrum.csv``."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def agreement(full: np.ndarray, sub: np.ndarray, if_full, if_sub) -> list[str]:
    """Subsampled and full-data posteriors agree (criterion 5)."""
    mean_f, sd_f = full.mean(axis=0), full.std(axis=0, ddof=1)
    mean_s, sd_s = sub.mean(axis=0), sub.std(axis=0, ddof=1)
    if_full, if_sub = np.asarray(if_full), np.asarray(if_sub)
    se_mean = np.sqrt(if_full / len(full) + if_sub / len(sub))
    se_ratio = np.sqrt(if_full / (2 * len(full)) + if_sub / (2 * len(sub)))
    gap = np.abs(mean_s - mean_f) / sd_f
    ratio = sd_s / sd_f
    failures = []
    for j in range(full.shape[1]):
        if not gap[j] <= MEAN_GAP_SD + Z_LIMIT * se_mean[j]:
            failures.append(f"column {j}: mean gap {gap[j]:.3f} SD")
        if not abs(ratio[j] - 1.0) <= SD_RATIO_GAP + Z_LIMIT * se_ratio[j]:
            failures.append(f"column {j}: SD ratio {ratio[j]:.3f}")
    return failures


def recovery(truth: Truth, draws: np.ndarray) -> list[str]:
    """Posterior means of the natural parameters cover the truth (criterion 6).

    Scale parameters are compared on the log scale, where a wrong scale
    cannot widen its own allowance.
    """
    nat = natural_draws(truth, draws)
    targets = truth.natural
    nat[:, truth.scale_columns] = np.log(nat[:, truth.scale_columns])
    targets[truth.scale_columns] = np.log(targets[truth.scale_columns])
    mean, sd = nat.mean(axis=0), nat.std(axis=0, ddof=1)
    failures = []
    for j, target in enumerate(targets):
        if not abs(mean[j] - target) <= Z_LIMIT * sd[j]:
            failures.append(f"natural parameter {j}: mean {mean[j]:.4f}, truth {target}, sd {sd[j]:.4f}")
    return failures


def spectrum(truth: Truth, table: np.ndarray, draws: np.ndarray, n_time: int) -> list[str]:
    """Posterior-mean log-spectrum matches the truth (criterion 11).

    Every row is checked against the truth with the criterion's 0.1 log
    units.  Where the posterior itself is wider than that (the lowest
    frequencies of a long-memory fit) the allowance grows to four posterior
    standard deviations of log f, estimated from evenly thinned draws on a
    sub-grid that holds the 500 lowest frequencies and every 100th one, and
    interpolated linearly between them.
    """
    n_freq = (n_time - 1) // 2
    omegas = 2.0 * np.pi * np.arange(1, n_freq + 1) / n_time
    if table.shape != (n_freq, 2) or not np.allclose(table[:, 0], omegas, rtol=1e-12, atol=0.0):
        return [f"spectrum grid has shape {table.shape}, expected {n_freq} Fourier frequencies"]
    error = np.abs(table[:, 1] - log_spectrum(truth, omegas))
    if not np.all(np.isfinite(error)):
        return ["spectrum has non-finite values"]
    sub = np.union1d(np.arange(min(500, n_freq)), np.arange(0, n_freq, 100))
    thin = draws[np.linspace(0, len(draws) - 1, min(SPECTRUM_DRAWS, len(draws))).astype(int)]
    spread = log_spectrum_draws(truth, thin, omegas[sub]).std(axis=0, ddof=1)
    allowed = np.interp(np.arange(n_freq), sub, np.maximum(SPECTRUM_GAP, Z_LIMIT * spread))
    bad = np.flatnonzero(error > allowed)
    if bad.size:
        k = bad[np.argmax(error[bad] - allowed[bad])]
        return [f"log-spectrum off by {error[k]:.3f} at omega index {k} (allowed {allowed[k]:.3f})"]
    return []


def loglik_reference(value: float, reference: float) -> list[str]:
    """full_loglik at a fixed theta matches the stored reference to 1e-10."""
    if not math.isfinite(value) or abs(value - reference) > LOGLIK_RTOL * abs(reference):
        return [f"full_loglik {value!r} differs from reference {reference!r}"]
    return []
