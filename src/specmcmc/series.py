"""Time-domain series handling: loading, transforms, ARMA simulation."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import signal


@dataclass(frozen=True)
class TimeSeries:
    """A real-valued, regularly sampled series.

    ``demeaned`` records whether the sample mean has been removed; the
    frequency-domain code requires it because the zero frequency is dropped.
    """

    values: np.ndarray
    demeaned: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if values.size < 2:
            raise ValueError("series must contain at least two observations")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite values")
        if self.demeaned:
            resid = abs(float(values.mean()))
            if resid > 1e-10 * max(float(values.std()), 1e-300):
                raise ValueError("series marked demeaned but mean is not negligible")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_time(self) -> int:
        return self.values.size


class SeriesFileError(ValueError):
    """A series file that cannot be read as a series, or a constant series, which has no spectrum."""


def _record(path, lineno: int, line: str, column: int) -> float | None:
    """The selected field of one stripped line; None for a blank or comment line."""
    if not line or line.startswith("#"):
        return None
    fields = [f for f in (line.split(",") if "," in line else line.split()) if f.strip()]
    if column >= len(fields):
        raise SeriesFileError(
            f"{path}: line {lineno}: expected at least {column + 1} columns, found {len(fields)}"
        )
    try:
        return float(fields[column].strip())
    except ValueError as exc:
        raise SeriesFileError(f"{path}: line {lineno}: cannot parse {fields[column]!r}") from exc


def load_series(path: str | Path, column: int = 0) -> TimeSeries:
    """Read a series from a text file, one record per line.

    Lines starting with ``#`` and blank lines are skipped.  Records may be a
    single number or a comma/whitespace delimited row, in which case
    ``column`` selects the field.  ``np.loadtxt`` reads a file it splits as
    the line loop does, giving the loop's bytes, if it finds two or more
    values, all finite; otherwise the loop reads it.  Parse failures report
    the 1-based line number of the offending record; every content failure is a
    ``SeriesFileError``.  A negative ``column`` raises ``ValueError`` before
    the file is opened.
    """
    if column < 0:
        raise ValueError(f"column must be non-negative, not {column}")
    text = Path(path).read_text()
    # loadtxt cuts a line at any '#' and never splits on commas: only files
    # with no comma and no '#' after other text on its line take it
    hashes = (text[text.rfind("\n", 0, m.start()) + 1 : m.start()] for m in re.finditer("#", text))
    if "," not in text and not any(prefix.strip() for prefix in hashes):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data; the loop raises
            try:  # TimeSeries refuses fewer than two values and non-finite ones
                return TimeSeries(np.loadtxt(path, comments="#", usecols=column, ndmin=1))
            except ValueError:
                pass
    values = []  # the loop alone raises, naming the line at fault
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            # A line float() takes whole is one field, so for column 0 it is
            # the record; every other line is split.
            try:
                value = float(raw) if column == 0 else None
            except ValueError:
                value = None
            if value is None:
                value = _record(path, lineno, raw.strip(), column)
                if value is None:
                    continue
            if not math.isfinite(value):
                raise SeriesFileError(f"{path}: line {lineno}: non-finite value {value!r}")
            values.append(value)
    if len(values) < 2:
        raise SeriesFileError(f"{path}: needs at least two observations, found {len(values)}")
    return TimeSeries(np.array(values))


def demean(series: TimeSeries) -> TimeSeries:
    """Subtract the sample mean; a constant series, whose rounded mean can miss its value, gives zeros."""
    values = series.values
    return TimeSeries(values - (values.mean() if np.ptp(values) else values[0]), demeaned=True)


def log_square_transform(series: TimeSeries) -> TimeSeries:
    """Map returns to log squared returns, then demean.

    Squares below 1e-300 are floored before the log so exact zeros stay
    finite.  The additive mean of the latent log-volatility is absorbed by the
    demean step, which is why no location parameter appears in the volatility
    model itself.
    """
    squares = np.maximum(series.values**2, 1e-300)
    return demean(TimeSeries(np.log(squares)))


def _default_burn_in(phi: np.ndarray, theta: np.ndarray) -> int:
    """Burn-in long enough for the AR transient to decay."""
    p, q = len(theta), len(phi)
    max_root = 0.0
    if q:
        # Poles of the AR filter; stationarity keeps them inside the unit disc.
        roots = np.roots(np.concatenate(([1.0], -phi)))
        if roots.size:
            max_root = float(np.max(np.abs(roots)))
    scale = math.ceil(1.0 / (1.0 - max_root)) if max_root < 1.0 else 10_000
    return min(10 * (p + q + 1) * scale, 10_000)


def simulate_arma(phi, theta, sigma2: float, n: int, seed: int) -> TimeSeries:
    """Simulate a Gaussian ARMA(q, p) path.

    The recursion is x[t] = sum_i phi[i] x[t-i] + e[t] + sum_j theta[j] e[t-j]
    with e[t] iid N(0, sigma2), started from zeros and run a burn-in long
    enough for the AR transient to decay, whose steps are discarded.  Output
    is reproducible bit-for-bit for a given seed.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if phi.size and phi.ndim != 1 or theta.size and theta.ndim != 1:
        raise ValueError("phi and theta must be one-dimensional")
    if sigma2 <= 0:
        raise ValueError("innovation variance must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    if phi.size:
        roots = np.roots(np.concatenate(([1.0], -phi)))
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise ValueError("AR polynomial is not stationary")
    burn_in = _default_burn_in(phi, theta)

    rng = np.random.default_rng(seed)
    eps = math.sqrt(sigma2) * rng.standard_normal(n + burn_in)
    # ARMA as an IIR filter with zero initial state: a(L) x = b(L) e.
    b = np.concatenate(([1.0], theta))
    a = np.concatenate(([1.0], -phi))
    path = signal.lfilter(b, a, eps)
    return TimeSeries(path[burn_in:])
