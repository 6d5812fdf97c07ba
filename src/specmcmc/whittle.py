"""Whittle log-likelihood over the positive Fourier grid, whole or in groups.

The likelihood is a sum of per-frequency terms -(log f(omega_k) + I_k /
f(omega_k)), formed by the density kernel in ``models``, which keeps the
fractional factor in log space: one log per frequency, no power.
Everything downstream (subsampling, control variates) only needs the
ability to evaluate those terms on an arbitrary index subset, so that is
the interface ``WhittleData`` exposes, beside the exact gradient and
Hessian of the whole or grouped sum (``loglik_derivatives``); test doubles
with the same two methods can stand in for it.  ``full_loglik`` sums the
terms without forming them where it can, as Whittle's quadratic form in the
periodogram's cosine moments (``WhittleData.moment_loglik``), and
``full_loglik_derivatives`` runs the derivative pass on a small grid whose
weighted sums equal the frequency sums (``WhittleData._quadrature``).

Frequencies are grouped by stride.  ``GroupIndex`` is the pair (n_freq,
n_groups) and the one place that knows the layout: the members of picked
groups and the per-group sums of a full term vector are arithmetic on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import lfilter, unit_impulse

from .models import LOG_TWO_PI, ModelSpec, density_from_trig, to_natural, trig_table, whittle_derivatives
from .spectral import Periodogram, _cosine_series

# The moment form's truncations.  psi keeps L terms, L the smallest of _MIN_LAGS * 2^i at which
# |psi| and 1/phi's impulse response sum below _TAIL over lags L..2L-1.  The moment table's
# chunks are [0, _FIRST_MOMENTS), then doublings capped at n_freq, each a chirp convolution per
# block of _BLOCK ordinates.  Both are fixed lattices, so the value at theta does not depend on
# earlier calls.
_MIN_LAGS = 16
_TAIL = 1e-17
_FIRST_MOMENTS = 2048
_BLOCK = 8192
_SHORT_CORRELATE = 256  # psi up to this long: np.correlate; longer: an FFT


@dataclass(frozen=True)
class WhittleData:
    """Periodogram plus model; evaluates per-frequency log-likelihood terms, and their sum in moment form."""

    periodogram: Periodogram
    model: ModelSpec

    def __post_init__(self) -> None:
        # cos(k*omega), sin(k*omega) and sin(omega/2)^2 do not depend on theta,
        # so they are computed once per dataset and every density evaluation
        # is real arithmetic on these rows.
        trig = trig_table(self.model, self.periodogram.grid.omegas)
        trig.flags.writeable = False
        object.__setattr__(self, "_trig", trig)
        object.__setattr__(self, "_moments", np.zeros(0))  # built on the first moment-form call
        object.__setattr__(self, "_lags", _MIN_LAGS)  # where the next call's search for L starts
        object.__setattr__(self, "_grids", {})  # the quadrature's grids, by M
        # the moment form's one model gate, read before theta is decoded: wrapped and ARFIMA psi never converge
        object.__setattr__(self, "_moment_form", not (self.model.sv_wrapper or self.model.fractional == "arfima"))

    @property
    def n_freq(self) -> int:
        return self.periodogram.grid.n_freq

    def terms(self, theta, indices=None) -> np.ndarray:
        """Whittle terms -(log f + I/f) at all frequencies or a subset.

        Each term depends only on its own frequency, so a subset's terms equal
        the matching entries of the full set bit for bit.
        """
        nat = to_natural(self.model, theta)
        if indices is None:
            trig, ordinates = self._trig, self.periodogram.ordinates
        else:
            trig = self._trig.take(indices, axis=1)
            ordinates = self.periodogram.ordinates[indices]
        return density_from_trig(self.model, nat, trig, ordinates)[0]

    def loglik_derivatives(self, theta, groups: GroupIndex | None = None):
        """Whittle log-likelihood with its exact gradient and Hessian in theta, from one pass.

        One ``models.whittle_derivatives`` pass over all frequencies.  Without ``groups`` the value
        equals ``float(np.sum(terms(theta)))`` bit for bit.  With a ``GroupIndex`` all
        three are per group: (n_groups,), equal bit for bit to
        ``groups.sums(terms(theta))``, (n_groups, dim) and (n_groups, dim, dim).
        """
        if groups is None:
            total, dot = np.sum, np.matmul
        else:
            total = groups.sums  # dot goes row by row, so no (rows, n_freq) product is formed
            dot = lambda a, b: np.array([groups.sums(row * b) for row in a]) if a.ndim > 1 else groups.sums(a * b)
        nat = to_natural(self.model, theta)
        return whittle_derivatives(self.model, theta, nat, self._trig, self.periodogram.ordinates, total, dot)

    def moments(self, size: int) -> np.ndarray:
        """Periodogram cosine moments A_j = sum_k I_k cos(j omega_k), j = 0, 1, ... (at least ``size``).

        A_j is a circular sample autocovariance up to scale.  The table is cached and grows by
        chunks: [0, _FIRST_MOMENTS), then each doubling it, capped at n_freq, so every A_j comes
        from the same chunk whatever the order of requests.  A chunk is summed over blocks of
        _BLOCK ordinates, one chirp convolution each, which keeps the transient near 1 MB where one
        convolution of all ordinates took 9 MB at n_freq 1e5; a chunk up to a quarter of a block
        costs about what a shorter one does.
        """
        table = self._moments
        while table.size < size:
            stop = min(max(2 * table.size, _FIRST_MOMENTS), self.n_freq)
            chunk, ordinates = np.zeros(stop - table.size), self.periodogram.ordinates
            for start in range(0, ordinates.size, _BLOCK):
                block = ordinates[start : start + _BLOCK]
                chunk += _cosine_series(block, self.periodogram.grid.n_time, chunk.size, table.size, start + 1)
            table = np.concatenate((table, chunk))
            object.__setattr__(self, "_moments", table)
        return table

    def _psi(self, nat) -> np.ndarray | None:
        """psi's first L coefficients (``moment_loglik``; past the model gate), or None where L would pass n_freq."""
        ar, ma = np.concatenate(([1.0], -nat.phi)), np.concatenate(([1.0], nat.theta))
        size = self._lags
        while size <= self.n_freq:
            impulse = unit_impulse(2 * size)
            binomial = impulse
            if nat.lambda_ is not None:
                j = np.arange(1.0, 2 * size)
                binomial = np.cumprod(np.concatenate(([1.0], (j - 1.0 - nat.d) * (math.exp(-nat.lambda_) / j))))
            # each prefix is the same whatever the length; lfilter takes a slow path for an FIR filter
            psi = lfilter(ar, ma, binomial) if ma.size > 1 else np.convolve(binomial, ar)[: 2 * size]
            tail = np.abs(psi)
            if nat.phi.size:
                tail += np.abs(lfilter([1.0], ar, impulse))
            windows = np.add.reduceat(tail, _MIN_LAGS << np.arange((size // _MIN_LAGS).bit_length()))
            below = np.flatnonzero(windows < _TAIL)
            if below.size:
                lags = _MIN_LAGS << int(below[0])
                object.__setattr__(self, "_lags", lags)
                return psi[:lags]
            size *= 2
        return None

    def _quadrature(self, nat):
        """Trig rows, pseudo-ordinates and weights of an M-point grid, whose sums equal those over the frequencies.

        Every frequency sum of a derivative pass is sum_k I_k a(omega_k) or sum_k b(omega_k), with
        a and b even, periodic and as smooth as psi.  On nu_m = 2 pi m / M, M = 4L, with K =
        irfft(A_0..A_{M/2-1}, M) and E_m = n_time/(2M) (less 1/2 at m = 0, and at m = M/2 for even
        n_time), sum_k cos(l omega_k) = sum_m E_m cos(l nu_m) for |l| < M, and sum_k I_k cos(l
        omega_k) = sum_m K_m cos(l nu_m) for |l| < M/2.  So the sums are sum_m E_m I~_m a(nu_m) and
        sum_m E_m b(nu_m), with pseudo-ordinates I~ = K/E, up to rounding and the coefficients
        beyond the psi tail.  nu_{M-m} repeats nu_m, so the grid keeps m = 0..M/2 and the interior
        weights 2 E_m.  Cached per M; the moment table grows to M/2 lags.  None where psi would pass
        n_freq lags, and where M would reach n_freq and the grid save nothing.
        """
        psi = self._psi(nat)
        if psi is None:
            return None
        size = 4 * psi.size
        if nat.lambda_ is not None:
            # the rows of d and log lambda carry log T and 1/T, whose coefficients, rho^j, sum
            # to rho^L / (1 - rho) from lag L on; psi's decay faster near d = 0
            while size < self.n_freq and math.exp(-nat.lambda_ * size / 4) >= _TAIL * -math.expm1(-nat.lambda_):
                size *= 2
        if size >= self.n_freq:
            return None
        if size not in self._grids:
            n_time, half = self.periodogram.grid.n_time, size // 2
            spread = np.full(half + 1, n_time / (2.0 * size))
            spread[0] -= 0.5
            spread[half] -= 0.5 * (n_time % 2 == 0)
            kernel = np.fft.irfft(self.moments(half)[:half], size)[: half + 1]
            weights = 2.0 * spread
            weights[[0, half]] = spread[[0, half]]
            trig = trig_table(self.model, 2.0 * np.pi * np.arange(half + 1) / size)
            self._grids[size] = (trig, kernel / spread, weights)
        return self._grids[size]

    @np.errstate(all="ignore")  # an overflow gives a non-finite value, and so the fallback
    def moment_loglik(self, theta) -> float | None:
        """The Whittle log-likelihood in O(L) from the cosine moments, or None where that form does not apply.

        For an unwrapped ARMA or ARTFIMA model, 1/f = (2 pi/sigma2) |psi(z)|^2 with z = exp(-i omega)
        and psi(z) = phi(z) (1 - rho z)^d / theta(z) = sum_j psi_j z^j, rho = exp(-lambda): one
        ``lfilter`` of (1 - rho z)^d's coefficients, b_j = b_{j-1} (j - 1 - d) rho / j (an impulse for
        ARMA).  With c the autocorrelation of psi, sum_k I_k/f_k = (2 pi/sigma2) (c_0 A_0 + 2 sum_j
        c_j A_j) (Whittle 1953).  Over the n-th roots of unity, prod (1 - a zeta^k) = 1 - a^n, so
        sum_k log f_k = N log(sigma2/2pi) - log|theta(1)/phi(1)| (- log|theta(-1)/phi(-1)| for even
        n) - d (log1p(-rho^n) - log(1 - rho) (- log(1 + rho) for even n)).  psi keeps its first L
        terms, once it and 1/phi's impulse response sum below 1e-17 over lags L..2L-1; the a^n of
        the ARMA roots are then below rounding.  None for a wrapped or ARFIMA model, whose series
        never converge, when L would pass n_freq, and for a non-finite value.
        """
        if not self._moment_form:
            return None
        spec, n_time, n_freq = self.model, self.periodogram.grid.n_time, self.n_freq
        nat = to_natural(spec, theta)
        psi = self._psi(nat)
        if psi is None:
            return None
        lags = psi.size
        if lags <= _SHORT_CORRELATE:
            acov = np.correlate(psi, psi, "full")[lags - 1 :]
        else:
            length = next_fast_len(2 * lags - 1)
            coeffs = np.fft.rfft(psi, length)
            acov = np.fft.irfft(coeffs.real**2 + coeffs.imag**2, length)[:lags]
        acov[1:] *= 2.0
        ratio = float(acov @ self.moments(lags)[:lags]) / (nat.sigma2 / (2.0 * math.pi))
        log_sum = n_freq * (math.log(nat.sigma2) - LOG_TWO_PI)
        polys = [1.0, *nat.theta.tolist()], [1.0, *(-nat.phi).tolist()]
        for z in (1.0, -1.0)[: 2 - n_time % 2]:
            top, bottom = (sum(c * z**k for k, c in enumerate(poly)) for poly in polys)
            log_sum -= math.log(abs(top / bottom))
        if nat.lambda_ is not None and nat.d != 0.0:
            log_temper = math.log1p(-math.exp(-n_time * nat.lambda_)) - math.log(-math.expm1(-nat.lambda_))
            if n_time % 2 == 0:
                log_temper -= math.log1p(math.exp(-nat.lambda_))
            log_sum -= nat.d * log_temper
        value = -(log_sum + ratio)
        return value if math.isfinite(value) else None


@dataclass(frozen=True)
class GroupIndex:
    """Strided partition of the frequencies: group k is k, k + n_groups, ...

    Every group then spans the whole frequency range, which is what makes a
    group total smooth in the parameters.  When n_groups does not divide
    n_freq the leftover frequencies land one each in the leading groups, so
    sizes differ by at most one.  The layout is arithmetic on the pair
    (n_freq, n_groups); no per-group index array is stored.
    """

    n_freq: int
    n_groups: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_groups <= self.n_freq:
            raise ValueError("need 1 <= n_groups <= n_freq")

    @property
    def groups(self) -> tuple:
        """Member indices of every group, ascending."""
        return tuple(np.arange(k, self.n_freq, self.n_groups) for k in range(self.n_groups))

    def members(self, u: np.ndarray) -> tuple[np.ndarray, list]:
        """Members of the picked groups u, concatenated, and where each group starts."""
        # row i holds group u_i padded to the size of group 0, then masked
        grid = u[:, None] + np.arange(0, self.n_freq, self.n_groups)
        if self.n_freq % self.n_groups == 0:  # groups of one size: no padding to mask
            return grid.ravel(), list(range(0, grid.size, grid.shape[1]))
        # group sizes as Python ints: numpy's per-call cost dominates for few picks
        sizes = (len(range(k, self.n_freq, self.n_groups)) for k in u.tolist()[:-1])
        return grid[grid < self.n_freq], list(accumulate(sizes, initial=0))

    def sums(self, terms: np.ndarray) -> np.ndarray:
        """Per-group sums along the last (frequency) axis, each added in ascending frequency order.

        A (..., n_freq) array gives (..., n_groups).  A single group of a
        term vector is one column, which numpy sums pairwise, so its sum
        equals ``full_loglik``'s.
        """
        full = self.n_freq - self.n_freq % self.n_groups
        lead = terms.shape[:-1]
        out = terms[..., :full].reshape(lead + (-1, self.n_groups)).sum(axis=-2)
        out[..., : self.n_freq - full] += terms[..., full:]
        return out


def full_loglik(data, theta) -> float:
    """Whittle log-likelihood: ``WhittleData.moment_loglik`` where it applies, else the summed terms.

    The fallback, ``float(np.sum(data.terms(theta)))``, adds the terms in ascending frequency
    order; it also serves any other object with a ``terms`` method.
    """
    value = data.moment_loglik(theta) if isinstance(data, WhittleData) else None
    return float(np.sum(data.terms(theta))) if value is None else value


def full_loglik_derivatives(data, theta):
    """``loglik_derivatives(theta)``, on ``WhittleData._quadrature``'s grid where it applies.

    The one pass runs on the grid's pseudo-ordinates, with frequency sums weighted by E.  It
    falls back to ``data.loglik_derivatives(theta)`` where the grid does not apply, for a
    non-finite result and for any other object with that method.
    """
    if isinstance(data, WhittleData) and data._moment_form:
        nat = to_natural(data.model, theta)
        with np.errstate(all="ignore"):  # a non-finite result gives the fallback
            grid = data._quadrature(nat)
            if grid is not None:
                trig, ordinates, weights = grid
                sums = lambda x: x @ weights, lambda a, b: a @ (b * weights)
                parts = whittle_derivatives(data.model, theta, nat, trig, ordinates, *sums)
                if all(np.all(np.isfinite(part)) for part in parts):
                    return parts
    return data.loglik_derivatives(theta)


def grad_hess(data, g: GroupIndex, theta_star):
    """Per-group value, gradient, and Hessian of the log-likelihood.

    Returns arrays of shapes (n_groups,), (n_groups, dim) and
    (n_groups, dim, dim), all exact, from one grouped pass of
    ``data.loglik_derivatives`` over all frequencies, whatever the number of
    groups.
    """
    return data.loglik_derivatives(np.asarray(theta_star, dtype=float), g)
