"""Whittle log-likelihood over the positive Fourier grid, whole or in groups.

The likelihood is a sum of per-frequency terms -(log f(omega_k) + I_k /
f(omega_k)), formed by the density kernel in ``models``, which keeps the
fractional factor in log space: one log per frequency, no power.
Everything downstream (subsampling, control variates) only needs the
ability to evaluate those terms on an arbitrary index subset, so that is
the interface ``WhittleData`` exposes, beside the exact gradient and
Hessian of the whole or grouped sum (``loglik_derivatives``); test doubles
with the same two methods can stand in for it.

Frequencies are grouped by stride.  ``GroupIndex`` is the pair (n_freq,
n_groups) and the one place that knows the layout: the members of picked
groups and the per-group sums of a full term vector are arithmetic on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .models import ModelSpec, density_from_trig, log_density_derivatives, to_natural, trig_table
from .spectral import Periodogram


@dataclass(frozen=True)
class WhittleData:
    """Periodogram plus model; evaluates per-frequency log-likelihood terms."""

    periodogram: Periodogram
    model: ModelSpec

    def __post_init__(self) -> None:
        # cos(k*omega), sin(k*omega) and sin(omega/2)^2 do not depend on theta,
        # so they are computed once per dataset and every density evaluation
        # is real arithmetic on these rows.
        trig = trig_table(self.model, self.periodogram.grid.omegas)
        trig.flags.writeable = False
        object.__setattr__(self, "_trig", trig)

    @property
    def n_freq(self) -> int:
        return self.periodogram.grid.n_freq

    def terms(self, theta, indices=None) -> np.ndarray:
        """Whittle terms -(log f + I/f) at all frequencies or a subset.

        Each term depends only on its own frequency, so a subset's terms equal
        the matching entries of the full set bit for bit.  Besides a subset's
        columns of the trig table, allocates one (2, 2, n) array holding the
        result in its first row: two per call can make glibc trim the heap
        and fault it back in on every call.
        """
        nat = to_natural(self.model, theta)
        if indices is None:
            trig, ordinates = self._trig, self.periodogram.ordinates
        else:
            trig = self._trig.take(indices, axis=1)
            ordinates = self.periodogram.ordinates[indices]
        buf = np.empty((2, 2, trig.shape[1]))  # indexed: unpacking iterates the array, which is slower
        density_from_trig(self.model, nat, trig, buf[0], buf[1], ordinates)
        return buf[0, 0]

    def loglik_derivatives(self, theta, groups: GroupIndex | None = None):
        """Whittle log-likelihood with its exact gradient and Hessian in theta, from one pass.

        Without ``groups`` the value equals ``full_loglik`` bit for bit, and
        ``models.log_density_derivatives`` gives the gradient and Hessian.
        With a ``GroupIndex`` all three are per group: (n_groups,), equal bit
        for bit to ``groups.sums(terms(theta))``, (n_groups, dim) and
        (n_groups, dim, dim).  Besides a (7, n_freq) buffer it uses one (dim, n_freq) block.
        """
        if groups is None:
            total, dot = np.sum, np.matmul
        else:
            total = groups.sums  # dot goes row by row, so no (rows, n_freq) product is formed
            dot = lambda a, b: np.array([groups.sums(row * b) for row in a]) if a.ndim > 1 else groups.sums(a * b)
        nat = to_natural(self.model, theta)
        buf = np.empty((7, self.n_freq))  # the kernel's rows, then the derivatives' scratch
        rows = np.empty((self.model.n_params, self.n_freq))
        ordinates = self.periodogram.ordinates
        log_temper, dens = density_from_trig(self.model, nat, self._trig, buf[:2], buf[2:4], ordinates)
        terms, weights = buf[:2]
        value = total(terms)
        weights -= 1.0
        score, hessian = log_density_derivatives(
            self.model, theta, nat, self._trig, weights, dens, log_temper, (terms, *buf[4:]), rows, total, dot
        )
        return value, score, hessian


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
    """Whittle log-likelihood, summed in ascending frequency order."""
    return float(np.sum(data.terms(theta)))


def grad_hess(data, g: GroupIndex, theta_star):
    """Per-group value, gradient, and Hessian of the log-likelihood.

    Returns arrays of shapes (n_groups,), (n_groups, dim) and
    (n_groups, dim, dim), all exact, from one grouped pass of
    ``data.loglik_derivatives`` over all frequencies, whatever the number of
    groups.
    """
    return data.loglik_derivatives(np.asarray(theta_star, dtype=float), g)
