"""Whittle log-likelihood over the positive Fourier grid, whole or in groups.

The likelihood is a sum of per-frequency terms -(log f(omega_k) + I_k /
f(omega_k)), with f from the real-valued density kernel in ``models``.
Everything downstream (subsampling, control variates) only needs the ability
to evaluate those terms on an arbitrary index subset, so that is the
interface ``WhittleData`` exposes; test doubles with the same ``terms``
method can stand in for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, density_from_trig, to_natural, trig_table
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
        columns of the trig table, allocates the result and a two-row scratch
        array; everything else runs in place.
        """
        nat = to_natural(self.model, theta)
        if indices is None:
            trig, ordinates = self._trig, self.periodogram.ordinates
        else:
            trig = np.take(self._trig, indices, axis=1)
            ordinates = self.periodogram.ordinates[indices]
        work = np.empty((2, trig.shape[1]))
        dens = density_from_trig(self.model, nat, trig, np.empty(trig.shape[1]), work)
        ratio = np.divide(ordinates, dens, out=work[0])
        np.log(dens, out=dens)
        dens += ratio
        return np.negative(dens, out=dens)


@dataclass(frozen=True)
class GroupIndex:
    """Partition of frequency indices into groups of near-equal size.

    ``membership`` maps each frequency index to its group; ``groups`` lists
    the member indices per group.  Sizes may differ by at most one.
    """

    groups: tuple
    n_freq: int

    def __post_init__(self) -> None:
        membership = np.full(self.n_freq, -1, dtype=np.intp)
        sizes = []
        for gid, idx in enumerate(self.groups):
            idx = np.asarray(idx, dtype=np.intp)
            if idx.size == 0:
                raise ValueError("groups must be non-empty")
            membership[idx] = gid
            sizes.append(idx.size)
        if np.any(membership < 0) or sum(sizes) != self.n_freq:
            raise ValueError("groups must partition the frequency indices exactly")
        if max(sizes) - min(sizes) > 1:
            raise ValueError("group sizes may differ by at most one")
        membership.flags.writeable = False
        object.__setattr__(self, "membership", membership)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum per-frequency values within each group."""
        return np.bincount(self.membership, weights=values, minlength=self.n_groups)


def full_loglik(data, theta) -> float:
    """Whittle log-likelihood, summed in ascending frequency order."""
    return float(np.sum(data.terms(theta)))


def group_logliks(data, g: GroupIndex, theta) -> np.ndarray:
    """All group contributions in one pass over the frequencies."""
    return g.group_sums(data.terms(theta))


def fd_steps(x: np.ndarray) -> np.ndarray:
    """Central-difference steps h_j = max(1e-5, 1e-7 * |x_j|)."""
    return np.maximum(1e-5, 1e-7 * np.abs(x))


def _checked(fun, x) -> np.ndarray:
    out = np.asarray(fun(np.asarray(x, dtype=float)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite objective in difference stencil at {x!r}")
    return out


def fd_gradient(fun, x, step=None) -> np.ndarray:
    """Central-difference gradient of a scalar- or vector-valued function.

    For vector-valued ``fun`` the derivative axis is appended last.
    """
    x = np.asarray(x, dtype=float)
    h = fd_steps(x) if step is None else np.broadcast_to(step, x.shape)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        cols.append((_checked(fun, x + e) - _checked(fun, x - e)) / (2.0 * h[j]))
    return np.stack(cols, axis=-1)


def taylor_coefficients(fun, x, step=None):
    """Value, gradient, and symmetrized Hessian by central differences.

    Shares the axial stencil between the gradient and the Hessian diagonal;
    off-diagonal entries use the four-point cross stencil.  Raises if any
    stencil evaluation is non-finite.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    h = fd_steps(x) if step is None else np.broadcast_to(step, x.shape)
    f0 = _checked(fun, x)
    plus, minus = [], []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h[j]
        plus.append(_checked(fun, x + e))
        minus.append(_checked(fun, x - e))
    grad = np.stack([(plus[j] - minus[j]) / (2.0 * h[j]) for j in range(dim)], axis=-1)
    hess = np.zeros(f0.shape + (dim, dim))
    for j in range(dim):
        hess[..., j, j] = (plus[j] - 2.0 * f0 + minus[j]) / h[j] ** 2
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros(dim)
            e[i], e[j] = h[i], h[j]
            ei = np.zeros(dim)
            ei[i], ei[j] = h[i], -h[j]
            cross = (
                _checked(fun, x + e)
                - _checked(fun, x + ei)
                - _checked(fun, x - ei)
                + _checked(fun, x - e)
            ) / (4.0 * h[i] * h[j])
            hess[..., i, j] = cross
            hess[..., j, i] = cross
    return f0, grad, hess


def fd_hessian(fun, x, step=None) -> np.ndarray:
    """Symmetrized central-difference Hessian."""
    return taylor_coefficients(fun, x, step=step)[2]


def grad_hess(data, g: GroupIndex, theta_star):
    """Per-group value, gradient, and Hessian of the log-likelihood.

    Returns arrays of shapes (n_groups,), (n_groups, dim) and
    (n_groups, dim, dim); each stencil point costs one pass over all
    frequencies regardless of the number of groups.
    """
    return taylor_coefficients(lambda v: group_logliks(data, g, v), np.asarray(theta_star, dtype=float))
