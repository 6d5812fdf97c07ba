"""Shared fixtures: a quadratic likelihood stand-in, data builders, and
hypothesis strategies for model specifications and parameter vectors."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import fftconvolve

import specmcmc as sm
from specmcmc.models import FRACTIONAL_KINDS

# Every property draws the same examples on every run, so the suite is
# deterministic; derandomized runs also keep no example database.  CI sets
# HYPOTHESIS_PROFILE=ci: derandomized too, with five times the examples.
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("ci", derandomize=True, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@dataclass(frozen=True)
class QuadraticTerms:
    """Likelihood stand-in whose per-frequency terms are exact quadratics.

    terms_i(theta) = c_i + g_i . delta + delta . H_i delta / 2 with
    delta = theta - center.  A second-order control variate reproduces any
    group total exactly, which is what several degeneracy tests rely on.
    """

    consts: np.ndarray
    grads: np.ndarray
    hessians: np.ndarray
    center: np.ndarray

    @property
    def n_freq(self) -> int:
        return self.consts.size

    @property
    def dim(self) -> int:
        return self.center.size

    def terms(self, theta, indices=None):
        delta = np.asarray(theta, dtype=float) - self.center
        if indices is None:
            consts, grads, hessians = self.consts, self.grads, self.hessians
        else:
            consts, grads, hessians = self.consts[indices], self.grads[indices], self.hessians[indices]
        quad = np.einsum("kij,i,j->k", hessians, delta, delta)
        return consts + grads @ delta + 0.5 * quad

    def loglik_derivatives(self, theta, groups=None):
        """Summed terms, as ``full_loglik`` gives them, with their gradient sum_i g_i + H_i delta and Hessian sum_i H_i.

        With a ``GroupIndex`` all three are per group, as ``groups.sums`` adds them.
        """
        delta = np.asarray(theta, dtype=float) - self.center
        terms = self.terms(theta)
        if groups is None:
            hessian = self.hessians.sum(axis=0)
            return float(np.sum(terms)), self.grads.sum(axis=0) + hessian @ delta, hessian
        per_term = self.grads + self.hessians @ delta
        hessians = np.moveaxis(groups.sums(np.moveaxis(self.hessians, 0, -1)), -1, 0)
        return groups.sums(terms), groups.sums(per_term.T).T, hessians

    def total_mode(self) -> np.ndarray:
        """Maximizer of the summed terms (flat prior)."""
        return self.center - np.linalg.solve(self.hessians.sum(axis=0), self.grads.sum(axis=0))

    def total_cov(self) -> np.ndarray:
        """Gaussian covariance implied by the summed quadratic."""
        return np.linalg.inv(-self.hessians.sum(axis=0))


def make_quadratic_stub(rng: np.random.Generator, n_terms: int, dim: int) -> QuadraticTerms:
    consts = rng.normal(-1.0, 1.0, size=n_terms)
    grads = rng.normal(0.0, 0.05, size=(n_terms, dim))
    factors = rng.normal(0.0, 1.0, size=(n_terms, dim))
    hessians = -(np.einsum("ki,kj->kij", factors, factors) + 0.5 * np.eye(dim)) / n_terms
    return QuadraticTerms(
        consts=consts, grads=grads, hessians=hessians, center=rng.normal(size=dim)
    )


def tempered_fractional_series(
    phi, theta, sigma2: float, d: float, lam: float, n: int, seed: int
) -> sm.TimeSeries:
    """ARMA path passed through truncated tempered fractional integration.

    The integration filter (1 - exp(-lam) L)^(-d) has coefficients
    c_0 = 1, c_j = c_{j-1} (j - 1 + d) exp(-lam) / j, which decay like
    exp(-lam j); truncation keeps every coefficient above 1e-12 of c_0.  The
    output spectrum is the ARMA spectrum times |1 - exp(-(lam + i w))|^(-2d).
    """
    coeffs = [1.0]
    damp = math.exp(-lam)
    j = 1
    while abs(coeffs[-1]) > 1e-12 and j < 200_000:
        coeffs.append(coeffs[-1] * (j - 1 + d) * damp / j)
        j += 1
    coeffs = np.asarray(coeffs)
    pad = coeffs.size - 1
    core = sm.simulate_arma(phi, theta, sigma2, n + pad, seed=seed)
    full = fftconvolve(core.values, coeffs)
    return sm.TimeSeries(full[pad : pad + n])


@pytest.fixture(scope="session")
def arma11_data():
    """Small ARMA(1,1) dataset with its Whittle wrapper and posterior mode."""
    ts = sm.demean(sm.simulate_arma([0.5], [0.3], 1.0, 4001, seed=11))
    model = sm.ModelSpec(1, 1)
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=model)
    log_prior_fn = lambda v: sm.log_prior(model, v)
    mode = sm.find_mode(data, lambda v: sm.log_prior_derivatives(model, v), np.zeros(model.n_params))
    return data, log_prior_fn, mode


def flat_prior(v):
    """A flat log prior with its derivatives, in the form ``find_mode`` takes."""
    return 0.0, np.zeros_like(v), np.zeros_like(v)


def fd_gradient(fun, x) -> np.ndarray:
    """Central-difference gradient of a scalar- or vector-valued function: the derivative tests' oracle.

    Steps are h_j = max(1e-5, 1e-7 * |x_j|).  For vector-valued ``fun`` the
    derivative axis is appended last.  Raises if any stencil evaluation is
    non-finite.
    """
    x = np.asarray(x, dtype=float)
    h = np.maximum(1e-5, 1e-7 * np.abs(x))
    columns = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h[j]
        plus = np.asarray(fun(x + e), dtype=float)
        minus = np.asarray(fun(x - e), dtype=float)
        if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
            raise ValueError(f"non-finite objective in difference stencil around {x!r}")
        columns.append((plus - minus) / (2.0 * h[j]))
    return np.stack(columns, axis=-1)


def mean_log_spectrum(spec, draws, omegas) -> np.ndarray:
    """Mean over the rows of ``draws`` of log ``spectral_density``, one row at a time: the posterior spectrum's oracle."""
    return np.mean([np.log(sm.spectral_density(spec, sm.to_natural(spec, row), omegas)) for row in draws], axis=0)


# Orders 0-4, every fractional kind, with and without the volatility wrapper.
model_specs = st.builds(
    sm.ModelSpec,
    ar_order=st.integers(0, 4),
    ma_order=st.integers(0, 4),
    fractional=st.sampled_from(FRACTIONAL_KINDS),
    sv_wrapper=st.booleans(),
)


@st.composite
def specs_with_vectors(draw, bound: float):
    """A model specification and an unconstrained vector with entries in [-bound, bound]."""
    spec = draw(model_specs)
    vector = draw(arrays(np.float64, spec.n_params, elements=st.floats(-bound, bound)))
    return spec, vector
