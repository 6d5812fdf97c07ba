"""Whittle terms, grouping, and the difference machinery behind the variates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmcmc as sm
from conftest import make_quadratic_stub, specs_with_vectors


def small_data(seed=1, n_time=257, model=None):
    ts = sm.demean(sm.simulate_arma([0.4], [], 1.0, n_time, seed=seed))
    return sm.WhittleData(periodogram=sm.periodogram(ts), model=model or sm.ModelSpec(1, 0))


def test_term_matches_hand_computation():
    data = small_data()
    theta = np.array([0.2, 0.1])
    nat = sm.to_natural(data.model, theta)
    k = 5
    f = sm.spectral_density(data.model, nat, data.periodogram.grid.omegas[k])
    expected = -(math.log(f) + data.periodogram.ordinates[k] / f)
    assert data.terms(theta, [k])[0] == pytest.approx(expected, rel=1e-12)


def test_full_loglik_white_noise_closed_form():
    data = small_data(model=sm.ModelSpec(0, 0))
    log_s2 = 0.3
    ordinates = data.periodogram.ordinates
    expected = -np.sum(log_s2 - math.log(2 * np.pi) + 2 * np.pi * np.exp(-log_s2) * ordinates)
    assert sm.full_loglik(data, np.array([log_s2])) == pytest.approx(expected, rel=1e-12)


def test_full_loglik_is_sum_of_terms():
    data = small_data()
    theta = np.array([-0.3, 0.4])
    total = sum(data.terms(theta, [k])[0] for k in range(data.n_freq))
    assert sm.full_loglik(data, theta) == pytest.approx(total, rel=1e-12)


def test_group_logliks_add_up():
    data = small_data(n_time=229)
    theta = np.array([0.1, -0.2])
    for n_groups in (1, 7, 16):
        groups = sm.make_groups(data.n_freq, n_groups)
        parts = sm.group_logliks(data, groups, theta)
        assert parts.size == n_groups
        assert parts.sum() == pytest.approx(sm.full_loglik(data, theta), rel=1e-12)
        single = np.sum(data.terms(theta, groups.groups[3 % n_groups]))
        assert single == pytest.approx(parts[3 % n_groups], rel=1e-12)


def test_group_index_validation():
    with pytest.raises(ValueError, match="partition"):
        sm.GroupIndex(groups=(np.array([0, 1]), np.array([1, 2])), n_freq=4)
    with pytest.raises(ValueError, match="at most one"):
        sm.GroupIndex(groups=(np.array([0, 1, 2]), np.array([3])), n_freq=4)
    with pytest.raises(ValueError, match="non-empty"):
        sm.GroupIndex(groups=(np.arange(4), np.array([], dtype=int)), n_freq=4)


def test_grad_hess_white_noise_analytic_gradient():
    # d/d log sigma2 of a white-noise term is -1 + 2 pi I exp(-log sigma2)
    data = small_data(model=sm.ModelSpec(0, 0))
    groups = sm.make_groups(data.n_freq, 8)
    theta_star = np.array([0.25])
    values, grads, hessians = sm.grad_hess(data, groups, theta_star)
    ordinates = data.periodogram.ordinates
    scale = 2 * np.pi * math.exp(-0.25)
    for k in range(8):
        idx = groups.groups[k]
        expected_grad = np.sum(-1.0 + scale * ordinates[idx])
        expected_hess = np.sum(-scale * ordinates[idx])
        assert values[k] == pytest.approx(np.sum(data.terms(theta_star, idx)), rel=1e-12)
        assert grads[k, 0] == pytest.approx(expected_grad, rel=1e-6)
        assert hessians[k, 0, 0] == pytest.approx(expected_hess, rel=1e-4)


def test_taylor_coefficients_exact_on_quadratic():
    rng = np.random.default_rng(10)
    stub = make_quadratic_stub(rng, n_terms=12, dim=3)
    groups = sm.make_groups(12, 4)
    theta_star = stub.center + 0.1
    values, grads, hessians = sm.grad_hess(stub, groups, theta_star)
    # differentiate the quadratic by hand
    delta = theta_star - stub.center
    for k in range(4):
        idx = groups.groups[k]
        h_sum = stub.hessians[idx].sum(axis=0)
        g_sum = stub.grads[idx].sum(axis=0)
        np.testing.assert_allclose(grads[k], g_sum + h_sum @ delta, atol=1e-7)
        # second differences lose about ten digits to cancellation
        np.testing.assert_allclose(hessians[k], h_sum, atol=1e-4)


def test_fd_gradient_and_hessian_scalar():
    fun = lambda v: math.sin(v[0]) * math.exp(0.5 * v[1])
    x = np.array([0.7, -0.3])
    grad = sm.fd_gradient(fun, x)
    expected = np.array(
        [math.cos(0.7) * math.exp(-0.15), 0.5 * math.sin(0.7) * math.exp(-0.15)]
    )
    np.testing.assert_allclose(grad, expected, rtol=1e-8)
    hess = sm.fd_hessian(fun, x)
    np.testing.assert_allclose(hess, hess.T)
    assert hess[0, 0] == pytest.approx(-math.sin(0.7) * math.exp(-0.15), rel=1e-4)


def test_fd_rejects_non_finite_stencil():
    # the stencil at 1e-7 steps to negative arguments, where fun is nan
    fun = lambda v: float("nan") if v[0] < 0 else math.sqrt(v[0])
    with pytest.raises(ValueError, match="non-finite"):
        sm.fd_gradient(fun, np.array([1e-7]))


SMALL_PERIODOGRAM = small_data().periodogram


@settings(deadline=None)
@given(
    specs_with_vectors(bound=10.0),
    st.lists(st.integers(0, SMALL_PERIODOGRAM.grid.n_freq - 1), min_size=1, max_size=40),
)
def test_terms_subset_consistency(case, indices):
    # any index set, unsorted and with repeats, matches the full pass bit for bit
    spec, theta = case
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    indices = np.array(indices)
    np.testing.assert_array_equal(data.terms(theta, indices), data.terms(theta)[indices])
