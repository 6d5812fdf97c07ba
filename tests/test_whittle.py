"""Whittle terms, grouping, and the difference machinery behind the variates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import lfilter
from scipy.signal._sigtools import _linear_filter

import specmcmc as sm
from specmcmc import whittle
from conftest import fd_gradient, make_quadratic_stub, specs_with_vectors


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


@given(
    st.integers(1, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**32 - 1),
)
def test_group_logliks_add_up(sizes, seed):
    n_freq, n_groups = sizes
    rng = np.random.default_rng(seed)
    stub = make_quadratic_stub(rng, n_terms=n_freq, dim=2)
    theta = stub.center + rng.normal(size=2)
    terms = stub.terms(theta)
    groups = sm.make_groups(n_freq, n_groups)
    parts = groups.sums(stub.terms(theta))
    # each group accumulated term by term in ascending frequency order
    oracle = np.bincount(np.arange(n_freq) % n_groups, weights=terms, minlength=n_groups)
    # the terms can cancel to a sum near zero, so rounding is measured
    # against the sum of their magnitudes
    scale = np.abs(terms).sum()
    assert parts.shape == (n_groups,)
    if n_groups > 1:
        np.testing.assert_array_equal(parts, oracle)
    else:
        # a single group is summed pairwise, exactly as the full log-likelihood
        assert parts[0] == sm.full_loglik(stub, theta)
        assert parts[0] == pytest.approx(oracle[0], rel=1e-12, abs=1e-12 * scale)
    assert parts.sum() == pytest.approx(sm.full_loglik(stub, theta), rel=1e-12, abs=1e-12 * scale)
    k = seed % n_groups
    assert np.sum(terms[groups.groups[k]]) == pytest.approx(parts[k], rel=1e-12, abs=1e-12 * scale)


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
        np.testing.assert_allclose(grads[k], g_sum + h_sum @ delta, atol=1e-12)
        # the gradient is linear, so its central difference is exact up to roundoff
        np.testing.assert_allclose(hessians[k], h_sum, atol=1e-9)


def test_fd_gradient_and_hessian_scalar():
    # f = sin(x) exp(y / 2); the derivative tests check exact Hessians against
    # this oracle's central difference of an exact gradient, derivative axis last
    fun = lambda v: math.sin(v[0]) * math.exp(0.5 * v[1])
    exact_grad = lambda v: np.array([math.cos(v[0]), 0.5 * math.sin(v[0])]) * math.exp(0.5 * v[1])
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(fd_gradient(fun, x), exact_grad(x), rtol=1e-8)
    hess = fd_gradient(exact_grad, x)
    s, c = math.sin(0.7) * math.exp(-0.15), math.cos(0.7) * math.exp(-0.15)
    expected = np.array([[-s, 0.5 * c], [0.5 * c, 0.25 * s]])
    np.testing.assert_allclose(hess, expected, rtol=1e-9)


def test_fd_rejects_non_finite_stencil():
    # the stencil at 1e-7 steps to negative arguments, where fun is nan
    fun = lambda v: float("nan") if v[0] < 0 else math.sqrt(v[0])
    with pytest.raises(ValueError, match="non-finite"):
        fd_gradient(fun, np.array([1e-7]))


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


@st.composite
def fractional_specs_with_vectors(draw):
    """ARFIMA or ARTFIMA of orders 0-3, with or without the wrapper, entries in [-2, 2]."""
    spec = sm.ModelSpec(
        ar_order=draw(st.integers(0, 3)),
        ma_order=draw(st.integers(0, 3)),
        fractional=draw(st.sampled_from(["arfima", "artfima"])),
        sv_wrapper=draw(st.booleans()),
    )
    return spec, draw(arrays(np.float64, spec.n_params, elements=st.floats(-2.0, 2.0)))


def mp_log_density(nat, omega):
    """log f(omega) at 50 digits, from the float parameters and frequency taken as exact."""
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.expj(-mpmath.mpf(omega))
        ar = 1 - sum(mpmath.mpf(c) * z ** (k + 1) for k, c in enumerate(nat.phi.tolist()))
        ma = 1 + sum(mpmath.mpf(c) * z ** (k + 1) for k, c in enumerate(nat.theta.tolist()))
        lam = mpmath.mpf(nat.lambda_) if nat.lambda_ is not None else mpmath.mpf(0)
        temper = abs(1 - mpmath.exp(-lam) * z) ** 2
        dens = mpmath.mpf(nat.sigma2) / (2 * mpmath.pi) * abs(ma) ** 2 / abs(ar) ** 2
        dens *= temper ** (-mpmath.mpf(nat.d))
        if nat.sigma2_eps is not None:
            dens += mpmath.mpf(nat.sigma2_eps) / (2 * mpmath.pi)
        return mpmath.log(dens)


@settings(deadline=None)
@given(fractional_specs_with_vectors())
def test_fractional_terms_match_a_50_digit_evaluation(case):
    # the log-space factor keeps every term within 1e-12 (|log f| + I/f) of
    # -(log f + I/f) evaluated in 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    spec, theta = case
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    nat = sm.to_natural(spec, theta)
    terms = data.terms(theta)
    with mpmath.workdps(50):
        for omega, ordinate, term in zip(SMALL_PERIODOGRAM.grid.omegas, SMALL_PERIODOGRAM.ordinates, terms):
            log_dens = mp_log_density(nat, omega)
            ratio = mpmath.mpf(ordinate) * mpmath.exp(-log_dens)
            exact = -(log_dens + ratio)
            assert abs(mpmath.mpf(term) - exact) <= 1e-12 * (abs(log_dens) + ratio)


# Central differences for the score: the step h = 1e-6 leaves a truncation
# error of h^2/6 |F'''| (1.7e-13 |F'''|) and a rounding error of about
# eps * sum_k |l_k| / h (2.2e-10 sum_k |l_k|).  The tolerance 1e-6 sum_k |l_k|
# is 4500 times the rounding term.  The truncation term is not bounded by the
# entries alone: with a root of the AR or MA polynomial at distance delta
# from the unit circle, |F'''| / sum_k |l_k| grows like delta^-3.  An MA(3)
# at (0, 1.75, 1.75), delta = 1.7e-3, put the difference 0.10 off the score
# against a tolerance of 0.0019, and the next test shows that this is the
# difference's error.  So the property takes delta >= 0.05, where the
# truncation term is some 25000 times smaller, and entries bounded by 2.
SCORE_STEP = 1e-6
SCORE_RTOL = 1e-6
MIN_ROOT_DISTANCE = 0.05


def central_difference(fun, theta, step=SCORE_STEP):
    """Central difference with one fixed step, the derivative axis last."""
    columns = []
    for j in range(theta.size):
        e = np.zeros(theta.size)
        e[j] = step
        columns.append((fun(theta + e) - fun(theta - e)) / (2 * step))
    return np.stack(columns, axis=-1)


def central_score(data, theta, step=SCORE_STEP):
    return central_difference(lambda v: sm.full_loglik(data, v), theta, step)


def root_distance(nat) -> float:
    """Distance of the nearest AR or MA root from the unit circle (inf for none)."""
    distance = math.inf
    for coef in (-nat.phi, nat.theta):
        # a top coefficient under 1e-12 only adds roots of modulus above ~1e3,
        # and dividing by a subnormal one would overflow
        top = np.flatnonzero(np.abs(coef) >= 1e-12)
        if top.size:
            roots = np.roots(np.r_[coef[: top[-1] + 1][::-1], 1.0])
            distance = min(distance, float(np.abs(roots).min()) - 1.0)
    return distance


@settings(deadline=None)
@given(specs_with_vectors(bound=2.0))
def test_loglik_derivatives_match_central_differences(case):
    spec, theta = case
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    assume(root_distance(sm.to_natural(spec, theta)) >= MIN_ROOT_DISTANCE)
    value, score, _ = data.loglik_derivatives(theta)
    terms = data.terms(theta)
    assert value == float(np.sum(terms))
    tol = SCORE_RTOL * float(np.sum(np.abs(terms)))
    np.testing.assert_allclose(score, central_score(data, theta), rtol=0, atol=tol)
    # per group, for the Taylor variate: 7 groups leave 2 frequencies over
    groups = sm.make_groups(data.n_freq, 7)
    values, grads, _ = data.loglik_derivatives(theta, groups)
    np.testing.assert_array_equal(values, groups.sums(terms))
    assert grads.shape == (7, spec.n_params)
    # regrouping the same per-frequency contributions only rounds differently
    np.testing.assert_allclose(grads.sum(axis=0), score, rtol=0, atol=1e-3 * tol)
    group_diffs = central_difference(lambda v: groups.sums(data.terms(v)), theta)
    group_tol = SCORE_RTOL * groups.sums(np.abs(terms))
    assert np.all(np.abs(grads - group_diffs) <= group_tol[:, None])


# fd_gradient's step, 1e-5, leaves a truncation error of h^2/6 |F^(4)| in the
# difference of the score, which near a root at distance delta from the unit
# circle grows like delta^-4; at delta >= 0.1 it stayed under 2e-7 of sum_k
# |l_k| over 300 examples, and the tolerance is 50 times that.
HESS_RTOL = 1e-5
MIN_HESS_ROOT_DISTANCE = 0.1


@settings(deadline=None)
@given(specs_with_vectors(bound=2.0))
def test_hessians_match_differences_of_the_exact_score(case):
    # every model kind, the volatility wrapper included: the exact Hessian,
    # whole and per group, against the central difference of the exact
    # score, and the prior's gradient and Hessian diagonal against
    # differences of the prior and of that gradient
    spec, theta = case
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    assume(root_distance(sm.to_natural(spec, theta)) >= MIN_HESS_ROOT_DISTANCE)
    terms = data.terms(theta)
    _, _, hessian = data.loglik_derivatives(theta)
    differences = fd_gradient(lambda v: data.loglik_derivatives(v)[1], theta)
    assert np.all(np.abs(hessian - differences) <= HESS_RTOL * np.sum(np.abs(terms)))
    groups = sm.make_groups(data.n_freq, 7)
    _, _, hessians = data.loglik_derivatives(theta, groups)
    assert hessians.shape == (7, spec.n_params, spec.n_params)
    differences = fd_gradient(lambda v: data.loglik_derivatives(v, groups)[1], theta)
    group_tol = HESS_RTOL * groups.sums(np.abs(terms))
    assert np.all(np.abs(hessians - differences) <= group_tol[:, None, None])
    value, grad, diag = sm.log_prior_derivatives(spec, theta)
    assert value == sm.log_prior(spec, theta)
    np.testing.assert_allclose(grad, fd_gradient(lambda v: sm.log_prior(spec, v), theta), rtol=0, atol=1e-7)
    prior_hessian = fd_gradient(lambda v: sm.log_prior_derivatives(spec, v)[1], theta)
    np.testing.assert_allclose(prior_hessian, np.diag(diag), rtol=0, atol=1e-7)


def test_score_is_the_limit_of_differences_near_a_unit_root():
    # at the MA(3) example above the difference misses the score by 0.10 at
    # h = 1e-6; that miss shrinks 100-fold per tenfold smaller step, the h^2
    # of the difference's own truncation error, so the score is its limit
    spec, theta = sm.ModelSpec(0, 3), np.array([0.0, 1.75, 1.75, 1.75])
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    assert root_distance(sm.to_natural(spec, theta)) < 2e-3
    _, score, _ = data.loglik_derivatives(theta)
    misses = [abs(central_score(data, theta, h)[0] - score[0]) for h in (1e-4, 1e-5, 1e-6)]
    assert misses[0] > 100.0
    for coarse, fine in zip(misses, misses[1:]):
        assert 90.0 < coarse / fine < 110.0


@pytest.mark.parametrize(
    "spec, theta",
    [
        (sm.ModelSpec(1, 1, fractional="arfima"), np.array([0.3, -0.2, 0.0, 0.1])),
        (sm.ModelSpec(1, 1, fractional="artfima"), np.array([0.3, -0.2, 0.0, -0.5, 0.1])),
    ],
    ids=["arfima", "artfima"],
)
def test_memory_score_is_nonzero_at_zero_memory(spec, theta):
    # the density skips the fractional factor at d = 0, but the derivative in
    # the memory coordinate (index 2) is -sum_k (I_k/f_k - 1) log T_k there
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    _, score, _ = data.loglik_derivatives(theta)
    assert score[2] != 0.0
    tol = SCORE_RTOL * float(np.sum(np.abs(data.terms(theta))))
    assert abs(score[2] - central_score(data, theta)[2]) <= tol
    assert abs(score[2]) > 100 * tol


def reference_arma_density(spec, nat, omegas):
    """ARMA f in the kernel's order of operations, with
    |1 + sum_k c_k exp(-i k omega)|^2 as the sum of squares."""
    angles = np.arange(1, max(spec.ar_order, spec.ma_order) + 1)[:, None] * omegas
    cos, sin = np.cos(angles), np.sin(angles)

    def power(coef):
        re, im = cos[0] * coef[0], sin[0] * coef[0]
        for k in range(1, coef.size):
            re, im = re + cos[k] * coef[k], im + sin[k] * coef[k]
        re = re + 1.0
        return re * re + im * im

    dens = np.full(omegas.size, nat.sigma2 / (2.0 * np.pi))
    if nat.phi.size:
        dens = nat.sigma2 / (2.0 * np.pi) / power(-nat.phi)
    if nat.theta.size:
        dens = dens * power(nat.theta)
    if spec.sv_wrapper:
        dens = dens + nat.sigma2_eps / (2.0 * np.pi)
    return dens


@settings(deadline=None)
@given(specs_with_vectors(bound=2.0))
def test_arma_terms_keep_their_arithmetic(case):
    # the log-space factor leaves ARMA models' arithmetic as it was, bit for
    # bit: the terms -(log f + I/f), the density and, for wrapped models,
    # whose rows take the kernel, the posterior log-spectrum
    spec, theta = case
    spec = dataclasses.replace(spec, fractional="none")
    theta = theta[: spec.n_params]
    data = sm.WhittleData(periodogram=SMALL_PERIODOGRAM, model=spec)
    nat, grid = sm.to_natural(spec, theta), SMALL_PERIODOGRAM.grid
    dens = reference_arma_density(spec, nat, grid.omegas)
    expected = -(np.log(dens) + SMALL_PERIODOGRAM.ordinates / dens)
    np.testing.assert_array_equal(data.terms(theta), expected)
    np.testing.assert_array_equal(sm.spectral_density(spec, nat, grid.omegas), dens)
    if spec.sv_wrapper:
        np.testing.assert_array_equal(sm.posterior_mean_spectrum(theta[None], spec, grid), np.log(dens))


@pytest.mark.parametrize("sv_wrapper", [False, True], ids=["arfima", "arfima_wrapped"])
def test_arfima_loglik_is_pinned_bit_for_bit(sv_wrapper):
    # float.hex values recorded before the trig table took over ARFIMA's
    # parameter-free log(4 sin^2(omega/2)); reading it from the table must
    # leave the terms, the likelihood and the score as they were
    pinned = {
        False: (
            ["0x1.0fffbbbc61f07p-2", "0x1.504042d11df30p-2", "-0x1.a1c2f967afc6bp+0", "0x1.06ca54af4772ep+1"],
            ["-0x1.cb9cfa757c9d6p+2", "0x1.83dc271801347p+0"],
            "0x1.654c7ca3090bap+7",
            ["0x1.0a33bef6e729bp+9", "0x1.102a754b44950p+9", "0x1.141de53d4e45cp+8", "0x1.d5c75424a5b3ap+6"],
        ),
        True: (
            ["0x1.8960f2ed6afa6p-3", "0x1.00fe25425524ep-2", "-0x1.49d240a3ecf49p+0", "0x1.ad5e8af07e106p+0"],
            ["-0x1.a04350e7ab817p+2", "0x1.4c444c8bb4f72p+0"],
            "0x1.538232edaddc0p+7",
            [
                "0x1.65f83183b4239p+8", "0x1.699d4d8da8da9p+8", "0x1.86bfd0dbb8946p+7",
                "0x1.8385529d50824p+4", "-0x1.1178ac1e3541ap+4",
            ],
        ),
    }
    terms_hex, subset_hex, loglik_hex, score_hex = pinned[sv_wrapper]
    ts = sm.demean(sm.simulate_arma([0.5], [0.3], 1.0, 801, seed=5))
    model = sm.ModelSpec(1, 1, fractional="arfima", sv_wrapper=sv_wrapper)
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=model)
    theta = np.array([0.3, -0.2, 0.25, 0.1] + [-1.0] * sv_wrapper)
    terms = data.terms(theta)
    assert [float(terms[i]).hex() for i in (0, 1, 57, 399)] == terms_hex
    assert [float(x).hex() for x in data.terms(theta, np.array([3, 250]))] == subset_hex
    value, score, _ = data.loglik_derivatives(theta)
    assert float(np.sum(data.terms(theta))).hex() == loglik_hex
    assert float(value).hex() == loglik_hex
    assert [float(x).hex() for x in score] == score_hex


def test_arma_loglik_is_pinned_bit_for_bit():
    # float.hex values of an ARMA(2,1) fit's likelihood and score, recorded
    # before the fractional factor moved to log space; the ARMA arithmetic
    # must not drift from them
    ts = sm.demean(sm.simulate_arma([0.5, -0.3], [0.4], 1.3, 1025, seed=7))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(2, 1))
    theta = np.array([0.4, -0.25, 0.35, 0.2])
    value, score, _ = data.loglik_derivatives(theta)
    assert float(np.sum(data.terms(theta))).hex() == "0x1.4340ad705dfa0p+8"
    assert float(value).hex() == "0x1.4340ad705dfa0p+8"
    assert [float(x).hex() for x in score] == [
        "0x1.85133ddecc3f5p+6", "-0x1.aea1d55af798fp+6", "0x1.f147d3c2ec451p+6", "0x1.f1d3239c71400p+1"
    ]


# float.hex values of a grouped derivative pass (value, gradient and Hessian
# per group, each raveled), recorded before the density kernel's buffers moved
# into models: the fractional row and the wrapper's kept f must not drift
GROUPED_DERIVATIVE_PINS = {
    "artfima": (
        [
            "0x1.7632b145b80c2p+5", "0x1.e4432b6a4fe50p+4",
        ],
        [
            "0x1.2ddc5696fd032p+6", "0x1.3243de900598bp+6", "0x1.67bafeb886e6bp+5", "-0x1.e5d727fe9476ep+2",
            "0x1.0f29e5583f989p+3", "0x1.fdf586e544254p+6", "0x1.f9709662c6651p+6", "0x1.303086155a1ddp+6",
            "-0x1.b8c65541fab9cp+3", "0x1.97cee7142e657p+4",
        ],
        [
            "-0x1.e157a3eaf041fp+7", "-0x1.b5d9ae1a7bfe3p+7", "-0x1.08d31d630e8bep+7", "0x1.87995d9a6d1bbp+4",
            "-0x1.2f4731d02f695p+6", "-0x1.b5d9ae1a7bfe3p+7", "-0x1.a512b9b6a5f46p+7", "-0x1.0314b1d554e3bp+7",
            "0x1.77fad5f8f1480p+4", "-0x1.33ded36470cbdp+6", "-0x1.08d31d630e8bep+7", "-0x1.0314b1d554e3bp+7",
            "-0x1.39c5ba4d72bbcp+6", "-0x1.fa1251f088b93p+3", "-0x1.6978a1794179cp+5", "0x1.87995d9a6d1bbp+4",
            "0x1.77fad5f8f1480p+4", "-0x1.fa1251f088b93p+3", "-0x1.32c7b718bb07ap+2", "0x1.e78d76a16b9c8p+2",
            "-0x1.2f4731d02f695p+6", "-0x1.33ded36470cbdp+6", "-0x1.6978a1794179cp+5", "0x1.e78d76a16b9c8p+2",
            "-0x1.4de53cab07f33p+6", "-0x1.4a1a5b7685b6ep+8", "-0x1.40e09a8e1e9d1p+8", "-0x1.89a6d383fb186p+7",
            "0x1.2d25f0b1f2cc7p+5", "-0x1.f7605dd1942d9p+6", "-0x1.40e09a8e1e9d0p+8", "-0x1.4c0394430a255p+8",
            "-0x1.7c927b6dfd19ep+7", "0x1.1fbd47da06588p+5", "-0x1.f30b84ccd594cp+6", "-0x1.89a6d383fb186p+7",
            "-0x1.7c927b6dfd19ep+7", "-0x1.d344e5e7bc72ap+6", "-0x1.059e8528e8986p+5", "-0x1.2c2acf7f6ec48p+6",
            "0x1.2d25f0b1f2cc7p+5", "0x1.1fbd47da06588p+5", "-0x1.059e8528e8986p+5", "-0x1.ad6cb97a0ce2ep+2",
            "0x1.b219dd1b9444fp+3", "-0x1.f7605dd1942d9p+6", "-0x1.f30b84ccd594cp+6", "-0x1.2c2acf7f6ec48p+6",
            "0x1.b219dd1b9444fp+3", "-0x1.91f3b9c50b997p+6",
        ],
    ),
    "wrapped": (
        [
            "0x1.0bf04d75e7532p+5", "0x1.a1c08baa1c602p+3",
        ],
        [
            "0x1.1658c41607c53p+6", "0x1.159ade8057ec8p+6", "0x1.c328527623194p+0", "-0x1.9f5bddd311bd8p+0",
            "0x1.c98193bfe927ap+6", "0x1.c06241abee5e4p+6", "0x1.231b10ef500c1p+4", "0x1.447c8ac07e16dp+1",
        ],
        [
            "-0x1.0d36af183b6b6p+7", "-0x1.ff23377b966aap+6", "-0x1.4bf311ee9fe24p+5", "-0x1.ee7e56805583ep+4",
            "-0x1.ff23377b966abp+6", "-0x1.0bd44087a83e1p+7", "-0x1.4a2914d9775acp+5", "-0x1.f0c4b89f868eep+4",
            "-0x1.4bf311ee9fe24p+5", "-0x1.4a2914d9775acp+5", "-0x1.6cc361f7617acp+5", "-0x1.8c13720283e98p+3",
            "-0x1.ee7e56805583ep+4", "-0x1.f0c4b89f868eep+4", "-0x1.8c13720283e98p+3", "-0x1.328a4563a8d9dp+2",
            "-0x1.5bb0394133284p+7", "-0x1.6b94043b0412cp+7", "-0x1.089de382bd812p+6", "-0x1.8bfe0ae2a3a9fp+5",
            "-0x1.6b94043b0412cp+7", "-0x1.a1d088ee88a36p+7", "-0x1.02cbc83440cd8p+6", "-0x1.8646a76900be0p+5",
            "-0x1.089de382bd812p+6", "-0x1.02cbc83440cd8p+6", "-0x1.ba860ede6bc39p+5", "-0x1.30d74d2811682p+4",
            "-0x1.8bfe0ae2a3a9fp+5", "-0x1.8646a76900be0p+5", "-0x1.30d74d2811682p+4", "-0x1.277f51d32bbe8p+1",
        ],
    ),
}


@pytest.mark.parametrize(
    "name, model, theta",
    [
        ("artfima", sm.ModelSpec(1, 1, fractional="artfima"), [0.3, -0.2, 0.25, -0.5, 0.1]),
        ("wrapped", sm.ModelSpec(1, 1, sv_wrapper=True), [0.3, -0.2, 0.1, -1.0]),
    ],
    ids=["artfima", "wrapped"],
)
def test_grouped_loglik_derivatives_are_pinned_bit_for_bit(name, model, theta):
    ts = sm.demean(sm.simulate_arma([0.5], [0.3], 1.0, 301, seed=5))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=model)
    parts = data.loglik_derivatives(np.array(theta), sm.GroupIndex(data.n_freq, 2))
    assert [[float(x).hex() for x in np.ravel(part)] for part in parts] == list(GROUPED_DERIVATIVE_PINS[name])


# Odd and even n_time with n_freq = 4096, so that psi and 1/phi's impulse
# response, with roots 0.05 from the unit circle, decay within n_freq lags
MOMENT_PERIODOGRAMS = {
    n_time: sm.periodogram(sm.demean(sm.simulate_arma([0.5], [0.3], 1.0, n_time, seed=4))) for n_time in (8193, 8194)
}


def unwrapped_low_order(case) -> bool:
    spec, _ = case
    return not spec.sv_wrapper and spec.fractional != "arfima" and max(spec.ar_order, spec.ma_order) <= 3


@settings(deadline=None)
@given(specs_with_vectors(bound=2.0).filter(unwrapped_low_order), st.sampled_from(sorted(MOMENT_PERIODOGRAMS)))
def test_moment_loglik_matches_the_summed_terms(case, n_time):
    spec, theta = case
    distance = root_distance(sm.to_natural(spec, theta))
    assume(distance >= MIN_ROOT_DISTANCE)
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[n_time], model=spec)
    terms = data.terms(theta)
    value = sm.full_loglik(data, theta)
    assert value == pytest.approx(float(np.sum(terms)), rel=1e-12, abs=1e-12 * float(np.sum(np.abs(terms))))
    event("moment form" if data._moments.size else "fallback")
    if distance >= 0.2:  # far from the unit circle the moment form applies, not the fallback
        assert data._moments.size > 0
    # psi's length is a fixed lattice: an instance whose search starts
    # elsewhere, at L = 16 from theta = 0, gives the same bits
    other = sm.WhittleData(periodogram=data.periodogram, model=spec)
    sm.full_loglik(other, np.zeros(spec.n_params))
    assert sm.full_loglik(other, theta) == value


@pytest.mark.parametrize(
    "spec, theta",
    [
        (sm.ModelSpec(1, 0), [8.0, 0.1]),
        (sm.ModelSpec(1, 0, fractional="artfima"), [0.3, 0.4, math.log(1e-6), 0.1]),
        (sm.ModelSpec(1, 1, fractional="arfima"), [0.3, -0.2, 0.25, 0.1]),
        (sm.ModelSpec(2, 1, sv_wrapper=True), [0.3, -0.2, 0.4, 0.1, -1.0]),
    ],
    ids=["pacf", "lambda", "arfima", "wrapped"],
)
def test_full_loglik_falls_back_to_the_summed_terms(spec, theta):
    # 1/phi's impulse response at a PACF of tanh(8), and psi at lambda = 1e-6,
    # outlast n_freq lags; ARFIMA and wrapped models have no such series
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=spec)
    theta = np.array(theta)
    assert sm.full_loglik(data, theta) == float(np.sum(data.terms(theta)))
    assert data._moments.size == 0


def test_full_loglik_falls_back_on_overflow():
    # d = 800: psi is a polynomial of degree 800, so L = 1024 is found and
    # the table built, but its autocorrelation overflows; the terms give -inf
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=sm.ModelSpec(0, 0, fractional="artfima"))
    with np.errstate(over="ignore"):
        assert sm.full_loglik(data, np.array([800.0, -3.0, 0.0])) == -np.inf
    assert data._moments.size > 0


@pytest.mark.parametrize("n_time", [1001, 1000])
def test_moment_table_matches_the_direct_sum(n_time):
    # every A_j, j = 0..n_time/2, within 1e-12 A_0 of the direct sum
    pgram = sm.periodogram(sm.demean(sm.simulate_arma([0.7], [], 1.0, n_time, seed=6)))
    table = sm.WhittleData(periodogram=pgram, model=sm.ModelSpec(1, 0)).moments()
    assert table.size == n_time // 2 + 1
    k = np.arange(1, pgram.grid.n_freq + 1)
    direct = [pgram.ordinates @ np.cos(2.0 * np.pi * (j * k % n_time) / n_time) for j in range(table.size)]
    np.testing.assert_allclose(table, direct, rtol=0, atol=1e-12 * table[0])


def test_moment_loglik_keeps_psi_to_its_tail_threshold():
    # ARTFIMA with d = 1e-5 has psi_j of about d exp(-lambda j)/j, small and
    # slow: |psi| sums to between 1e-17 and 1e-9 over lags L..2L-1 at some L,
    # and data of an AR(1) at 0.999 weight the lags it drops.  Stopping at
    # 1e-9 puts the value 8e-10 sum_k |l_k| off the terms; at 1e-17, 8e-16
    ts = sm.demean(sm.simulate_arma([0.999], [], 1.0, 8193, seed=3))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(0, 0, fractional="artfima"))
    theta = np.array([1e-5, math.log(0.06), 0.0])
    terms = data.terms(theta)
    assert abs(sm.full_loglik(data, theta) - float(np.sum(terms))) <= 1e-14 * float(np.sum(np.abs(terms)))
    assert data._moments.size > 0


def per_frequency_scales(data, theta):
    """sum_k |value_k|, sum_k |grad_k| and sum_k |hess_k| over the frequencies, elementwise."""
    parts = data.loglik_derivatives(theta, sm.make_groups(data.n_freq, data.n_freq))
    return [np.sum(np.abs(part), axis=0) for part in parts]


@settings(deadline=None)
@given(specs_with_vectors(bound=2.0).filter(unwrapped_low_order), st.sampled_from(sorted(MOMENT_PERIODOGRAMS)))
# at d = 0 psi is 1/theta(z), L = 16, while the d and log lambda rows decay as e^(-j/e)
@example(case=(sm.ModelSpec(0, 1, fractional="artfima"), np.array([0.0, 0.0, -1.0, 0.0])), n_time=8193)
def test_quadrature_matches_the_per_frequency_pass(case, n_time):
    spec, theta = case
    distance = root_distance(sm.to_natural(spec, theta))
    assume(distance >= MIN_ROOT_DISTANCE)
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[n_time], model=spec)
    quadrature = whittle.full_loglik_derivatives(data, theta)
    event("quadrature" if data._grids else "fallback")
    if distance >= 0.2:  # far from the unit circle the grid applies, not the fallback
        assert data._grids
    exact = data.loglik_derivatives(theta)
    for got, want, scale in zip(quadrature, exact, per_frequency_scales(data, theta)):
        # entries of size d near d = 5e-324 are subnormal, with few digits of their own
        assert np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300)


@pytest.mark.parametrize(
    "spec, theta, grid",
    [
        (sm.ModelSpec(1, 0), [8.0, 0.1], False),
        (sm.ModelSpec(1, 1, fractional="arfima"), [0.3, -0.2, 0.25, 0.1], False),
        (sm.ModelSpec(2, 1, sv_wrapper=True), [0.3, -0.2, 0.4, 0.1, -1.0], False),
        (sm.ModelSpec(0, 0, fractional="artfima"), [300.0, 0.0, -700.0], True),
    ],
    ids=["pacf", "arfima", "wrapped", "overflow"],
)
def test_quadrature_falls_back_to_the_per_frequency_pass(spec, theta, grid):
    # at a PACF of tanh(8) 1/phi's impulse response needs M >= n_freq; ARFIMA
    # and wrapped models have no grid; at d = 300 and sigma2 = e^-700 the
    # grid applies, with M = 1024, but its pass overflows
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=spec)
    theta = np.array(theta)
    with np.errstate(all="ignore"):
        got, want = whittle.full_loglik_derivatives(data, theta), data.loglik_derivatives(theta)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert bool(data._grids) == grid


def test_quadrature_raises_outside_the_parameter_range():
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8194], model=sm.ModelSpec(1, 1))
    with pytest.raises(sm.ParameterRangeError):
        whittle.full_loglik_derivatives(data, np.array([0.1, 0.2, 800.0]))


def test_the_moment_table_is_built_once_by_moment_form_callers(monkeypatch):
    # one rfft, on the first moment-form call, serves the moment form and the
    # quadrature at every theta after it; wrapped and ARFIMA models build none
    calls = []
    transform = whittle.rfft
    monkeypatch.setattr(whittle, "rfft", lambda *args: calls.append(args) or transform(*args))
    gated = [
        (sm.ModelSpec(2, 1, sv_wrapper=True), [0.3, -0.2, 0.4, 0.1, -1.0]),
        (sm.ModelSpec(1, 1, fractional="arfima"), [0.3, -0.2, 0.25, 0.1]),
    ]
    for spec, theta in gated:
        data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=spec)
        sm.full_loglik(data, np.array(theta))
        whittle.full_loglik_derivatives(data, np.array(theta))
    assert not calls
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=sm.ModelSpec(1, 1))
    for theta in ([0.3, 0.2, 0.0], [0.9, -0.5, 0.4]):
        sm.full_loglik(data, np.array(theta))
        whittle.full_loglik_derivatives(data, np.array(theta))
    assert len(calls) == 1 and data._grids


@pytest.mark.parametrize(
    "spec, theta",
    [
        (sm.ModelSpec(2, 1, sv_wrapper=True), [0.3, -0.2, 0.4, 0.1, -1.0]),
        (sm.ModelSpec(1, 1, fractional="arfima"), [0.3, -0.2, 0.25, 0.1]),
    ],
    ids=["wrapped", "arfima"],
)
def test_gated_models_decode_theta_once(monkeypatch, spec, theta):
    # the moment form's model gate is read before theta is decoded, so the
    # per-frequency fallback decodes it once
    calls = []
    decode = whittle.to_natural
    monkeypatch.setattr(whittle, "to_natural", lambda *args: calls.append(args) or decode(*args))
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=spec)
    for full in (sm.full_loglik, whittle.full_loglik_derivatives):
        calls.clear()
        full(data, np.array(theta))
        assert len(calls) == 1, full.__name__


@pytest.mark.parametrize(
    "spec, theta",
    [
        (sm.ModelSpec(2, 1), [0.4, -0.25, 0.35, 0.2]),
        (sm.ModelSpec(1, 1, fractional="artfima"), [0.3, -0.2, 0.25, -0.5, 0.1]),
    ],
    ids=["arma", "artfima"],
)
def test_moment_form_decodes_theta_once(monkeypatch, spec, theta):
    # the moment form and the quadrature share one decode with psi
    calls = []
    decode = whittle.to_natural
    monkeypatch.setattr(whittle, "to_natural", lambda *args: calls.append(args) or decode(*args))
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[8193], model=spec)
    for full in (sm.full_loglik, whittle.full_loglik_derivatives):
        calls.clear()
        full(data, np.array(theta))
        assert len(calls) == 1, full.__name__
    assert data._moments.size and data._grids


# float.hex values of the moment-form likelihood, recorded before psi's
# filters and the decode were trimmed; their bits must not drift
MOMENT_LOGLIK_PINS = {
    ("arma", 8193): "0x1.7f305aeb534f1p+11",
    ("arma", 8194): "0x1.7f35ab45f6f81p+11",
    ("artfima", 8193): "0x1.06480eceee800p+11",
    ("artfima", 8194): "0x1.065067323c7d6p+11",
}


@pytest.mark.parametrize("name, n_time", sorted(MOMENT_LOGLIK_PINS))
def test_moment_loglik_is_pinned_bit_for_bit(name, n_time):
    spec, theta = {
        "arma": (sm.ModelSpec(2, 1), [0.4, -0.25, 0.35, 0.2]),
        "artfima": (sm.ModelSpec(1, 1, fractional="artfima"), [0.3, -0.2, 0.25, -0.5, 0.1]),
    }[name]
    data = sm.WhittleData(periodogram=MOMENT_PERIODOGRAMS[n_time], model=spec)
    assert sm.full_loglik(data, np.array(theta)).hex() == MOMENT_LOGLIK_PINS[name, n_time]
    assert data._moments.size > 0


@settings(deadline=None)
@given(specs_with_vectors(bound=2.0).filter(unwrapped_low_order), st.sampled_from([16, 64, 256]))
def test_compiled_filter_equals_lfilter(case, size):
    # psi and the cepstrum call scipy's compiled IIR filter, the one lfilter
    # runs after its checks; on their inputs the two agree bit for bit
    spec, theta = case
    nat = sm.to_natural(spec, theta)
    ar, ma = np.concatenate(([1.0], -nat.phi)), np.concatenate(([1.0], nat.theta))
    impulse = np.zeros(size)
    impulse[0] = 1.0
    binomial = impulse
    if nat.lambda_ is not None:
        j = np.arange(1.0, size)
        binomial = np.cumprod(np.concatenate(([1.0], (j - 1.0 - nat.d) * (math.exp(-nat.lambda_) / j))))
    cases = [(ar, ma, binomial), (np.ones(1), ar, impulse)]  # psi, 1/phi's impulse response
    cases += [(np.arange(den.size) * den, den, impulse) for den in (ar, ma)]  # the cepstrum's
    for b, a, x in cases:
        if a.size > 1:
            np.testing.assert_array_equal(_linear_filter(b, a, x, -1), lfilter(b, a, x))
