"""Inefficiency factors, computing time, kernel densities, mean spectra."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import specmcmc as sm
from specmcmc import diagnostics, spectral
from conftest import make_quadratic_stub, mean_log_spectrum, model_specs


def test_if_near_one_for_independent_draws():
    rng = np.random.default_rng(1)
    assert sm.inefficiency_factor(rng.standard_normal(100_000)) == pytest.approx(1.0, abs=0.1)


def test_if_matches_ar1_theory():
    # an AR(1) trace with coefficient rho has IF = (1 + rho) / (1 - rho)
    trace = sm.simulate_arma([0.5], [], 1.0, 1_000_000, seed=2).values
    assert sm.inefficiency_factor(trace) == pytest.approx(3.0, rel=0.15)


def test_if_input_validation():
    with pytest.raises(ValueError):
        sm.inefficiency_factor(np.zeros(99))
    with pytest.raises(ValueError):
        sm.inefficiency_factor(np.ones(500))


def test_efficiency_report_worked_example():
    report = sm.EfficiencyReport(("a", "b"), np.array([2.0, 4.0]), 100)
    np.testing.assert_array_equal(report.ct, [200.0, 400.0])
    with pytest.raises(ValueError):
        sm.EfficiencyReport(("a",), np.array([1.0, 2.0]), 10)


def test_relative_ct_worked_example():
    baseline = sm.EfficiencyReport(("a", "b"), np.array([2.0, 2.0]), 1_000)
    cheap = sm.EfficiencyReport(("a", "b"), np.array([4.0, 8.0]), 100)
    np.testing.assert_allclose(sm.relative_ct(cheap, baseline), [5.0, 2.5])
    renamed = sm.EfficiencyReport(("a", "c"), np.array([4.0, 8.0]), 100)
    with pytest.raises(ValueError):
        sm.relative_ct(renamed, baseline)


def test_efficiency_report_from_chain_output():
    rng = np.random.default_rng(5)
    stub = make_quadratic_stub(rng, n_terms=20, dim=2)
    theta = stub.total_mode()
    mode = sm.ModeResult(
        theta=theta,
        hessian=stub.hessians.sum(axis=0),
        log_posterior=sm.full_loglik(stub, theta),
    )
    out = sm.run_full_chain(
        stub, lambda v: 0.0, sm.ChainSettings(iterations=2_000, burn_in=200, seed=3), mode
    )
    report = sm.efficiency_report(out)
    assert report.param_names == out.param_names
    assert np.all(report.if_values > 0)
    np.testing.assert_array_equal(report.ct, report.if_values * out.density_evals)


def test_kde_is_a_density():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal(5_000)
    grid, density = sm.kde_grid(samples)
    assert grid.size == density.size == 512
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.01)
    assert density.max() == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=0.05)


def test_kde_translation_equivariance():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(400)
    grid, density = sm.kde_grid(samples, grid_size=101)
    grid_shift, density_shift = sm.kde_grid(samples + 10.0, grid_size=101)
    np.testing.assert_allclose(grid_shift, grid + 10.0, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(density_shift, density, rtol=1e-7, atol=1e-10)


def test_kde_input_validation():
    with pytest.raises(ValueError):
        sm.kde_grid(np.array([1.0]))
    with pytest.raises(ValueError):
        sm.kde_grid(np.full(50, 3.14))


def test_posterior_mean_spectrum_single_draw():
    model = sm.ModelSpec(1, 0)
    grid = sm.FrequencyGrid(64)
    theta = np.array([np.arctanh(0.6), np.log(2.0)])
    mean_log = sm.posterior_mean_spectrum(theta, model, grid)
    nat = sm.to_natural(model, theta)
    direct = np.log([sm.spectral_density(model, nat, w) for w in grid.omegas])
    np.testing.assert_allclose(mean_log, direct, rtol=1e-12)


def test_posterior_mean_spectrum_averages_logs():
    model = sm.ModelSpec(0, 0)
    grid = sm.FrequencyGrid(32)
    thetas = np.array([[np.log(1.0)], [np.log(4.0)]])
    mean_log = sm.posterior_mean_spectrum(thetas, model, grid)
    # log densities are flat in omega here: log(s2 / 2pi); the average of the
    # two logs is log(2 / 2pi) by symmetry
    np.testing.assert_allclose(mean_log, np.log(2.0 / (2.0 * np.pi)), rtol=1e-12)


@pytest.mark.parametrize(
    "model, a, b",
    [
        (sm.ModelSpec(2, 1, sv_wrapper=True), [0.3, -0.2, 0.4, 0.1, -1.0], [0.1, 0.2, -0.3, -0.1, 0.5]),
        (sm.ModelSpec(0, 0, fractional="artfima", sv_wrapper=True), [0.3, -1.0, 0.2, -1.0], [-0.2, 0.5, 0.1, 0.5]),
    ],
    ids=["arma", "artfima"],
)
def test_posterior_mean_spectrum_reuses_repeated_rows(monkeypatch, model, a, b):
    # a wrapped model's rows take the density kernel: a row equal to the one
    # before adds its log densities again, the bytes of evaluating every row
    # with one kernel call fewer per repeat
    grid = sm.FrequencyGrid(64)
    draws = np.array([a, a, b, a])
    expected = np.zeros(grid.n_freq)
    for row in draws:
        expected += sm.posterior_mean_spectrum(row, model, grid)
    kernel, calls = diagnostics.density_from_trig, []
    monkeypatch.setattr(diagnostics, "density_from_trig", lambda *args: calls.append(1) or kernel(*args))
    np.testing.assert_array_equal(sm.posterior_mean_spectrum(draws, model, grid), expected / 4)
    assert len(calls) == 3


@pytest.mark.parametrize("n_time, terms", [(100_001, 60), (100_000, 60), (101, 101)])
def test_cosine_series_matches_the_direct_sum(n_time, terms):
    # the chirp's phases m^2 are reduced mod 2 n_time exactly, which keeps
    # 1e-12 at n_time 1e5; the last case has more terms than frequencies
    coef = np.random.default_rng(3).standard_normal(terms) / np.arange(1, terms + 1) ** 2
    n_freq = (n_time - 1) // 2
    j = np.arange(1, n_freq + 1)
    direct = sum(c * np.cos(2.0 * np.pi * (j * k % n_time) / n_time) for k, c in enumerate(coef))
    series = spectral._cosine_series(coef, n_time, n_freq)
    np.testing.assert_allclose(series, direct, rtol=0, atol=1e-12)


def test_posterior_mean_spectrum_keeps_cepstra_to_their_tail_threshold():
    # ARTFIMA with d = 1e-5 has C_k = d exp(-lambda k)/k, small and slow: the
    # last half of |C_k| sums to between 1e-17 and 1e-9 at some K.  Stopping
    # at 1e-9 leaves the spectrum 2.5e-13 off the per-row density; at 1e-17, 1.8e-15
    model, grid = sm.ModelSpec(0, 0, fractional="artfima"), sm.FrequencyGrid(4001)
    row = np.array([[1e-5, math.log(0.03), 0.0]])
    expected = mean_log_spectrum(model, row, grid.omegas)
    np.testing.assert_allclose(sm.posterior_mean_spectrum(row, model, grid), expected, rtol=0, atol=1e-14)


@st.composite
def unwrapped_draws(draw):
    """An unwrapped model and draws in [-2, 2], up to four distinct rows in any order, the last one repeated."""
    spec = dataclasses.replace(draw(model_specs), sv_wrapper=False)
    rows = draw(arrays(np.float64, (draw(st.integers(1, 4)), spec.n_params), elements=st.floats(-2.0, 2.0)))
    order = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
    return spec, rows[order + order[-1:]]


@pytest.mark.parametrize("n_time", [2001, 4096])
@settings(deadline=None)
@given(unwrapped_draws())
def test_posterior_mean_spectrum_matches_the_per_row_density(n_time, case):
    # the averaged cepstral series, and the kernel for rows whose series
    # would exceed n_time terms, give the mean of log f row by row
    spec, draws = case
    grid = sm.FrequencyGrid(n_time)
    expected = mean_log_spectrum(spec, draws, grid.omegas)
    np.testing.assert_allclose(sm.posterior_mean_spectrum(draws, spec, grid), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "model, slow, fast",
    [
        (sm.ModelSpec(1, 1), [8.0, 0.3, 0.1], [0.5, 0.3, 0.1]),
        (sm.ModelSpec(1, 0, fractional="artfima"), [0.5, 0.4, math.log(1e-6), 0.1], [0.5, 0.4, 0.0, 0.1]),
    ],
    ids=["pacf", "artfima"],
)
def test_posterior_mean_spectrum_falls_back_to_the_kernel(monkeypatch, model, slow, fast):
    # a PACF of tanh(8), or lambda = 1e-6, needs more cepstral terms than
    # n_time: that row takes the kernel, once, and the mean still matches
    grid = sm.FrequencyGrid(4001)
    draws = np.array([fast, slow, slow, fast])
    expected = mean_log_spectrum(model, draws, grid.omegas)
    kernel, calls = diagnostics.density_from_trig, []
    monkeypatch.setattr(diagnostics, "density_from_trig", lambda *args: calls.append(1) or kernel(*args))
    np.testing.assert_allclose(sm.posterior_mean_spectrum(draws, model, grid), expected, rtol=0, atol=1e-12)
    assert len(calls) == 1


# SHA-256 of the cepstral coefficients of one ARMA and one ARTFIMA draw,
# recorded before the decode and the filter call were trimmed
CEPSTRUM_PINS = {
    "arma": (128, "032062c36b31f219867395920857e59c9bce7ddd9419fd02770115b6f85e55b0"),
    "artfima": (128, "f4c9739228845bfabc17c6554db4d905ccd0f9d1ecf08b12636112c74c474909"),
}


@pytest.mark.parametrize(
    "name, model, theta",
    [
        ("arma", sm.ModelSpec(2, 1), [0.4, -0.25, 0.35, 0.2]),
        ("artfima", sm.ModelSpec(1, 1, fractional="artfima"), [0.3, -0.2, 0.25, -0.5, 0.1]),
    ],
    ids=["arma", "artfima"],
)
def test_cepstrum_is_pinned_bit_for_bit(name, model, theta):
    coef = diagnostics._cepstrum(sm.to_natural(model, np.array(theta)), 8193, 64)
    assert (coef.size, hashlib.sha256(coef.tobytes()).hexdigest()) == CEPSTRUM_PINS[name]
