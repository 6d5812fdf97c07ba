"""Inefficiency factors, computing time, kernel densities, mean spectra."""

import numpy as np
import pytest

import specmcmc as sm
from specmcmc import diagnostics
from conftest import make_quadratic_stub


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
        (sm.ModelSpec(2, 1), [0.3, -0.2, 0.4, 0.1], [0.1, 0.2, -0.3, -0.1]),
        (sm.ModelSpec(0, 0, fractional="artfima"), [0.3, -1.0, 0.2], [-0.2, 0.5, 0.1]),
    ],
    ids=["arma", "artfima"],
)
def test_posterior_mean_spectrum_reuses_repeated_rows(monkeypatch, model, a, b):
    # a row equal to the one before adds its log densities again: the bytes
    # of evaluating every row, with one kernel call fewer per repeat
    grid = sm.FrequencyGrid(64)
    draws = np.array([a, a, b, a])
    expected = np.zeros(grid.n_freq)
    for row in draws:
        expected += sm.posterior_mean_spectrum(row, model, grid)
    kernel, calls = diagnostics.density_from_trig, []
    monkeypatch.setattr(diagnostics, "density_from_trig", lambda *args: calls.append(1) or kernel(*args))
    np.testing.assert_array_equal(sm.posterior_mean_spectrum(draws, model, grid), expected / 4)
    assert len(calls) == 3
