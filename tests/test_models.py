"""Parameter transforms, spectral densities, and priors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmcmc as sm
from conftest import specs_with_vectors


def reference_density(spec, nat, omegas):
    """The density in complex arithmetic, as the package computed it before.

    z^k is exp(-i*k*omega) rather than a running product of z, whose k
    roundings would make this reference less accurate than the kernel it
    checks: near-unit-root MA(4) models put the product form 1.3e-10 off a
    long-double evaluation, against 7e-11 for the real-valued kernel.
    """
    ar_poly = np.ones(omegas.size, dtype=complex)
    ma_poly = np.ones(omegas.size, dtype=complex)
    for lag in range(max(nat.phi.size, nat.theta.size)):
        power = np.exp(-1j * (lag + 1) * omegas)
        if lag < nat.phi.size:
            ar_poly = ar_poly - nat.phi[lag] * power
        if lag < nat.theta.size:
            ma_poly = ma_poly + nat.theta[lag] * power
    dens = (nat.sigma2 / (2.0 * np.pi)) * (
        (ma_poly.real**2 + ma_poly.imag**2) / (ar_poly.real**2 + ar_poly.imag**2)
    )
    if spec.fractional != "none" and nat.d != 0.0:
        damp = math.exp(-nat.lambda_) if nat.lambda_ is not None else 1.0
        frac = 1.0 - damp * np.exp(-1j * omegas)
        dens = dens * (frac.real**2 + frac.imag**2) ** (-nat.d)
    if spec.sv_wrapper:
        dens = dens + nat.sigma2_eps / (2.0 * np.pi)
    return dens


OMEGAS = sm.FrequencyGrid(1001).omegas


def test_pacf_to_ar_worked_examples():
    np.testing.assert_allclose(sm.pacf_to_ar([0.5]), [0.5])
    np.testing.assert_allclose(sm.pacf_to_ar([0.5, 0.2]), [0.4, 0.2])
    np.testing.assert_allclose(sm.pacf_to_ar([0.7, 0.0]), [0.7, 0.0])
    assert sm.pacf_to_ar([]).size == 0


@given(st.lists(st.floats(-0.98, 0.98), min_size=1, max_size=5))
def test_pacf_round_trip(pacf):
    # each Durbin-Levinson step divides by 1 - r^2, so the rounding error of
    # the round trip grows with the product of those factors (up to 5.5e-15
    # times it on a grid of corners; 4.5e-9 at five entries of 0.98)
    pacf = np.array(pacf)
    conditioning = np.prod(1.0 / (1.0 - pacf**2))
    np.testing.assert_allclose(
        sm.ar_to_pacf(sm.pacf_to_ar(pacf)), pacf, atol=1e-13 * conditioning
    )


def test_ar_image_is_stationary():
    rng = np.random.default_rng(3)
    for _ in range(200):
        coeffs = sm.pacf_to_ar(rng.uniform(-0.999, 0.999, size=4))
        roots = np.roots(np.concatenate(((-coeffs)[::-1], [1.0])))
        assert np.all(np.abs(roots) > 1.0 - 1e-9)


def test_ma_image_is_invertible():
    rng = np.random.default_rng(4)
    spec = sm.ModelSpec(0, 4)
    for _ in range(200):
        vector = np.concatenate((rng.normal(scale=1.5, size=4), [0.0]))
        nat = sm.to_natural(spec, vector)
        roots = np.roots(np.concatenate((nat.theta[::-1], [1.0])))
        assert np.all(np.abs(roots) > 1.0 - 1e-9)


def test_to_natural_zero_vector():
    nat = sm.to_natural(sm.ModelSpec(1, 1), np.zeros(3))
    np.testing.assert_array_equal(nat.phi, [0.0])
    np.testing.assert_array_equal(nat.theta, [0.0])
    assert nat.sigma2 == 1.0 and nat.d == 0.0 and nat.lambda_ is None


def test_natural_round_trip_all_families():
    rng = np.random.default_rng(5)
    specs = [
        sm.ModelSpec(2, 1),
        sm.ModelSpec(1, 2, fractional="arfima"),
        sm.ModelSpec(2, 2, fractional="artfima", sv_wrapper=True),
        sm.ModelSpec(0, 0, sv_wrapper=True),
    ]
    for spec in specs:
        for _ in range(50):
            vector = rng.normal(scale=1.0, size=spec.n_params)
            nat = sm.to_natural(spec, vector)
            np.testing.assert_allclose(sm.from_natural(spec, nat), vector, atol=1e-12)


def test_param_names_and_count():
    spec = sm.ModelSpec(2, 1, fractional="artfima", sv_wrapper=True)
    assert spec.param_names() == (
        "phi_tilde_1",
        "phi_tilde_2",
        "theta_tilde_1",
        "d",
        "log_lambda",
        "log_sigma2",
        "log_sigma2_eps",
    )
    assert spec.n_params == 7
    assert sm.ModelSpec(1, 0, fractional="arfima").param_names() == (
        "phi_tilde_1",
        "d_tilde",
        "log_sigma2",
    )


def test_to_natural_validates_input():
    spec = sm.ModelSpec(1, 0)
    with pytest.raises(ValueError):
        sm.to_natural(spec, np.zeros(3))
    with pytest.raises(ValueError):
        sm.to_natural(spec, np.array([0.0, np.inf]))


def test_white_noise_density_flat():
    spec = sm.ModelSpec(0, 0)
    nat = sm.to_natural(spec, np.array([math.log(2.0)]))
    omegas = np.linspace(0.1, 3.0, 7)
    np.testing.assert_allclose(sm.spectral_density(spec, nat, omegas), 2.0 / (2 * np.pi))


def test_ar1_density_closed_form():
    spec = sm.ModelSpec(1, 0)
    phi, sigma2 = 0.6, 1.7
    nat = sm.NaturalParams(np.array([phi]), np.zeros(0), 0.0, None, sigma2, None)
    omegas = np.linspace(0.05, 3.1, 9)
    expected = sigma2 / (2 * np.pi) / (1.0 - 2.0 * phi * np.cos(omegas) + phi**2)
    np.testing.assert_allclose(sm.spectral_density(spec, nat, omegas), expected, rtol=1e-12)


def test_ma1_density_closed_form():
    spec = sm.ModelSpec(0, 1)
    theta, sigma2 = -0.4, 0.9
    nat = sm.NaturalParams(np.zeros(0), np.array([theta]), 0.0, None, sigma2, None)
    omegas = np.linspace(0.05, 3.1, 9)
    expected = sigma2 / (2 * np.pi) * (1.0 + 2.0 * theta * np.cos(omegas) + theta**2)
    np.testing.assert_allclose(sm.spectral_density(spec, nat, omegas), expected, rtol=1e-12)


def test_artfima_with_zero_memory_is_arma():
    spec_t = sm.ModelSpec(2, 1, fractional="artfima")
    spec_a = sm.ModelSpec(2, 1)
    nat_t = sm.NaturalParams(np.array([0.3, -0.2]), np.array([0.4]), 0.0, 2.0, 1.3, None)
    nat_a = sm.NaturalParams(np.array([0.3, -0.2]), np.array([0.4]), 0.0, None, 1.3, None)
    omegas = np.linspace(0.01, 3.1, 25)
    np.testing.assert_array_equal(
        sm.spectral_density(spec_t, nat_t, omegas), sm.spectral_density(spec_a, nat_a, omegas)
    )


def test_artfima_small_memory_approaches_arma():
    spec_t = sm.ModelSpec(1, 1, fractional="artfima")
    spec_a = sm.ModelSpec(1, 1)
    nat_t = sm.NaturalParams(np.array([0.5]), np.array([0.2]), 1e-8, 0.7, 1.0, None)
    nat_a = sm.NaturalParams(np.array([0.5]), np.array([0.2]), 0.0, None, 1.0, None)
    omegas = np.linspace(0.01, 3.1, 25)
    ratio = sm.spectral_density(spec_t, nat_t, omegas) / sm.spectral_density(spec_a, nat_a, omegas)
    np.testing.assert_allclose(ratio, 1.0, rtol=1e-6)


def test_arfima_divergence_rate_at_origin():
    # f(w) * w^(2d) tends to the finite constant sigma2/(2 pi) for a pure
    # fractional model: |1 - e^{-iw}| = 2 sin(w/2) ~ w.
    spec = sm.ModelSpec(0, 0, fractional="arfima")
    d = 0.3
    nat = sm.to_natural(spec, np.array([math.atanh(2 * d), 0.0]))
    for omega in (1e-3, 1e-4):
        value = sm.spectral_density(spec, nat, omega) * omega ** (2 * d)
        assert value == pytest.approx(1.0 / (2 * np.pi), rel=1e-5)


def test_tempering_bounds_the_origin():
    # With lam > 0 the density stays finite as w -> 0, unlike ARFIMA.
    spec = sm.ModelSpec(0, 0, fractional="artfima")
    nat = sm.NaturalParams(np.zeros(0), np.zeros(0), 0.4, 0.05, 1.0, None)
    tiny = sm.spectral_density(spec, nat, 1e-6)
    limit = (1.0 / (2 * np.pi)) * abs(1 - math.exp(-0.05)) ** (-0.8)
    assert tiny == pytest.approx(limit, rel=1e-3)


def test_sv_wrapper_adds_noise_floor():
    base = sm.ModelSpec(1, 0)
    wrapped = sm.ModelSpec(1, 0, sv_wrapper=True)
    nat_b = sm.NaturalParams(np.array([0.9]), np.zeros(0), 0.0, None, 0.5, None)
    nat_w = sm.NaturalParams(np.array([0.9]), np.zeros(0), 0.0, None, 0.5, math.pi**2 / 2)
    omegas = np.linspace(0.1, 3.0, 5)
    diff = sm.spectral_density(wrapped, nat_w, omegas) - sm.spectral_density(base, nat_b, omegas)
    np.testing.assert_allclose(diff, (math.pi**2 / 2) / (2 * np.pi), rtol=1e-12)


@settings(deadline=None)
@given(specs_with_vectors(bound=3.0))
def test_density_matches_complex_reference(case):
    spec, vector = case
    nat = sm.to_natural(spec, vector)
    np.testing.assert_allclose(
        sm.spectral_density(spec, nat, OMEGAS), reference_density(spec, nat, OMEGAS), rtol=1e-10
    )


@settings(deadline=None)
@given(specs_with_vectors(bound=10.0))
def test_density_finite_and_positive(case):
    spec, vector = case
    dens = sm.spectral_density(spec, sm.to_natural(spec, vector), OMEGAS)
    assert np.all(np.isfinite(dens)) and np.all(dens > 0.0)


def test_to_natural_out_of_range_is_typed():
    spec = sm.ModelSpec(1, 0, fractional="artfima", sv_wrapper=True)
    for pos in (2, 3, 4):  # log lambda, log sigma2, log sigma2_eps
        for value in (800.0, -800.0):
            vector = np.zeros(spec.n_params)
            vector[pos] = value
            with pytest.raises(sm.ParameterRangeError):
                sm.to_natural(spec, vector)
    assert issubclass(sm.ParameterRangeError, ValueError)


def test_spectral_density_domain_errors():
    spec = sm.ModelSpec(0, 0)
    nat = sm.to_natural(spec, np.zeros(1))
    for bad in (0.0, -0.1, np.pi, 4.0):
        with pytest.raises(ValueError):
            sm.spectral_density(spec, nat, bad)


def test_log_prior_worked_example():
    # ARMA(1,0) at the zero vector: -log 2 from the flat pacf prior plus a
    # standard normal at zero on log sigma2.
    value = sm.log_prior(sm.ModelSpec(1, 0), np.zeros(2))
    assert value == pytest.approx(-math.log(2) - 0.5 * math.log(2 * math.pi), abs=1e-12)


def test_log_prior_sv_noise_is_tight():
    spec = sm.ModelSpec(0, 0, sv_wrapper=True)
    base = sm.log_prior(spec, np.zeros(2))
    shifted = sm.log_prior(spec, np.array([0.0, 0.1]))
    assert shifted - base == pytest.approx(-(0.1**2) / (2 * 0.01), abs=1e-12)


def test_log_prior_gaussian_blocks():
    # ARTFIMA: d and log lambda both standard normal
    spec = sm.ModelSpec(0, 0, fractional="artfima")
    base = sm.log_prior(spec, np.zeros(3))
    moved = sm.log_prior(spec, np.array([1.0, 0.0, 0.0]))
    assert moved - base == pytest.approx(-0.5, abs=1e-12)
    moved = sm.log_prior(spec, np.array([0.0, 2.0, 0.0]))
    assert moved - base == pytest.approx(-2.0, abs=1e-12)


def test_log_prior_pacf_jacobian():
    # P(pacf in (-1,1)) = 1 under the flat prior: integrate the unconstrained
    # density numerically.
    spec = sm.ModelSpec(1, 0)
    grid = np.linspace(-12, 12, 20_001)
    dens = np.exp([sm.log_prior(spec, np.array([v, 0.0])) for v in grid])
    total = np.trapezoid(dens, grid) * math.sqrt(2 * math.pi)
    assert total == pytest.approx(1.0, rel=1e-6)


def test_prior_hyperparams_override():
    spec = sm.ModelSpec(0, 0)
    wide = sm.PriorHyperparams(log_sigma2=(0.0, 10.0))
    assert sm.log_prior(spec, np.array([3.0]), wide) > sm.log_prior(spec, np.array([3.0]))
