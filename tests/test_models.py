"""Parameter transforms, spectral densities, and priors."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import specmcmc as sm
from conftest import specs_with_vectors
from specmcmc.models import (
    _PRIOR_LOG_LAMBDA,
    _PRIOR_LOG_SIGMA2,
    _PRIOR_LOG_SIGMA2_EPS,
    _PRIOR_MEMORY,
    FRACTIONAL_KINDS,
    _float_sum,
)


def same_bits(a: float, b: float) -> bool:
    """Equal as float64 bit patterns (so 0.0 differs from -0.0); any NaN equals any NaN."""
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


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


# Nearer +-1 the roots crowd onto the unit circle, where np.roots cannot
# resolve them (its error on a k-fold root grows like eps^(1/k)).
pacf_blocks = st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=6)


@given(pacf_blocks)
def test_ar_image_is_stationary(pacf):
    # the reciprocal roots, those of z^q - phi_1 z^(q-1) - ... - phi_q, lie
    # inside the unit disc; np.roots finds them also when phi_q is tiny
    roots = np.roots(np.concatenate(([1.0], -sm.pacf_to_ar(pacf))))
    assert np.all(np.abs(roots) < 1.0 + 1e-9)


@given(pacf_blocks)
def test_ma_image_is_invertible(pacf):
    spec = sm.ModelSpec(0, len(pacf))
    nat = sm.to_natural(spec, np.append(np.arctanh(pacf), 0.0))
    roots = np.roots(np.concatenate(([1.0], nat.theta)))
    assert np.all(np.abs(roots) < 1.0 + 1e-9)


def test_to_natural_zero_vector():
    nat = sm.to_natural(sm.ModelSpec(1, 1), np.zeros(3))
    np.testing.assert_array_equal(nat.phi, [0.0])
    np.testing.assert_array_equal(nat.theta, [0.0])
    assert nat.sigma2 == 1.0 and nat.d == 0.0 and nat.lambda_ is None


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


def tanh_form_log_prior(spec, vector):
    """The earlier log prior: log(0.5 * (1 - tanh(v)^2)) on the PACF coordinates."""
    block = vector[: spec.ar_order + spec.ma_order]
    pacf = float(np.sum(np.log1p(-np.tanh(block) ** 2) - math.log(2.0)))
    rest = sm.ModelSpec(0, 0, spec.fractional, spec.sv_wrapper)
    return pacf + sm.log_prior(rest, vector[block.size :])


@settings(deadline=None)
@given(specs_with_vectors(bound=5.0))
def test_log_prior_matches_the_tanh_form(case):
    # 1 - tanh(v)^2 by cancellation carries a relative error near
    # eps * e^(2|v|) / 2, 2.5e-12 at |v| = 5 on a log of -10 or less, so up to
    # there the tanh form is accurate enough to be the reference
    spec, vector = case
    assert sm.log_prior(spec, vector) == pytest.approx(tanh_form_log_prior(spec, vector), rel=1e-12)


@pytest.mark.parametrize("v", [19.5, -19.5, 400.0, -400.0])
def test_log_prior_stable_far_out(v):
    # the tanh form warned "divide by zero encountered in log1p" from about
    # |v| = 19 on; -log 2 - 2 log cosh v tends to log 2 - 2|v|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = sm.log_prior(sm.ModelSpec(1, 0), np.array([v, 0.0]))
    assert math.isfinite(value)
    assert value == pytest.approx(math.log(2) - 2 * abs(v) - 0.5 * math.log(2 * math.pi), rel=1e-15)


# lengths on both sides of numpy's 8-lane and 128-element thresholds, with
# signed zeros, huge, infinite and NaN entries among ordinary ones
sum_inputs = st.lists(
    st.floats()
    | st.floats(-1e3, 1e3)
    | st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    min_size=2,
    max_size=300,
)


@settings(deadline=None, max_examples=300)
@given(sum_inputs)
def test_float_sum_matches_numpy_bit_for_bit(values):
    x = np.array(values)
    n = len(values)
    mean = _float_sum(values) / n
    var = _float_sum([(v - mean) * (v - mean) for v in values]) / (n - 1)
    with np.errstate(all="ignore"):
        expected = (np.sum(x), np.mean(x), np.var(x, ddof=1))
    for got, ref in zip((_float_sum(values), mean, var), expected):
        assert same_bits(got, float(ref))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 128, 129, 300])
def test_float_sum_of_signed_zeros_is_positive_zero(n):
    assert same_bits(_float_sum([-0.0] * n), float(np.sum(np.full(n, -0.0))))
    assert same_bits(_float_sum([-0.0] * n), 0.0)


@st.composite
def wide_specs_with_vectors(draw, bound: float):
    """Every model kind with q + p up to 10, and a vector within +-bound."""
    spec = sm.ModelSpec(
        ar_order=draw(st.integers(0, 5)),
        ma_order=draw(st.integers(0, 5)),
        fractional=draw(st.sampled_from(FRACTIONAL_KINDS)),
        sv_wrapper=draw(st.booleans()),
    )
    elements = st.floats(-bound, bound) | st.floats(-30.0, 30.0) | st.sampled_from([0.0, -0.0])
    return spec, draw(arrays(np.float64, spec.n_params, elements=elements))


def numpy_log_prior(spec, vector):
    """The log prior as numpy arithmetic on arrays and float64 scalars, the form it replaced."""
    q, p = spec.ar_order, spec.ma_order
    size = np.abs(vector[: q + p])
    total = float(np.sum(-2.0 * (size + np.log1p(np.exp(-2.0 * size)) - math.log(2.0)) - math.log(2.0)))
    priors = {"none": [], "arfima": [_PRIOR_MEMORY], "artfima": [_PRIOR_MEMORY, _PRIOR_LOG_LAMBDA]}
    priors = priors[spec.fractional] + [_PRIOR_LOG_SIGMA2] + [_PRIOR_LOG_SIGMA2_EPS] * spec.sv_wrapper
    for x, (mean, sd) in zip(vector[q + p :], priors):  # x is a numpy float64
        z = (x - mean) / sd
        total += -0.5 * (z * z + math.log(2.0 * math.pi)) - math.log(sd)
    return float(total)


@settings(deadline=None, max_examples=300)
@given(wide_specs_with_vectors(bound=1e6))
def test_log_prior_equals_the_numpy_form_bit_for_bit(case):
    spec, vector = case
    assert same_bits(sm.log_prior(spec, vector), numpy_log_prior(spec, vector))


def test_log_prior_equals_the_numpy_form_on_many_pacf_blocks():
    # math.exp in place of numpy's exp moves about 0.6% of these PACF terms
    # by a last bit, too few for the property above to meet reliably
    spec = sm.ModelSpec(5, 5)
    for vector in np.random.default_rng(11).uniform(-3.0, 3.0, (4000, spec.n_params)):
        assert same_bits(sm.log_prior(spec, vector), numpy_log_prior(spec, vector))


@settings(deadline=None, max_examples=200)
@given(wide_specs_with_vectors(bound=30.0))
def test_to_natural_coefficients_equal_the_per_block_form_bit_for_bit(case):
    # one tanh call over both blocks gives what a call per block gave
    spec, vector = case
    q, p = spec.ar_order, spec.ma_order
    nat = sm.to_natural(spec, vector)
    assert nat.phi.tobytes() == sm.pacf_to_ar(np.tanh(vector[:q])).tobytes()
    assert nat.theta.tobytes() == (-sm.pacf_to_ar(-np.tanh(vector[q : q + p]))).tobytes()


@settings(deadline=None)
@given(wide_specs_with_vectors(bound=700.0))
def test_to_natural_scalar_coordinates_have_closed_forms(case):
    spec, vector = case
    nat = sm.to_natural(spec, vector)
    rest = iter(vector[spec.ar_order + spec.ma_order :].tolist())
    assert nat.phi.size == spec.ar_order and nat.theta.size == spec.ma_order
    if spec.fractional == "arfima":
        assert nat.d == 0.5 * math.tanh(next(rest)) and nat.lambda_ is None
    elif spec.fractional == "artfima":
        assert nat.d == next(rest) and nat.lambda_ == math.exp(next(rest))
    else:
        assert nat.d == 0.0 and nat.lambda_ is None
    assert nat.sigma2 == math.exp(next(rest))
    assert nat.sigma2_eps == (math.exp(next(rest)) if spec.sv_wrapper else None)


def test_natural_params_validation():
    ok = dict(phi=np.array([0.5]), theta=np.zeros(0), d=0.0, lambda_=None, sigma2=1.0, sigma2_eps=None)
    assert sm.NaturalParams(**{**ok, "phi": 0.5}).phi.shape == (1,)
    bad_fields = [
        {"phi": [0.1, math.nan]},
        {"phi": math.inf},
        {"theta": [0.2, -math.inf]},
        {"theta": [[0.1], [math.nan]]},
        {"sigma2": 0.0},
        {"sigma2": math.nan},
        {"lambda_": 0.0},
        {"sigma2_eps": -1.0},
    ]
    for bad in bad_fields:
        with pytest.raises(ValueError):
            sm.NaturalParams(**{**ok, **bad})
