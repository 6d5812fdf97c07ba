"""End-to-end guarantees of the package, one test per numbered criterion.

Each test pins the scale, seeds, and tolerance it is run at, so `pytest -v`
reports a pass/fail line per criterion.  The two expensive fixtures (a
simulated ARMA(2,1) fit and a large tempered-memory fit) are shared by the
criteria that examine them from different angles.
"""

import numpy as np
import pytest
from scipy import stats

import specmcmc as sm
from conftest import make_quadratic_stub, tempered_fractional_series


@pytest.fixture(scope="module")
def arma21_fit():
    """Full-data and subsampled fits of an ARMA(2,1) simulation, n = 1e5."""
    truth = dict(phi=(0.22, -0.1), theta=(0.5,), sigma2=1.0)
    ts = sm.demean(
        sm.simulate_arma(truth["phi"], truth["theta"], truth["sigma2"], 100_001, seed=2026)
    )
    model = sm.ModelSpec(2, 1)
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=model)
    prior = lambda v: sm.log_prior(model, v)
    mode = sm.find_mode(data, lambda v: sm.log_prior_derivatives(model, v), np.zeros(model.n_params))

    full = sm.run_full_chain(
        data, prior, sm.ChainSettings(iterations=20_000, burn_in=2_000, seed=101), mode
    )
    groups = sm.make_groups(data.n_freq, 500)
    cv = sm.build_taylor_cv(data, groups, mode.theta)
    m = max(2, round(0.01 * groups.n_groups))  # one percent of the groups
    pm = sm.run_pm_chain(
        data,
        groups,
        cv,
        prior,
        sm.ChainSettings(iterations=20_000, burn_in=2_000, seed=202, m=m, n_blocks=10),
        mode,
    )
    return dict(truth=truth, model=model, data=data, mode=mode, full=full, pm=pm)


@pytest.fixture(scope="module")
def tempered_fit():
    """Full-data and subsampled fits of tempered-memory noise, n_freq = 2e5."""
    ts = tempered_fractional_series([], [], 1.0, d=0.45, lam=0.045, n=400_001, seed=77)
    model = sm.ModelSpec(0, 0, fractional="artfima")
    data = sm.WhittleData(periodogram=sm.periodogram(sm.demean(ts)), model=model)
    prior = lambda v: sm.log_prior(model, v)
    mode = sm.find_mode(data, lambda v: sm.log_prior_derivatives(model, v), np.zeros(model.n_params))

    full = sm.run_full_chain(
        data, prior, sm.ChainSettings(iterations=3_000, burn_in=1_000, seed=11), mode
    )
    groups = sm.make_groups(data.n_freq, 1_000)
    cv = sm.build_taylor_cv(data, groups, mode.theta)
    m = max(2, round(0.01 * groups.n_groups))  # one percent of the groups
    pm = sm.run_pm_chain(
        data,
        groups,
        cv,
        prior,
        sm.ChainSettings(iterations=3_000, burn_in=1_000, seed=12, m=m, n_blocks=10),
        mode,
    )
    return dict(data=data, mode=mode, full=full, pm=pm)


def test_criterion_01_periodogram_matches_direct_dft():
    """FFT-based ordinates agree with an O(n^2) transform to 1e-8."""
    for n_time in (5, 16, 127, 128, 512):
        rng = np.random.default_rng(n_time)
        ts = sm.demean(sm.TimeSeries(rng.normal(size=n_time)))
        pgram = sm.periodogram(ts)
        t = np.arange(1, n_time + 1)
        worst = 0.0
        for k, omega in enumerate(pgram.grid.omegas):
            transform = np.sum(ts.values * np.exp(-1j * omega * t)) / np.sqrt(2.0 * np.pi)
            direct = (transform.real**2 + transform.imag**2) / n_time
            worst = max(worst, abs(direct - pgram.ordinates[k]))
        assert worst < 1e-8


def test_criterion_02_white_noise_ordinates_are_exponential():
    """Ordinates of Gaussian white noise are Exp(sigma2 / 2pi): KS at 1%."""
    ts = sm.demean(sm.simulate_arma([], [], 1.0, 2**16, seed=1))
    pgram = sm.periodogram(ts)
    scaled = 2.0 * np.pi * pgram.ordinates
    assert stats.kstest(scaled, "expon").pvalue > 0.01


def test_criterion_03_difference_estimator_is_unbiased():
    """Averaging ell_hat over every possible subsample returns the full sum."""
    ts = sm.demean(sm.simulate_arma([0.6], [], 1.0, 121, seed=9))
    model = sm.ModelSpec(1, 0)
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=model)
    groups = sm.make_groups(data.n_freq, 6)
    theta_star = np.zeros(2)
    theta = np.array([0.1, -0.2])
    wd = sm.WeightingDistribution(theta_star, 0.05 * np.eye(2))
    variates = (
        sm.ZeroCV(),
        sm.build_taylor_cv(data, groups, theta_star),
        sm.build_coreset_cv(data, groups, wd, m_iter=3, n_projections=64, seed=5),
    )
    full = sm.full_loglik(data, theta)
    for cv in variates:
        estimates = [
            sm.diff_estimator(
                data,
                groups,
                cv,
                theta,
                sm.SubsampleIndicators(u=np.array([i, j]), n_blocks=1, n_groups=6),
            ).ell_hat
            for i in range(6)
            for j in range(6)
        ]
        assert np.mean(estimates) == pytest.approx(full, rel=1e-10)


def test_criterion_04_exact_variate_reproduces_full_chain():
    """With an exact control variate the subsampled chain makes the same
    accept/reject decisions as the full chain over 1e4 iterations."""
    stub = make_quadratic_stub(np.random.default_rng(5), n_terms=60, dim=3)
    groups = sm.make_groups(60, 10)
    theta = stub.total_mode()
    mode = sm.ModeResult(
        theta=theta, hessian=stub.hessians.sum(axis=0), log_posterior=sm.full_loglik(stub, theta)
    )
    # exact per-group quadratic coefficients, no difference stencils involved
    cv = sm.TaylorCV(
        theta_star=stub.center,
        values=np.array([stub.consts[g].sum() for g in groups.groups]),
        grads=np.stack([stub.grads[g].sum(axis=0) for g in groups.groups]),
        hessians=np.stack([stub.hessians[g].sum(axis=0) for g in groups.groups]),
        setup_evals=60,
    )
    settings = sm.ChainSettings(iterations=10_000, burn_in=0, seed=42, m=4, n_blocks=2)
    full = sm.run_full_chain(stub, lambda v: 0.0, settings, mode)
    pm = sm.run_pm_chain(stub, groups, cv, lambda v: 0.0, settings, mode)
    np.testing.assert_array_equal(full.draws, pm.draws)
    assert full.acceptance_rate == pm.acceptance_rate


def test_criterion_05_subsampled_posterior_matches_full(arma21_fit):
    """Posterior means within 0.1 SD and SD ratios within [0.9, 1.1]."""
    full, pm = arma21_fit["full"], arma21_fit["pm"]
    mean_f, sd_f = full.draws.mean(axis=0), full.draws.std(axis=0, ddof=1)
    mean_s, sd_s = pm.draws.mean(axis=0), pm.draws.std(axis=0, ddof=1)
    gaps = np.abs(mean_s - mean_f) / sd_f
    ratios = sd_s / sd_f
    assert np.all(gaps < 0.1)
    assert np.all((0.9 <= ratios) & (ratios <= 1.1))


def test_full_chain_draws_as_with_the_summed_terms(arma21_fit, monkeypatch):
    """The moment-form likelihood leaves the full chain's draws as the summed kernel terms give them."""
    data, mode = arma21_fit["data"], arma21_fit["mode"]
    prior = lambda v: sm.log_prior(arma21_fit["model"], v)
    settings = sm.ChainSettings(iterations=2_000, burn_in=200, seed=101)
    moment = sm.run_full_chain(data, prior, settings, mode)
    monkeypatch.setattr(sm.sampler, "full_loglik", lambda data, theta: float(np.sum(data.terms(theta))))
    kernel = sm.run_full_chain(data, prior, settings, mode)
    np.testing.assert_array_equal(moment.draws, kernel.draws)
    assert moment.acceptance_rate == kernel.acceptance_rate
    np.testing.assert_allclose(moment.loglik_trace, kernel.loglik_trace, rtol=1e-13)


@pytest.mark.parametrize("fit", ["arma21_fit", "tempered_fit"])
def test_mode_search_agrees_with_the_per_frequency_pass(fit, request, monkeypatch):
    """The mode found on the quadrature lies within 1e-9 Laplace SD of the per-frequency search's,
    and its Hessian within 1e-12 of the largest entry."""
    data, mode = (request.getfixturevalue(fit)[key] for key in ("data", "mode"))
    monkeypatch.setattr(sm.sampler, "full_loglik_derivatives", lambda data, theta: data.loglik_derivatives(theta))
    exact = sm.find_mode(data, lambda v: sm.log_prior_derivatives(data.model, v), np.zeros(data.model.n_params))
    shift = np.linalg.cholesky(-exact.hessian).T @ (mode.theta - exact.theta)
    assert np.linalg.norm(shift) < 1e-9
    assert np.max(np.abs(mode.hessian - exact.hessian)) <= 1e-12 * np.max(np.abs(exact.hessian))


def test_criterion_06_arma21_parameters_recovered(arma21_fit):
    """Posterior means of the natural parameters within 0.05 of the truth."""
    model, truth = arma21_fit["model"], arma21_fit["truth"]
    rows = arma21_fit["full"].draws[::10]
    naturals = np.empty((len(rows), 4))
    for i, row in enumerate(rows):
        nat = sm.to_natural(model, row)
        naturals[i] = (*nat.phi, *nat.theta, nat.sigma2)
    target = np.array([*truth["phi"], *truth["theta"], truth["sigma2"]])
    np.testing.assert_allclose(naturals.mean(axis=0), target, atol=0.05)


def test_criterion_07_subsampling_cuts_computing_time(tempered_fit):
    """Relative computing time above 5 for every parameter at n_freq = 2e5."""
    report_full = sm.efficiency_report(tempered_fit["full"])
    report_pm = sm.efficiency_report(tempered_fit["pm"])
    rct = sm.relative_ct(report_pm, report_full)
    assert np.all(rct > 5.0)


def test_criterion_08_grouping_does_not_inflate_variance():
    """Grouped estimator variance is no worse than the ungrouped one at the
    same per-estimate cost (one-sided F comparison at 95%)."""
    ts = tempered_fractional_series([], [], 1.0, d=0.45, lam=0.045, n=2_001, seed=55)
    model = sm.ModelSpec(0, 0, fractional="artfima")
    data = sm.WhittleData(periodogram=sm.periodogram(sm.demean(ts)), model=model)
    prior = lambda v: sm.log_prior(model, v)
    mode = sm.find_mode(data, lambda v: sm.log_prior_derivatives(model, v), np.zeros(model.n_params))
    theta = mode.theta + np.sqrt(np.diag(mode.laplace_cov))

    grouped = sm.make_groups(data.n_freq, 100)
    single = sm.make_groups(data.n_freq, data.n_freq)
    cv_grouped = sm.build_taylor_cv(data, grouped, mode.theta)
    cv_single = sm.build_taylor_cv(data, single, mode.theta)

    reps = 10_000
    rng = np.random.default_rng(9)
    ell_grouped = np.empty(reps)
    ell_single = np.empty(reps)
    for r in range(reps):
        sub = sm.SubsampleIndicators(
            u=rng.integers(0, 100, size=10), n_blocks=1, n_groups=100
        )
        ell_grouped[r] = sm.diff_estimator(data, grouped, cv_grouped, theta, sub).ell_hat
    for r in range(reps):
        sub = sm.SubsampleIndicators(
            u=rng.integers(0, data.n_freq, size=100), n_blocks=1, n_groups=data.n_freq
        )
        ell_single[r] = sm.diff_estimator(data, single, cv_single, theta, sub).ell_hat
    bound = stats.f.ppf(0.95, reps - 1, reps - 1)
    assert ell_grouped.var(ddof=1) <= ell_single.var(ddof=1) * bound


def test_criterion_09_geodesic_ascent_properties():
    """Non-negative sparse weights, monotone alignment, exact recovery."""
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(40, 25)) + 0.5
    target = vectors.sum(axis=0)
    for budget in (1, 5, 15):
        result = sm.giga(vectors, target, m_iter=budget)
        assert np.all(result.weights >= 0)
        assert np.count_nonzero(result.weights) <= budget
        assert np.all(np.diff(result.alignments) >= -1e-12)
    v1 = np.array([3.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.5, 0.0])
    exact = sm.giga(np.stack([v1, v2]), v1 + v2, m_iter=2)
    np.testing.assert_allclose(exact.weights, [1.0, 1.0], atol=1e-12)


def test_criterion_10_inefficiency_factor_calibration():
    """IF of an AR(1) trace within 15% of theory; with B blocks the estimate
    sequence at fixed parameters decorrelates at rate 1/B."""
    trace = sm.simulate_arma([0.9], [], 1.0, 1_000_000, seed=4).values
    assert sm.inefficiency_factor(trace) == pytest.approx(19.0, rel=0.15)

    stub = make_quadratic_stub(np.random.default_rng(0), n_terms=100, dim=2)
    groups = sm.make_groups(100, 20)
    theta = stub.center + 0.3
    n_blocks = 10
    rng = np.random.default_rng(1)
    sub = sm.SubsampleIndicators(
        u=rng.integers(0, 20, size=100), n_blocks=n_blocks, n_groups=20
    )
    ells = np.empty(10_000)
    block = 0
    for t in range(ells.size):
        sub = sm.block_refresh(sub, block, rng)
        block = (block + 1) % n_blocks
        ells[t] = sm.diff_estimator(stub, groups, sm.ZeroCV(), theta, sub).ell_hat
    lag1 = np.corrcoef(ells[:-1], ells[1:])[0, 1]
    assert lag1 == pytest.approx(1.0 - 1.0 / n_blocks, abs=0.05)


def test_criterion_11_posterior_spectrum_matches_truth(arma21_fit):
    """Posterior-mean log-spectrum within 0.1 log units of the truth."""
    model, data, full = arma21_fit["model"], arma21_fit["data"], arma21_fit["full"]
    truth = arma21_fit["truth"]
    grid = data.periodogram.grid
    thin = full.draws[:: len(full.draws) // 400]
    mean_log = sm.posterior_mean_spectrum(thin, model, grid)
    true_nat = sm.NaturalParams(
        phi=np.asarray(truth["phi"]),
        theta=np.asarray(truth["theta"]),
        d=0.0,
        lambda_=None,
        sigma2=truth["sigma2"],
        sigma2_eps=None,
    )
    true_log = np.log(sm.spectral_density(model, true_nat, grid.omegas))
    assert np.max(np.abs(mean_log - true_log)) < 0.1
