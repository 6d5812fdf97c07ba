"""Subsample indicators, difference estimator, mode finding, and chains."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmcmc as sm
from specmcmc import sampler, whittle
from conftest import flat_prior, make_quadratic_stub


def make_sub(u, n_blocks, n_groups):
    return sm.SubsampleIndicators(u=np.asarray(u), n_blocks=n_blocks, n_groups=n_groups)


def test_block_bounds_cover_everything():
    sub = make_sub(np.zeros(10, dtype=int), 3, 4)
    bounds = [sub.block_bounds(b) for b in range(3)]
    assert bounds == [(0, 4), (4, 7), (7, 10)]


def test_block_bounds_allow_empty_blocks():
    # more blocks than picks: trailing blocks are empty but still addressable
    sub = make_sub([1, 3], 5, 4)
    bounds = [sub.block_bounds(b) for b in range(5)]
    assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2), (2, 2)]
    with pytest.raises(IndexError):
        sub.block_bounds(5)
    with pytest.raises(IndexError):
        sub.block_bounds(-1)


def test_block_refresh_touches_only_its_block():
    sub = make_sub(np.arange(9) % 4, 3, 4)
    rng = np.random.default_rng(0)
    new = sm.block_refresh(sub, 1, rng)
    np.testing.assert_array_equal(new.u[:3], sub.u[:3])
    np.testing.assert_array_equal(new.u[6:], sub.u[6:])
    assert np.all((new.u >= 0) & (new.u < 4))
    # refreshing an empty block is a no-op
    tiny = make_sub([2, 0], 5, 4)
    same = sm.block_refresh(tiny, 4, np.random.default_rng(1))
    np.testing.assert_array_equal(same.u, tiny.u)


def test_block_refresh_of_an_empty_block_returns_it_unchanged():
    tiny = make_sub([2, 0], 5, 4)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    assert sm.block_refresh(tiny, 3, rng) is tiny
    assert rng.bit_generator.state == state
    # a non-empty block draws as before
    assert sm.block_refresh(tiny, 0, rng) is not tiny
    assert rng.bit_generator.state != state


def test_indicator_validation():
    assert make_sub([0, 3, 3], 1, 4).u.tolist() == [0, 3, 3]
    with pytest.raises(ValueError):
        make_sub([[0, 1]], 1, 4)
    with pytest.raises(ValueError):
        make_sub([0, 2, 4], 1, 4)
    with pytest.raises(ValueError):
        make_sub([], 1, 4)
    with pytest.raises(ValueError):
        make_sub([4], 1, 4)
    with pytest.raises(ValueError):
        make_sub([-1], 1, 4)
    with pytest.raises(ValueError):
        make_sub([0], 0, 4)


def test_estimate_rejects_negative_variance():
    with pytest.raises(ValueError):
        sm.LogLikEstimate(ell_hat=0.0, sigma2_hat=-1e-9, density_evals=0)
    with pytest.raises(ValueError):
        sm.LogLikEstimate(ell_hat=0.0, sigma2_hat=np.nan, density_evals=0)


@pytest.fixture(scope="module")
def stub_and_groups():
    rng = np.random.default_rng(21)
    stub = make_quadratic_stub(rng, n_terms=36, dim=2)
    groups = sm.make_groups(36, 6)
    return stub, groups


def all_cvs(stub, groups):
    wd = sm.WeightingDistribution(stub.center, 0.05 * np.eye(stub.dim))
    return (
        sm.ZeroCV(),
        sm.build_taylor_cv(stub, groups, stub.center),
        sm.build_coreset_cv(stub, groups, wd, m_iter=3, n_projections=50, seed=7),
    )


def test_diff_estimator_exact_when_every_group_sampled_once(stub_and_groups):
    stub, groups = stub_and_groups
    theta = stub.center + np.array([0.2, -0.4])
    full = sm.full_loglik(stub, theta)
    sub = make_sub(np.arange(6), 1, 6)
    for cv in all_cvs(stub, groups):
        est = sm.diff_estimator(stub, groups, cv, theta, sub)
        assert est.ell_hat == pytest.approx(full, rel=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 30))
def test_diff_estimator_unbiased_over_all_subsamples(seed, n_groups, extra_terms):
    # with G groups and m = 2 there are G^2 equally likely index vectors;
    # averaging ell_hat over all of them must return the full log-likelihood
    # exactly, whatever control variate is plugged in
    stub = make_quadratic_stub(np.random.default_rng(seed), n_terms=n_groups + extra_terms, dim=2)
    groups = sm.make_groups(stub.n_freq, n_groups)
    theta = stub.center + np.array([-0.3, 0.1])
    full = sm.full_loglik(stub, theta)
    # the terms can cancel to a sum near zero, so rounding is measured
    # against the sum of their magnitudes
    scale = np.abs(stub.terms(theta)).sum()
    for cv in all_cvs(stub, groups):
        estimates = []
        for i in range(n_groups):
            for j in range(n_groups):
                sub = make_sub([i, j], 1, n_groups)
                est = sm.diff_estimator(stub, groups, cv, theta, sub)
                # the picked groups' members gathered one group array at a
                # time and summed per group give the same bits
                members = [groups.groups[k] for k in sub.u]
                bounds = np.cumsum([0] + [idx.size for idx in members])
                ell_groups = np.add.reduceat(stub.terms(theta, np.concatenate(members)), bounds[:-1])
                diffs = ell_groups - cv.group_values(stub, theta, sub.u)
                assert est.ell_hat == cv.total(stub, theta) + n_groups * float(diffs.mean())
                assert est.sigma2_hat == n_groups**2 * float(diffs.var(ddof=1)) / 2
                estimates.append(est.ell_hat)
        assert np.mean(estimates) == pytest.approx(full, rel=1e-10, abs=1e-10 * scale)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=300), st.floats(-2.0, 2.0))
def test_diff_estimator_moments_are_numpys_bit_for_bit(stub_and_groups, picks, shift):
    # m on both sides of the lengths where numpy's summation order changes
    stub, groups = stub_and_groups
    theta = stub.center + shift
    sub = make_sub(picks, 3, 6)
    indices, starts = groups.members(sub.u)
    ell_groups = np.add.reduceat(stub.terms(theta, indices), starts)
    for cv in all_cvs(stub, groups):
        diffs = ell_groups - cv.group_values(stub, theta, sub.u)
        est = sm.diff_estimator(stub, groups, cv, theta, sub)
        assert est.ell_hat == cv.total(stub, theta) + 6 * float(diffs.mean())
        assert est.sigma2_hat == 36 * float(diffs.var(ddof=1)) / len(picks)


def test_diff_estimator_variance_hand_check(stub_and_groups):
    stub, groups = stub_and_groups
    theta = stub.center + 0.25
    sub = make_sub([0, 4, 2], 1, 6)
    est = sm.diff_estimator(stub, groups, sm.ZeroCV(), theta, sub)
    ells = np.array([np.sum(stub.terms(theta, groups.groups[k])) for k in (0, 4, 2)])
    assert est.ell_hat == pytest.approx(6 * ells.mean(), rel=1e-12)
    assert est.sigma2_hat == pytest.approx(36 * ells.var(ddof=1) / 3, rel=1e-12)


def test_diff_estimator_needs_two_picks(stub_and_groups):
    stub, groups = stub_and_groups
    with pytest.raises(ValueError):
        sm.diff_estimator(stub, groups, sm.ZeroCV(), stub.center, make_sub([0], 1, 6))


def test_diff_estimator_eval_accounting(stub_and_groups):
    stub, groups = stub_and_groups
    sub = make_sub([1, 1, 5], 1, 6)
    sampled = sum(groups.groups[k].size for k in (1, 1, 5))
    for cv in all_cvs(stub, groups):
        est = sm.diff_estimator(stub, groups, cv, stub.center, sub)
        assert est.density_evals == sampled + cv.eval_cost


@pytest.mark.parametrize("bad", [-np.inf, np.nan])
def test_diff_estimator_non_finite_terms_give_minus_inf(stub_and_groups, bad):
    # variates built on finite data, evaluated on data whose terms are all
    # -inf or NaN: a clean -inf log target, without a RuntimeWarning
    stub, groups = stub_and_groups
    broken = dataclasses.replace(stub, consts=np.full(stub.n_freq, bad))
    sub = make_sub([1, 1, 5], 1, 6)
    for cv in all_cvs(stub, groups):
        est = sm.diff_estimator(broken, groups, cv, stub.center, sub)
        assert est.ell_hat == -np.inf
        assert est.sigma2_hat == np.inf
        assert est.ell_hat - 0.5 * est.sigma2_hat == -np.inf
        assert est.density_evals == sm.diff_estimator(stub, groups, cv, stub.center, sub).density_evals


def test_find_mode_white_noise_closed_form():
    # flat prior: the optimum of the log-likelihood in log sigma2 is
    # log(2 pi * mean ordinate), with curvature -n_freq there
    ts = sm.demean(sm.simulate_arma([], [], 1.3, 2049, seed=8))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(0, 0))
    mode = sm.find_mode(data, flat_prior, np.zeros(1))
    expected = np.log(2 * np.pi * data.periodogram.ordinates.mean())
    assert mode.theta[0] == pytest.approx(expected, abs=1e-6)
    assert mode.hessian[0, 0] == pytest.approx(-data.n_freq, rel=1e-4)
    assert mode.log_posterior == pytest.approx(sm.full_loglik(data, mode.theta), rel=1e-12)
    np.testing.assert_allclose(mode.laplace_cov, np.linalg.inv(-mode.hessian))


def test_find_mode_rejects_flat_objective():
    rng = np.random.default_rng(3)
    stub = make_quadratic_stub(rng, n_terms=10, dim=2)
    flat = type(stub)(
        consts=stub.consts,
        grads=np.zeros_like(stub.grads),
        hessians=np.zeros_like(stub.hessians),
        center=stub.center,
    )
    with pytest.raises(ValueError, match="negative definite"):
        sm.find_mode(flat, flat_prior, stub.center)


def test_find_mode_refuses_an_ill_conditioned_mode():
    # an all-zero periodogram: -sum log f and the flat-on-PACF prior cancel
    # along the AR coordinate, whose curvature at the mode, about -1e-12, is
    # negative only by rounding; Cholesky accepts it, the condition bound not
    spec = sm.ModelSpec(1, 0)
    zeros = sm.Periodogram(sm.FrequencyGrid(200), np.zeros(99))
    data = sm.WhittleData(periodogram=zeros, model=spec)
    with pytest.raises(ValueError, match=r"ill-conditioned: cond\(-H\) = .* > 1e\+10"):
        sm.find_mode(data, lambda v: sm.log_prior_derivatives(spec, v), np.zeros(spec.n_params))


def quad_mode(stub):
    theta = stub.total_mode()
    hessian = stub.hessians.sum(axis=0)
    return sm.ModeResult(
        theta=theta, hessian=hessian, log_posterior=sm.full_loglik(stub, theta)
    )


def test_full_chain_reproducible(stub_and_groups):
    stub, _ = stub_and_groups
    mode = quad_mode(stub)
    settings = sm.ChainSettings(iterations=200, burn_in=50, seed=4)
    a = sm.run_full_chain(stub, lambda v: 0.0, settings, mode)
    b = sm.run_full_chain(stub, lambda v: 0.0, settings, mode)
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate
    other = sm.run_full_chain(
        stub, lambda v: 0.0, sm.ChainSettings(iterations=200, burn_in=50, seed=5), mode
    )
    assert not np.array_equal(a.draws, other.draws)


def test_full_chain_eval_accounting(stub_and_groups):
    stub, _ = stub_and_groups
    settings = sm.ChainSettings(iterations=40, burn_in=10, seed=0)
    out = sm.run_full_chain(stub, lambda v: 0.0, settings, quad_mode(stub))
    assert out.density_evals == stub.n_freq * (1 + 50)
    assert out.draws.shape == (40, stub.dim)
    assert out.loglik_trace.shape == (40,)


def test_full_chain_recovers_gaussian_target(stub_and_groups):
    # the stub's log-likelihood is exactly quadratic, so with a flat prior
    # the chain targets a known Gaussian; check its first two moments
    stub, _ = stub_and_groups
    mode = quad_mode(stub)
    settings = sm.ChainSettings(iterations=40_000, burn_in=2_000, seed=9)
    out = sm.run_full_chain(stub, lambda v: 0.0, settings, mode)
    target_cov = stub.total_cov()
    sd = np.sqrt(np.diag(target_cov))
    assert 0.1 < out.acceptance_rate < 0.6
    np.testing.assert_allclose(out.draws.mean(axis=0), stub.total_mode(), atol=0.1 * sd.max())
    np.testing.assert_allclose(np.cov(out.draws.T), target_cov, rtol=0.15, atol=0.01)


def test_chain_targets_the_variance_corrected_estimate():
    # ell_hat = 0 with sigma2_hat = theta.theta makes the corrected log target
    # -theta.theta / 2, so the chain must sample N(0, I): a wrong sign has no
    # stationary law and a wrong factor gives the wrong covariance
    dim = 2
    mode = sm.ModeResult(theta=np.ones(dim), hessian=-np.eye(dim), log_posterior=0.0)
    out = sampler._metropolis(
        None,
        lambda v: 0.0,
        sm.ChainSettings(iterations=40_000, burn_in=2_000, seed=13),
        mode,
        estimate=lambda theta, sub: sm.LogLikEstimate(0.0, float(theta @ theta), 0),
        start=lambda rng: None,
        refresh=lambda sub, block, rng: sub,
        setup_evals=0,
    )
    np.testing.assert_allclose(out.draws.mean(axis=0), np.zeros(dim), atol=0.1)
    np.testing.assert_allclose(np.cov(out.draws.T), np.eye(dim), atol=0.1)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 8))
def test_pm_chain_with_exact_variate_matches_full_chain(stub_and_groups, seed, m, n_blocks):
    # exact per-group quadratic coefficients (no difference stencils) make
    # every difference vanish up to rounding, so the subsampled chain makes
    # the same decisions as the full chain run from the same seed, for any
    # number of picks and blocks
    stub, groups = stub_and_groups
    mode = quad_mode(stub)
    cv = sm.TaylorCV(
        theta_star=stub.center,
        values=np.array([stub.consts[g].sum() for g in groups.groups]),
        grads=np.stack([stub.grads[g].sum(axis=0) for g in groups.groups]),
        hessians=np.stack([stub.hessians[g].sum(axis=0) for g in groups.groups]),
        setup_evals=stub.n_freq,
    )
    settings = sm.ChainSettings(iterations=400, burn_in=100, seed=seed, m=m, n_blocks=n_blocks)
    full = sm.run_full_chain(stub, lambda v: 0.0, settings, mode)
    pm = sm.run_pm_chain(stub, groups, cv, lambda v: 0.0, settings, mode)
    np.testing.assert_array_equal(full.draws, pm.draws)
    assert full.acceptance_rate == pm.acceptance_rate
    np.testing.assert_allclose(pm.loglik_trace, full.loglik_trace, rtol=1e-10)


def test_pm_chain_reproducible(stub_and_groups):
    stub, groups = stub_and_groups
    mode = quad_mode(stub)
    settings = sm.ChainSettings(iterations=300, burn_in=50, seed=2, m=4, n_blocks=2)
    a = sm.run_pm_chain(stub, groups, sm.ZeroCV(), lambda v: 0.0, settings, mode)
    b = sm.run_pm_chain(stub, groups, sm.ZeroCV(), lambda v: 0.0, settings, mode)
    np.testing.assert_array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)


def test_pm_chain_allows_more_blocks_than_picks(stub_and_groups):
    stub, groups = stub_and_groups
    mode = quad_mode(stub)
    settings = sm.ChainSettings(iterations=200, burn_in=20, seed=6, m=2, n_blocks=7)
    out = sm.run_pm_chain(stub, groups, sm.ZeroCV(), lambda v: 0.0, settings, mode)
    assert out.draws.shape == (200, stub.dim)
    assert np.isfinite(out.loglik_trace).all()


def test_pm_chain_eval_accounting(stub_and_groups):
    stub, groups = stub_and_groups
    mode = quad_mode(stub)
    group_size = groups.groups[0].size
    settings = sm.ChainSettings(iterations=30, burn_in=10, seed=1, m=3, n_blocks=1)

    plain = sm.run_pm_chain(stub, groups, sm.ZeroCV(), lambda v: 0.0, settings, mode)
    assert plain.density_evals == (1 + 40) * 3 * group_size

    taylor = sm.build_taylor_cv(stub, groups, mode.theta)
    with_taylor = sm.run_pm_chain(stub, groups, taylor, lambda v: 0.0, settings, mode)
    assert with_taylor.density_evals == taylor.setup_evals + (1 + 40) * 3 * group_size

    wd = sm.WeightingDistribution(mode.theta, mode.laplace_cov)
    coreset = sm.build_coreset_cv(stub, groups, wd, m_iter=3, n_projections=40, seed=3)
    with_coreset = sm.run_pm_chain(stub, groups, coreset, lambda v: 0.0, settings, mode)
    per_iter = 3 * group_size + coreset.eval_cost
    assert with_coreset.density_evals == coreset.setup_evals + (1 + 40) * per_iter


def test_the_mode_search_builds_only_the_first_moment_chunk(arma11_data, monkeypatch):
    # the mode search's quadrature reads the periodogram's cosine moments up to
    # M/2 = 2L, inside the table's first chunk (shortened here, as n_freq is
    # 2000); the Taylor variate and the subsampled chain never grow the table,
    # and the full chain is still charged n_freq evaluations per estimate
    monkeypatch.setattr(whittle, "_FIRST_MOMENTS", 256)
    fixture, log_prior_fn, mode = arma11_data
    data = sm.WhittleData(periodogram=fixture.periodogram, model=fixture.model)
    sm.find_mode(data, lambda v: sm.log_prior_derivatives(data.model, v), mode.theta)
    assert data._grids and data._moments.size == 256
    groups = sm.make_groups(data.n_freq, 20)
    settings = sm.ChainSettings(iterations=30, burn_in=10, seed=1, m=3, n_blocks=1)
    sm.run_pm_chain(data, groups, sm.build_taylor_cv(data, groups, mode.theta), log_prior_fn, settings, mode)
    assert data._moments.size == 256
    full = sm.run_full_chain(data, log_prior_fn, settings, mode)
    assert full.density_evals == (1 + 40) * data.n_freq


def test_chain_settings_validation():
    with pytest.raises(ValueError):
        sm.ChainSettings(iterations=0)
    with pytest.raises(ValueError):
        sm.ChainSettings(burn_in=-1)
    with pytest.raises(ValueError):
        sm.ChainSettings(m=1)
    with pytest.raises(ValueError):
        sm.ChainSettings(n_blocks=0)
    with pytest.raises(ValueError):
        sm.ChainSettings(proposal_scale=0.0)


def test_param_names_fall_back_to_positions(stub_and_groups):
    stub, _ = stub_and_groups
    settings = sm.ChainSettings(iterations=5, burn_in=0, seed=0)
    out = sm.run_full_chain(stub, lambda v: 0.0, settings, quad_mode(stub))
    assert out.param_names == ("x0", "x1")


class InfOutsideRange:
    """Whittle data whose terms are -inf wherever the parameter map fails."""

    def __init__(self, data):
        self.data = data
        self.n_freq = data.n_freq
        self.out_of_range = 0

    def terms(self, theta, indices=None):
        try:
            return self.data.terms(theta, indices)
        except sm.ParameterRangeError:
            self.out_of_range += 1
            return np.full(self.n_freq if indices is None else len(indices), -np.inf)


class CountsInfiniteTerms:
    """Whittle data that counts evaluations whose terms hold -inf."""

    def __init__(self, data):
        self.data, self.model, self.n_freq = data, data.model, data.n_freq
        self.infinite = 0

    def terms(self, theta, indices=None):
        out = self.data.terms(theta, indices)
        self.infinite += bool(np.any(out == -np.inf))
        return out


def test_chains_reject_out_of_range_proposals():
    # a proposal sd in the thousands sends log sigma2 past +-709, where exp
    # leaves the float range; such proposals are rejected, not fatal
    ts = sm.demean(sm.simulate_arma([], [], 1.0, 257, seed=5))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(0, 0))
    mode = sm.ModeResult(theta=np.zeros(1), hessian=np.array([[-1e-6]]), log_posterior=0.0)
    settings = sm.ChainSettings(iterations=150, burn_in=50, seed=3, m=4, n_blocks=2)
    full = sm.run_full_chain(data, lambda v: 0.0, settings, mode)
    assert np.all(np.abs(full.draws) < 709.0)
    # the rejection draws its acceptance uniform like any other, so the chain
    # matches one whose likelihood is -inf out there
    inf_data = InfOutsideRange(data)
    reference = sm.run_full_chain(inf_data, lambda v: 0.0, settings, mode)
    assert inf_data.out_of_range > 10
    np.testing.assert_array_equal(full.draws, reference.draws)
    assert full.acceptance_rate == reference.acceptance_rate
    assert full.density_evals == data.n_freq * (1 + 200 - inf_data.out_of_range)

    groups = sm.make_groups(data.n_freq, 8)
    pm = sm.run_pm_chain(data, groups, sm.ZeroCV(), lambda v: 0.0, settings, mode)
    again = sm.run_pm_chain(data, groups, sm.ZeroCV(), lambda v: 0.0, settings, mode)
    np.testing.assert_array_equal(pm.draws, again.draws)
    assert np.all(np.abs(pm.draws) < 709.0) and np.all(np.isfinite(pm.loglik_trace))

    # ARTFIMA with d in the hundreds: exp(d log T) leaves the float range, the
    # log target is -inf and the proposal is rejected, with no warning but the
    # overflow the chains silence (warnings are errors here)
    data = sm.WhittleData(periodogram=data.periodogram, model=sm.ModelSpec(0, 0, fractional="artfima"))
    with np.errstate(over="ignore"):
        for d in (800.0, -800.0):
            assert sm.full_loglik(data, np.array([d, -3.0, 0.0])) == -np.inf
    # proposal sd about 800 in d only, around lambda = exp(-3)
    hessian = np.diag([-1.0 / 600.0**2, -1e8, -1e8])
    mode = sm.ModeResult(theta=np.array([0.0, -3.0, 0.0]), hessian=hessian, log_posterior=0.0)
    counted = CountsInfiniteTerms(data)
    full = sm.run_full_chain(counted, lambda v: 0.0, settings, mode)
    assert counted.infinite > 10
    # |d| beyond about 120 overflows, so no such draw is ever accepted
    assert np.all(np.abs(full.draws[:, 0]) < 120.0) and np.all(np.isfinite(full.loglik_trace))
    counted.infinite = 0
    pm = sm.run_pm_chain(counted, sm.make_groups(data.n_freq, 8), sm.ZeroCV(), lambda v: 0.0, settings, mode)
    assert counted.infinite > 10
    assert np.all(np.abs(pm.draws[:, 0]) < 120.0) and np.all(np.isfinite(pm.loglik_trace))



def test_find_mode_from_a_far_start(arma11_data):
    # log sigma2 = 705 is near the top of the range of exp; the search from
    # there ends at the mode found from zero
    data, _, mode = arma11_data
    prior = lambda v: sm.log_prior_derivatives(data.model, v)
    far = sm.find_mode(data, prior, np.array([0.0, 0.0, 705.0]))
    sd = np.sqrt(np.diag(mode.laplace_cov))
    assert np.all(np.abs(far.theta - mode.theta) < 1e-3 * sd)
    assert far.log_posterior == pytest.approx(mode.log_posterior, rel=1e-12)


@dataclasses.dataclass(frozen=True)
class Walled:
    """Data whose first coordinate is out of range below ``wall``."""

    data: object
    wall: float
    hits: list = dataclasses.field(default_factory=list)

    def __getattr__(self, name):
        return getattr(self.data, name)

    def loglik_derivatives(self, theta):
        if theta[0] < self.wall:
            self.hits.append(theta.copy())
            raise sm.ParameterRangeError("past the wall")
        return self.data.loglik_derivatives(theta)


def test_find_mode_backs_off_from_out_of_range_trial_points():
    # white noise, flat prior: in u = log sigma2 - mode the log-likelihood is
    # -n_freq (u + exp(-u)) + const, so from above the mode a Newton step
    # overshoots it.  From u = 2 the first step is cut to the trust radius,
    # 1, and lands at u = 1; the radius doubles, and Newton's step from
    # there, to u = 1 - (e - 1) = -0.72, is a trial point past the wall at
    # u = -0.1, which is +inf for the minimizer instead of ending the search
    ts = sm.demean(sm.simulate_arma([], [], 1.3, 2049, seed=8))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(0, 0))
    expected = np.log(2 * np.pi * data.periodogram.ordinates.mean())
    walled = Walled(data, wall=expected - 0.1)
    mode = sm.find_mode(walled, flat_prior, np.array([expected + 2.0]))
    assert walled.hits
    assert mode.theta[0] == pytest.approx(expected, abs=1e-8)


def test_full_chain_rejects_overflowing_proposals_without_warning():
    # at proposal scale 1e8 some proposals put log sigma2 just below +709,
    # where exp is finite but the density overflows to inf; their log target
    # is -inf, and the suite's RuntimeWarning filter would turn a warning
    # from that overflow into an error
    spec = sm.ModelSpec(1, 0)
    ts = sm.demean(sm.simulate_arma([0.4], [], 1.0, 512, seed=11))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=spec)
    log_prior_fn = lambda v: sm.log_prior(spec, v)
    mode = sm.find_mode(data, lambda v: sm.log_prior_derivatives(spec, v), np.zeros(2))
    settings = sm.ChainSettings(iterations=400, burn_in=100, seed=11, proposal_scale=1e8)
    out = sm.run_full_chain(data, log_prior_fn, settings, mode)
    assert np.all(np.isfinite(out.draws)) and np.all(np.isfinite(out.loglik_trace))
