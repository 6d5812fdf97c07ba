"""Grouping, Taylor and coreset control variates, and geodesic ascent."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import specmcmc as sm
from conftest import QuadraticTerms, make_quadratic_stub


def group_slice(cv, k) -> slice:
    """Where group k of a coreset variate sits in its flat indices and weights."""
    return slice(cv.offsets[k], cv.offsets[k + 1])


def test_make_groups_strides():
    groups = sm.make_groups(10, 3)
    np.testing.assert_array_equal(groups.groups[0], [0, 3, 6, 9])
    np.testing.assert_array_equal(groups.groups[1], [1, 4, 7])
    np.testing.assert_array_equal(groups.groups[2], [2, 5, 8])


def test_make_groups_reference_sizes():
    groups = sm.make_groups(22_000, 1_000)
    assert groups.n_groups == 1_000
    assert all(g.size == 22 for g in groups.groups)
    np.testing.assert_array_equal(groups.groups[0], np.arange(0, 22_000, 1_000))


@given(st.integers(1, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_make_groups_remainder_goes_to_leading_groups(sizes):
    n_freq, n_groups = sizes
    groups = sm.make_groups(n_freq, n_groups)
    assert groups.n_groups == n_groups
    # every frequency appears exactly once
    np.testing.assert_array_equal(np.sort(np.concatenate(groups.groups)), np.arange(n_freq))
    # sizes differ by at most one and the larger groups come first
    lengths = [g.size for g in groups.groups]
    assert max(lengths) - min(lengths) <= 1
    assert lengths == sorted(lengths, reverse=True)


def test_make_groups_validation():
    with pytest.raises(ValueError):
        sm.make_groups(10, 0)
    with pytest.raises(ValueError):
        sm.make_groups(10, 11)
    for n_freq, n_groups in ((10, 0), (10, -1), (10, 11), (0, 0), (0, 1)):
        with pytest.raises(ValueError, match="n_groups"):
            sm.GroupIndex(n_freq, n_groups)


def test_taylor_cv_exact_on_quadratic():
    rng = np.random.default_rng(0)
    stub = make_quadratic_stub(rng, n_terms=30, dim=3)
    groups = sm.make_groups(30, 6)
    theta_star = stub.center + 0.05
    cv = sm.build_taylor_cv(stub, groups, theta_star)
    theta = theta_star + rng.normal(scale=0.5, size=3)
    # the gradient of a quadratic is linear, so its central difference is
    # exact up to roundoff and so is the expansion
    for k in range(6):
        exact = np.sum(stub.terms(theta, groups.groups[k]))
        assert cv.group_values(stub, theta, [k])[0] == pytest.approx(exact, rel=1e-9, abs=1e-9)
    assert cv.total(stub, theta) == pytest.approx(
        sm.full_loglik(stub, theta), rel=1e-9, abs=1e-9
    )
    assert cv.setup_evals == 30
    assert cv.eval_cost == 0


def test_taylor_total_equals_sum_of_groups():
    rng = np.random.default_rng(1)
    stub = make_quadratic_stub(rng, n_terms=24, dim=2)
    groups = sm.make_groups(24, 8)
    cv = sm.build_taylor_cv(stub, groups, stub.center)
    theta = stub.center + np.array([0.3, -0.7])
    total = sum(cv.group_values(stub, theta, [k])[0] for k in range(8))
    assert cv.total(stub, theta) == pytest.approx(total, rel=1e-10)


def test_laplace_weighting_matches_curvature():
    hessian = -np.array([[2.0, 0.3], [0.3, 1.0]])
    mode = np.array([0.5, -1.0])
    wd = sm.laplace_weighting(mode, hessian)
    np.testing.assert_allclose(wd.cov, np.linalg.inv(-hessian))


def test_laplace_weighting_rejects_indefinite():
    with pytest.raises(ValueError, match="negative definite"):
        sm.laplace_weighting(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_weighting_sample_moments():
    wd = sm.WeightingDistribution(np.array([1.0, -2.0]), np.array([[1.5, 0.4], [0.4, 0.5]]))
    rng = np.random.default_rng(6)
    draws = wd.sample(rng, 40_000)
    np.testing.assert_allclose(draws.mean(axis=0), wd.mean, atol=0.03)
    np.testing.assert_allclose(np.cov(draws.T), wd.cov, atol=0.03)


def test_project_group_deterministic_and_centered():
    rng = np.random.default_rng(2)
    stub = make_quadratic_stub(rng, n_terms=20, dim=2)
    wd = sm.WeightingDistribution(stub.center, 0.05 * np.eye(2))
    idx = np.arange(5)
    a = sm.project_group(stub, idx, wd, 64, seed=9)
    b = sm.project_group(stub, idx, wd, 64, seed=9)
    c = sm.project_group(stub, idx, wd, 64, seed=10)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)
    np.testing.assert_allclose(a.vectors.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_array_equal(a.target, a.vectors.sum(axis=0))


def test_project_group_redraws_out_of_range_draws():
    # a variance of 1e6 on log sigma2 sends about half the weighting draws
    # past +-709, where exp leaves the float range; like draws with
    # non-finite terms they are redrawn, not fatal
    ts = sm.demean(sm.simulate_arma([], [], 1.0, 257, seed=5))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(0, 0))
    wd = sm.WeightingDistribution(np.zeros(1), np.array([[1e6]]))
    idx = np.arange(0, data.n_freq, 4)
    # in-range draws near log sigma2 = -709 make terms overflow, which some
    # of these seeds meet; those are redrawn too, without a warning
    for seed in range(300):
        proj = sm.project_group(data, idx, wd, 20, seed=seed)
        assert np.isfinite(proj.vectors).all() and np.isfinite(proj.means).all()
    again = sm.project_group(data, idx, wd, 20, seed=299)
    np.testing.assert_array_equal(proj.vectors, again.vectors)
    # without redraws the first round's out-of-range draws are an error
    with pytest.raises(ValueError, match="non-finite"):
        sm.project_group(data, idx, wd, 20, seed=1, max_rounds=0)


def test_projection_norm_estimates_term_variance():
    # For white noise with parameter t = log sigma2 ~ N(0, tau2), the
    # per-frequency term is -(t - log 2pi + c exp(-t)) with c = 2 pi I_k, so
    # its variance has the closed form
    #   tau2 + c^2 (e^{tau2} - 1) e^{tau2} - 2 c tau2 e^{tau2 / 2}
    # using lognormal moments.  <v_i, v_i> should estimate exactly that.
    ts = sm.demean(sm.simulate_arma([], [], 1.0, 513, seed=3))
    data = sm.WhittleData(periodogram=sm.periodogram(ts), model=sm.ModelSpec(0, 0))
    tau2 = 0.04
    wd = sm.WeightingDistribution(np.zeros(1), np.array([[tau2]]))
    idx = np.arange(4)
    proj = sm.project_group(data, idx, wd, 20_000, seed=4)
    plug_in = np.sum(proj.vectors**2, axis=1)

    c = 2.0 * np.pi * data.periodogram.ordinates[idx]
    exact = tau2 + c**2 * np.expm1(tau2) * np.exp(tau2) - 2.0 * c * tau2 * np.exp(tau2 / 2)
    np.testing.assert_allclose(plug_in, exact, rtol=0.1)


def test_giga_single_atom_recovers_target():
    target = np.array([1.0, 2.0, -0.5])
    result = sm.giga(target[None, :] * 2.0, target, m_iter=3)
    np.testing.assert_allclose(result.weights, [0.5], atol=1e-12)
    assert result.alignments[-1] == pytest.approx(1.0)
    assert result.errors[-1] == pytest.approx(0.0, abs=1e-7)


def test_giga_one_iteration_selects_best_aligned():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(10, 6))
    target = vectors.sum(axis=0)
    result = sm.giga(vectors, target, m_iter=1)
    assert np.count_nonzero(result.weights) == 1
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    best = int(np.argmax(unit @ (target / np.linalg.norm(target))))
    assert result.weights[best] > 0


def test_giga_two_orthogonal_atoms_exact():
    v1 = np.array([3.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.5, 0.0])
    result = sm.giga(np.stack([v1, v2]), v1 + v2, m_iter=2)
    np.testing.assert_allclose(result.weights, [1.0, 1.0], atol=1e-12)
    assert result.errors[-1] == pytest.approx(0.0, abs=1e-12)


def test_giga_monotone_and_sparse():
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(40, 25)) + 0.5
    target = vectors.sum(axis=0)
    for budget in (1, 3, 10, 60):
        result = sm.giga(vectors, target, m_iter=budget)
        assert np.all(result.weights >= 0)
        assert np.count_nonzero(result.weights) <= budget
        assert np.all(np.diff(result.alignments) >= -1e-12)
        assert np.all(np.diff(result.errors) <= 1e-12)
    generous = sm.giga(vectors, target, m_iter=120)
    single = sm.giga(vectors, target, m_iter=1)
    assert generous.errors[-1] <= single.errors[-1]


@pytest.mark.parametrize(
    "vectors, target, weights, alignment",
    [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], 1.0),
        ([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]], [1.0, 1.0], [1.0, 0.0, 0.0], np.sqrt(0.5)),
        ([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], [1.0, 0.0], np.sqrt(0.5)),
    ],
    ids=["target_is_an_atom", "parallel_atoms", "opposed_atom"],
)
def test_giga_stops_at_its_first_pick(vectors, target, weights, alignment):
    # after the first pick the residual vanishes, the other atoms are parallel
    # to it and cannot turn the direction, or they point away from the
    # residual: the fit stays at that one atom, whatever the budget
    result = sm.giga(np.array(vectors), np.array(target), m_iter=5)
    np.testing.assert_allclose(result.weights, weights, rtol=0, atol=1e-15)
    np.testing.assert_allclose(result.alignments, [alignment])


def test_giga_rejects_degenerate_input():
    good = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        sm.giga(np.array([[0.0, 0.0]]), np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        sm.giga(good, np.zeros(2), 1)
    with pytest.raises(ValueError):
        sm.giga(good, np.array([1.0, 0.0]), 0)


def test_build_coreset_respects_budget_and_seed():
    rng = np.random.default_rng(9)
    stub = make_quadratic_stub(rng, n_terms=60, dim=2)
    groups = sm.make_groups(60, 6)
    wd = sm.WeightingDistribution(stub.center, 0.1 * np.eye(2))
    cv = sm.build_coreset_cv(stub, groups, wd, m_iter=4, n_projections=50, seed=12)
    again = sm.build_coreset_cv(stub, groups, wd, m_iter=4, n_projections=50, seed=12)
    for k in range(6):
        part, part_again = group_slice(cv, k), group_slice(again, k)
        assert cv.weights[part].size <= 4
        assert np.all(cv.weights[part] >= 0)
        assert np.all(np.isin(cv.indices[part], groups.groups[k]))
        np.testing.assert_array_equal(cv.weights[part], again.weights[part_again])
        np.testing.assert_array_equal(cv.indices[part], again.indices[part_again])
    assert cv.setup_evals == 4 * 60


def constant_atoms_coreset():
    """A quadratic stub whose terms 0, 4, 8 are constant, and its coreset over 4 strided groups.

    Group 0 holds exactly the constant terms, so it retains no frequency.
    """
    rng = np.random.default_rng(14)
    stub = make_quadratic_stub(rng, n_terms=12, dim=2)
    grads = stub.grads.copy()
    hessians = stub.hessians.copy()
    grads[::4] = 0.0
    hessians[::4] = 0.0
    flat = QuadraticTerms(
        consts=stub.consts.copy(), grads=grads, hessians=hessians, center=stub.center
    )
    groups = sm.make_groups(12, 4)
    wd = sm.WeightingDistribution(stub.center, 0.05 * np.eye(2))
    cv = sm.build_coreset_cv(flat, groups, wd, m_iter=3, n_projections=40, seed=5)
    return stub, flat, groups, cv


def test_coreset_constant_atoms_become_constants():
    # Terms with zero gradient and Hessian are constant under any weighting
    # draw: they must be folded into the additive constant, never selected.
    # Group 0 of the strided partition consists entirely of such terms here,
    # so its surrogate is the exact constant with no retained frequencies.
    stub, flat, groups, cv = constant_atoms_coreset()
    assert cv.indices[group_slice(cv, 0)].size == 0
    theta = stub.center + 0.3
    exact_flat_group = np.sum(flat.terms(theta, groups.groups[0]))
    assert cv.group_values(flat, theta, [0])[0] == pytest.approx(exact_flat_group, rel=1e-12)
    for k in range(1, 4):
        assert not np.any(cv.indices[group_slice(cv, k)] % 4 == 0)


def test_coreset_total_is_sum_of_groups():
    rng = np.random.default_rng(15)
    stub = make_quadratic_stub(rng, n_terms=40, dim=2)
    groups = sm.make_groups(40, 8)
    wd = sm.WeightingDistribution(stub.center, 0.05 * np.eye(2))
    cv = sm.build_coreset_cv(stub, groups, wd, m_iter=5, n_projections=60, seed=1)
    theta = stub.center + 0.1
    total = sum(cv.group_values(stub, theta, [k])[0] for k in range(8))
    assert cv.total(stub, theta) == pytest.approx(total, rel=1e-10)
    assert cv.eval_cost == sum(cv.weights[group_slice(cv, k)].size for k in range(8))


@pytest.fixture(scope="module")
def coreset_cases(arma11_data):
    """(data, variate, centre) on the ARMA(1,1) data and on the constant-atoms stub."""
    data, _, mode = arma11_data
    wd = sm.laplace_weighting(mode.theta, mode.hessian)
    arma = sm.build_coreset_cv(data, sm.make_groups(data.n_freq, 20), wd, 6, 40, seed=4)
    stub, flat, _, atoms = constant_atoms_coreset()
    return {"arma11": (data, arma, mode.theta), "constant atoms": (flat, atoms, stub.center)}


@dataclass
class CountingTerms:
    """Passes ``terms`` through to ``inner`` and counts the calls."""

    inner: object
    calls: int = 0

    def terms(self, theta, indices=None):
        self.calls += 1
        return self.inner.terms(theta, indices)


@given(
    case=st.sampled_from(["arma11", "constant atoms"]),
    shift=st.floats(-0.3, 0.3),
    picks=st.lists(st.integers(0, 19), min_size=1, max_size=12),
)
@example(case="constant atoms", shift=0.0, picks=[0])  # only groups that retain nothing
def test_coreset_group_values_match_each_group_bit_for_bit(coreset_cases, case, shift, picks):
    data, cv, centre = coreset_cases[case]
    theta = centre + shift
    u = np.array(picks + picks[:1]) % cv.constants.size  # always one repeat
    counting = CountingTerms(data)
    values = cv.group_values(counting, theta, u)
    assert counting.calls == 1
    for slot, k in enumerate(u):
        part = group_slice(cv, k)
        assert values[slot] == cv.weights[part] @ data.terms(theta, cv.indices[part]) + cv.constants[k]
    total = float(cv.constants.sum()) + float(cv.weights @ data.terms(theta, cv.indices))
    assert cv.total(data, theta) == total


def coreset_layout(**changes) -> dict:
    """Arguments of a valid three-group ``CoresetCV`` (group 1 empty), with ``changes`` applied."""
    layout = dict(
        indices=np.array([0, 3, 2, 5]),
        weights=np.array([1.0, 0.5, 2.0, 0.25]),
        offsets=np.array([0, 2, 2, 4]),
        constants=np.zeros(3),
        max_nonzeros=3,
        setup_evals=0,
    )
    return {**layout, **changes}


@pytest.mark.parametrize(
    "changes",
    [
        {"offsets": np.array([1, 2, 2, 4])},  # not starting at 0
        {"offsets": np.array([0, 2, 1, 4])},  # decreasing
        {"indices": np.array([0, 3, 2])},  # last offset is not indices.size
        {"weights": np.array([1.0, 0.5, 2.0])},  # last offset is not weights.size
        {"constants": np.zeros(2)},  # offsets.size is not constants.size + 1
        {"max_nonzeros": 1},  # a group over the budget
        {"weights": np.array([1.0, -0.5, 2.0, 0.25])},  # a negative weight
    ],
)
def test_coreset_cv_refuses_inconsistent_layouts(changes):
    sm.CoresetCV(**coreset_layout())
    with pytest.raises(ValueError):
        sm.CoresetCV(**coreset_layout(**changes))


def test_coreset_approximates_group_totals_near_mode(arma11_data):
    data, _, mode = arma11_data
    groups = sm.make_groups(data.n_freq, 40)
    wd = sm.laplace_weighting(mode.theta, mode.hessian)
    cv = sm.build_coreset_cv(data, groups, wd, m_iter=40, n_projections=200, seed=2)
    rng = np.random.default_rng(3)
    theta = mode.theta + (wd.sample(rng, 1)[0] - wd.mean)
    exact = groups.sums(data.terms(theta))
    approx = cv.group_values(data, theta, np.arange(40))
    # a generous budget should track every group total closely
    assert np.max(np.abs(approx - exact)) < 0.2
