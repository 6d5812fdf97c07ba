"""Series loading, transforms, and the ARMA simulator."""

import numpy as np
import pytest

import specmcmc as sm
from specmcmc.series import SeriesFileError

# Lag-0 autocovariance of ARMA(2,1), phi = (0.22, -0.1), theta = 0.5,
# sigma2 = 1, from a direct-recursion simulation of 1e6 points (seed
# 20260818, 5000 discarded); the analytic spectral integral gives 1.5257.
BRUTE_FORCE_GAMMA0 = 1.5287180335356227


def test_load_series_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("# header comment\n1.5\n\n2.5\n# trailing\n-3.0\n")
    loaded = sm.load_series(path)
    np.testing.assert_array_equal(loaded.values, [1.5, 2.5, -3.0])


def test_load_series_selects_column(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("1,10\n2,20\n3,30\n")
    np.testing.assert_array_equal(sm.load_series(path, column=1).values, [10.0, 20.0, 30.0])
    np.testing.assert_array_equal(sm.load_series(path).values, [1.0, 2.0, 3.0])


def test_load_series_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n2.0\nnot_a_number\n")
    with pytest.raises(SeriesFileError, match="line 3"):
        sm.load_series(path)
    path.write_text("1.0\n2.0,3.0\n")
    with pytest.raises(SeriesFileError, match="line 1"):
        sm.load_series(path, column=1)
    path.write_text("1.0\ninf\n")
    with pytest.raises(SeriesFileError, match="line 2"):
        sm.load_series(path)


def test_load_series_rejects_single_observation(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("# only one\n42.0\n")
    with pytest.raises(SeriesFileError, match="two observations"):
        sm.load_series(path)


def test_timeseries_invariants():
    with pytest.raises(ValueError):
        sm.TimeSeries(np.array([1.0]))
    with pytest.raises(ValueError):
        sm.TimeSeries(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sm.TimeSeries(np.array([1.0, 2.0, 3.0]), demeaned=True)
    ts = sm.TimeSeries(np.array([1.0, 2.0, 3.0]))
    assert ts.n_time == 3
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_demean_centers_and_flags():
    rng = np.random.default_rng(1)
    ts = sm.TimeSeries(rng.normal(5.0, 2.0, size=1000))
    centered = sm.demean(ts)
    assert centered.demeaned
    assert abs(centered.values.mean()) <= 1e-10 * centered.values.std()


def test_log_square_transform_floors_zeros():
    ts = sm.TimeSeries(np.array([0.0, 1.0, -2.0, 0.5]))
    out = sm.log_square_transform(ts)
    assert out.demeaned
    assert np.all(np.isfinite(out.values))
    # log(max(y^2, eps)) demeaned: check against a direct computation
    direct = np.log(np.maximum(ts.values**2, 1e-300))
    np.testing.assert_allclose(out.values, direct - direct.mean())


def test_simulate_arma_matches_brute_force_variance():
    sim = sm.simulate_arma([0.22, -0.1], [0.5], 1.0, 200_000, seed=5)
    gamma0 = float(np.var(sim.values))
    assert gamma0 == pytest.approx(BRUTE_FORCE_GAMMA0, rel=0.05)


def test_simulate_arma_pure_ma_moments():
    # MA(1): gamma0 = sigma2 (1 + theta^2), derivable by hand
    sim = sm.simulate_arma([], [0.7], 2.0, 400_000, seed=9)
    assert float(np.var(sim.values)) == pytest.approx(2.0 * 1.49, rel=0.03)


def test_simulate_arma_reproducible():
    a = sm.simulate_arma([0.5], [0.3], 1.0, 500, seed=33)
    b = sm.simulate_arma([0.5], [0.3], 1.0, 500, seed=33)
    c = sm.simulate_arma([0.5], [0.3], 1.0, 500, seed=34)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_simulate_arma_rejects_nonstationary_and_bad_args():
    with pytest.raises(ValueError, match="stationary"):
        sm.simulate_arma([1.01], [], 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        sm.simulate_arma([0.5], [], -1.0, 100, seed=0)
    with pytest.raises(ValueError):
        sm.simulate_arma([0.5], [], 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        sm.simulate_arma([0.5], [], 1.0, 100, seed=0, burn_in=-1)


def test_simulate_arma_burn_in_disperses_start():
    # With a long burn-in the start of the path is already stationary: the
    # variance of the first quarter matches the last quarter statistically.
    sim = sm.simulate_arma([0.9], [], 1.0, 40_000, seed=21)
    first = np.var(sim.values[:10_000])
    last = np.var(sim.values[-10_000:])
    assert first == pytest.approx(last, rel=0.15)
