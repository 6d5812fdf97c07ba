"""Series loading, transforms, and the ARMA simulator."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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


def test_load_series_rejects_negative_column_before_reading(tmp_path):
    # the file does not exist: the column is refused before it is opened
    for column in (-1, -2):
        with pytest.raises(ValueError, match="column must be non-negative"):
            sm.load_series(tmp_path / "missing.csv", column=column)


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


def test_simulate_arma_burn_in_disperses_start():
    # With a long burn-in the start of the path is already stationary: the
    # variance of the first quarter matches the last quarter statistically.
    sim = sm.simulate_arma([0.9], [], 1.0, 40_000, seed=21)
    first = np.var(sim.values[:10_000])
    last = np.var(sim.values[-10_000:])
    assert first == pytest.approx(last, rel=0.15)


def line_by_line_load(path, column=0):
    """The loader before its fast path: every record split, then the field parsed."""
    values = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f for f in (line.split(",") if "," in line else line.split()) if f.strip()]
            if column >= len(fields):
                raise SeriesFileError(
                    f"{path}: line {lineno}: expected at least {column + 1} columns, found {len(fields)}"
                )
            try:
                value = float(fields[column].strip())
            except ValueError as exc:
                raise SeriesFileError(
                    f"{path}: line {lineno}: cannot parse {fields[column]!r}"
                ) from exc
            if not math.isfinite(value):
                raise SeriesFileError(f"{path}: line {lineno}: non-finite value {value!r}")
            values.append(value)
    if len(values) < 2:
        raise SeriesFileError(f"{path}: needs at least two observations, found {len(values)}")
    return sm.TimeSeries(np.array(values))


# Fields: mostly numbers, in every spelling float() takes, then non-finite
# words and junk.  Blanks: the whitespace characters str.split and float()
# both strip.  Lines are mostly numbers, so about one file in five parses.
BLANKS = st.text(alphabet=" \t\x0b\x0c", max_size=2)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_000", "+1e5", ".5", "1.", "-0", "1E-3"]),
)
FIELDS = st.one_of(
    NUMBERS,
    NUMBERS,
    NUMBERS,
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "0x10", "#3", ""]),
    st.text(alphabet="0123456789.e+-_xabn#", max_size=4),
)
LINE_KINDS = ["number"] * 8 + ["blank", "comment", "row", "row", "junk"]


@st.composite
def series_lines(draw):
    kind = draw(st.sampled_from(LINE_KINDS))
    if kind == "number":
        return draw(BLANKS) + draw(NUMBERS if draw(st.booleans()) else FIELDS) + draw(BLANKS)
    if kind == "blank":
        return draw(BLANKS)
    if kind == "comment":
        return draw(BLANKS) + "#" + draw(st.text(alphabet="abc 1.,", max_size=6))
    if kind == "row":
        sep = draw(st.sampled_from([",", " ", "\t", ", ", " ,", ",,"]))
        return sep.join(draw(st.lists(FIELDS, min_size=1, max_size=4)))
    return draw(st.text(alphabet="0123456789.,;:e+- \t#abn", max_size=8))


@settings(deadline=None, max_examples=300)
@given(st.lists(series_lines(), max_size=12), st.integers(0, 2))
def test_load_series_fast_path_matches_the_split_path(tmp_path_factory, lines, column):
    path = tmp_path_factory.mktemp("lines") / "series.txt"
    path.write_text("\n".join(lines) + "\n")
    try:
        expected = line_by_line_load(path, column).values
        event("parsed")
    except SeriesFileError as exc:
        event("error")
        with pytest.raises(SeriesFileError) as caught:
            sm.load_series(path, column)
        assert str(caught.value) == str(exc)
    else:
        np.testing.assert_array_equal(sm.load_series(path, column).values, expected)


def test_load_series_loadtxt_path_gives_the_loops_bytes(tmp_path, monkeypatch):
    # comments, blank lines and whitespace-separated columns go through
    # np.loadtxt, for column 0 and beyond; its values are the loop's bytes
    rng = np.random.default_rng(3)
    table = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-5, 6, size=(50, 3))
    lines = ["# header", ""] + [f" {a!r}\t{b!r}   {c!r} " for a, b, c in table.tolist()]
    lines[20:20] = ["   # a comment after blanks", "\t", ""]
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + "\n")
    read = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: read.append(args) or loadtxt(*args, **kwargs))
    for column in range(3):
        loaded = sm.load_series(path, column)
        assert loaded.values.tobytes() == line_by_line_load(path, column).values.tobytes()
        assert loaded.values.tobytes() == table[:, column].tobytes()
    assert len(read) == 3
    # a '#' after a value, or a comma, would split differently: the loop reads those
    path.write_text("# header\n1.5 # note\n2.5\n")
    np.testing.assert_array_equal(sm.load_series(path).values, [1.5, 2.5])
    path.write_text("1.5, 7\n2.5, 8\n")
    np.testing.assert_array_equal(sm.load_series(path, 1).values, [7.0, 8.0])
    assert len(read) == 3
