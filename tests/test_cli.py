"""Config parsing, the four subcommands, and reproducible artifacts."""

import csv
import hashlib
import math
import dataclasses
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import specmcmc as sm
from specmcmc.cli import _KEYS, ConfigError, _prepare, _write_csv, ExperimentConfig, load_config, main


def ini_text(config):
    """The INI text of ``config``, every key of ``_KEYS`` written out."""
    def text(value):
        if value is None:
            return ""
        if isinstance(value, tuple):
            return ", ".join(repr(v) for v in value)
        return str(value).replace("%", "%%")

    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {text(getattr(config, key))}\n" for key in keys)
        for name, keys in _KEYS.items()
    )


def test_config_round_trip(tmp_path):
    # every key in _KEYS, each set away from its default; a blank path is
    # the empty string, which names no file
    path = write_ini(
        tmp_path / "every.ini",
        """
        [data]
        source = simulate
        path =
        column = 2
        phi = 0.5, -0.25
        theta = 0.125
        sigma2 = 2.5
        n_time = 1000
        log_squares = true

        [model]
        family = artfima
        ar_order = 2
        ma_order = 1
        sv_wrapper = yes

        [sampler]
        method = subsample
        cv = coreset
        group_count = 50
        m_percent = 4
        blocks = 5
        coreset_size = 20
        projections = 100
        iterations = 2000
        burn_in = 200
        proposal_scale = 0.75
        seed = 42

        [output]
        directory = out%%x
        """,
    )
    config = load_config(path)
    assert config == ExperimentConfig(
        source="simulate",
        path="",
        column=2,
        phi=(0.5, -0.25),
        theta=(0.125,),
        sigma2=2.5,
        n_time=1000,
        log_squares=True,
        family="artfima",
        ar_order=2,
        ma_order=1,
        sv_wrapper=True,
        method="subsample",
        cv="coreset",
        group_count=50,
        m_percent=4.0,
        blocks=5,
        coreset_size=20,
        projections=100,
        iterations=2_000,
        burn_in=200,
        proposal_scale=0.75,
        seed=42,
        directory="out%x",
    )
    keys = [key for section in _KEYS.values() for key in section]
    assert keys == [field.name for field in dataclasses.fields(ExperimentConfig)]
    assert all(getattr(config, f.name) != f.default for f in dataclasses.fields(config))

    blank = Path(path).read_text().replace("proposal_scale = 0.75", "proposal_scale =")
    Path(path).write_text(blank)
    assert load_config(path).proposal_scale is None

    written = write_ini(tmp_path / "written.ini", ini_text(config))
    assert load_config(written) == config


def test_config_defaults_round_trip(tmp_path):
    config = ExperimentConfig(path="series.csv")
    path = write_ini(tmp_path / "config.ini", ini_text(config))
    assert load_config(path) == config
    # a file naming only the series takes every other default
    assert load_config(write_ini(tmp_path / "short.ini", "[data]\npath = series.csv\n")) == config


@pytest.mark.parametrize(
    "overrides",
    [
        {"source": "stream"},
        {"source": "file", "path": None},
        {"source": "simulate", "n_time": 3},
        {"source": "simulate", "n_time": 100, "path": "x.csv"},
        {"family": "garch"},
        {"method": "exact"},
        {"cv": "spline"},
        {"m_percent": 0.0},
        {"m_percent": 101.0},
        {"group_count": 0},
        {"blocks": 0},
        {"iterations": 0},
        {"burn_in": -1},
        {"ar_order": -1},
        {"ma_order": -1},
        {"proposal_scale": -1.0},
        {"proposal_scale": 0.0},
        {"proposal_scale": float("inf")},
        {"seed": -5},
        {"column": -3},
    ],
)
def test_config_validation(overrides):
    base = dict(source="simulate", n_time=100)
    base.update(overrides)
    with pytest.raises(ConfigError):
        ExperimentConfig(**base)


def test_subsample_m_has_floor_of_two():
    small = ExperimentConfig(path="x", m_percent=0.001, group_count=100)
    assert small.subsample_m == 2
    usual = ExperimentConfig(path="x", m_percent=10.0, group_count=50)
    assert usual.subsample_m == 5


def test_component_seeds_are_distinct_and_stable():
    config = ExperimentConfig(path="x", seed=7)
    seeds = [config.component_seed(c) for c in range(3)]
    assert len(set(seeds)) == 3
    assert seeds == [config.component_seed(c) for c in range(3)]
    # a different master seed moves every component
    other = ExperimentConfig(path="x", seed=8)
    assert all(other.component_seed(c) != seeds[c] for c in range(3))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.ini")


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(example)
    config = load_config(path)
    assert (config.method, config.cv, config.group_count) == ("subsample", "taylor", 500)


def write_ini(path, text):
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_simulate_and_periodogram_commands(tmp_path, capsys):
    cfg = write_ini(
        tmp_path / "sim.ini",
        f"""
        [data]
        source = simulate
        phi = 0.5
        sigma2 = 1.0
        n_time = 64

        [sampler]
        seed = 3

        [output]
        directory = {tmp_path / "out"}
        """,
    )
    assert main(["simulate", cfg]) == 0
    lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
    assert lines[0] == "# value"
    assert len(lines) == 1 + 64

    pgram_path = tmp_path / "pgram.csv"
    assert main(["periodogram", str(tmp_path / "out" / "series.csv"), str(pgram_path)]) == 0
    header, rows = read_csv(pgram_path)
    assert header == ["omega", "ordinate"]
    assert len(rows) == (64 - 1) // 2

    # the written ordinates reproduce the library computation exactly
    ts = sm.demean(sm.load_series(tmp_path / "out" / "series.csv"))
    pgram = sm.periodogram(ts)
    np.testing.assert_array_equal([float(r[1]) for r in rows], pgram.ordinates)
    np.testing.assert_array_equal([float(r[0]) for r in rows], pgram.grid.omegas)


def test_csv_writer_writes_floats_as_repr(tmp_path):
    # every float file's bytes rest on this: the text of a float is its repr
    values = [-0.0, 5e-324, 1e16, 1 / 3, float("nan"), float("inf"), float("-inf")]
    path = tmp_path / "floats.csv"
    _write_csv(path, ["value", "index"], [np.array(values), np.arange(len(values))])
    lines = path.read_text().splitlines()
    assert lines == ["value,index"] + [f"{float(v)!r},{i}" for i, v in enumerate(values)]
    # a column longer than one block of rows is written whole, in order
    column = np.arange(10_000) / 7.0
    _write_csv(path, ["value"], [column])
    _, rows = read_csv(path)
    np.testing.assert_array_equal([float(r[0]) for r in rows], column)


def test_csv_writer_bytes_match_the_csv_module(tmp_path):
    # names, floats over the whole range with the special values, and ints,
    # over more than one block of rows: the bytes csv.writer writes
    n = 5000
    floats = np.logspace(-300, 300, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    floats[:6] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
    columns = [[f"phi_tilde_{i}" for i in range(n)], floats, np.arange(n) - 7]
    _write_csv(tmp_path / "fast.csv", ["parameter", "value", "count"], columns)
    with open(tmp_path / "reference.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["parameter", "value", "count"])
        writer.writerows(zip(columns[0], floats.tolist(), columns[2].tolist()))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def fit_config(tmp_path, outdir, method="full", extra="", model=""):
    return write_ini(
        tmp_path / f"{outdir}.ini",
        f"""
        [data]
        source = simulate
        phi = 0.4
        sigma2 = 1.0
        n_time = 512

        [model]
        family = arma
        ar_order = 1
        {model}

        [sampler]
        method = {method}
        iterations = 400
        burn_in = 100
        seed = 11
        {extra}

        [output]
        directory = {tmp_path / outdir}
        """,
    )


def test_fit_writes_all_artifacts(tmp_path, capsys):
    cfg = fit_config(tmp_path, "fit_out")
    assert main(["fit", cfg]) == 0
    out = tmp_path / "fit_out"

    header, rows = read_csv(out / "draws.csv")
    assert header == ["phi_tilde_1", "log_sigma2"]
    assert len(rows) == 400

    summary = dict(
        line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    assert summary["method"] == "full"
    assert summary["parameters"] == "phi_tilde_1,log_sigma2"
    n_freq = (512 - 1) // 2
    assert int(summary["density_evals"]) == n_freq * (1 + 500)
    assert 0.0 < float(summary["acceptance_rate"]) < 1.0
    assert np.isfinite(float(summary["posterior_mean_phi_tilde_1"]))
    assert float(summary["posterior_sd_log_sigma2"]) > 0

    for name in ("phi_tilde_1", "log_sigma2"):
        header, rows = read_csv(out / f"kde_{name}.csv")
        assert header == ["value", "density"]
        assert len(rows) == 512

    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["omega", "mean_log_density"]
    assert len(rows) == n_freq
    assert all(np.isfinite(float(r[1])) for r in rows)


def test_fit_reruns_byte_identical(tmp_path):
    cfg = fit_config(tmp_path, "stable_out")
    assert main(["fit", cfg]) == 0
    out = tmp_path / "stable_out"
    names = ["draws.csv", "summary.txt", "spectrum.csv", "kde_log_sigma2.csv"]
    before = {n: (out / n).read_bytes() for n in names}
    assert main(["fit", cfg]) == 0
    for n in names:
        assert (out / n).read_bytes() == before[n]


TAYLOR_EXTRA = """cv = taylor
        group_count = 16
        m_percent = 20
        blocks = 2"""


def test_fit_subsampled_chain(tmp_path):
    for cv in ("taylor", "none"):
        extra = TAYLOR_EXTRA.replace("cv = taylor", f"cv = {cv}")
        cfg = fit_config(tmp_path, f"sub_{cv}", method="subsample", extra=extra)
        assert main(["fit", cfg]) == 0
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / f"sub_{cv}" / "summary.txt").read_text().splitlines()
        )
        assert summary["method"] == "subsample"
        assert summary["cv"] == cv
        assert summary["m"] == "3"
        assert summary["group_count"] == "16"
        _, rows = read_csv(tmp_path / f"sub_{cv}" / "draws.csv")
        assert len(rows) == 400


CORESET_EXTRA = """cv = coreset
        group_count = 16
        m_percent = 25
        coreset_size = 5
        projections = 20"""


def test_coreset_fit_bytes_are_pinned(tmp_path):
    # the coreset variate's layout and arithmetic leave every draw and the
    # posterior spectrum unchanged, bit for bit (re-recorded when the cosine
    # moments, which the mode search reads, became one rfft)
    cfg = fit_config(tmp_path, "coreset_pin", method="subsample", extra=CORESET_EXTRA)
    assert main(["fit", cfg]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "coreset_pin" / name).read_bytes()).hexdigest()
        for name in ("draws.csv", "spectrum.csv")
    }
    assert digests == {
        "draws.csv": "67a15ab5efd56c7364d93a638fe5e2b55d03d4fc27fe0b63f9fe0cf230b56811",
        "spectrum.csv": "622a82b1bfae2c5cab29e0beee8ad129dc21709ab8d1feaa40b07cbc0010a48e",
    }


# SHA-256 of draws.csv and spectrum.csv; the full and Taylor draws re-recorded when the cosine moments
# became one rfft, the wrapped ones when its mode search started at log sigma2_eps = log(pi^2/2), which
# found the same mode up to one unit in the last place of log sigma2_eps
FIT_PINS = {
    "full": (
        "d4d2cff5cab68ee6e39d8eab599a252fe5157c6b664917788487a2efb1b67629",
        "eb26b5d6c88088351f9249b9e4b8dba5b24f1bfca4f301442350739d48d08b1f",
    ),
    "taylor": (
        "189a22962570bcbd76afa0ef1bc031e50196ad2fc0c8e0d6f478709145687639",
        "875069a3b9fc4b91536273cfc40db36f73835486edc26cd811ae01902cb7cce6",
    ),
    "wrapped": (
        "a120bcffd60dcb42afa7946bdcba07cc886a8c5c0c81f0069d5f08944aeced0f",
        "52672f8f9a40231e9998d2fd1a922124eff5764221b7802f05b946ba6a9a687d",
    ),
}


@pytest.mark.parametrize(
    "name, method, extra, model",
    [
        ("full", "full", "", ""),
        ("taylor", "subsample", TAYLOR_EXTRA, ""),
        ("wrapped", "full", "", "sv_wrapper = yes"),
    ],
    ids=["full", "taylor", "wrapped"],
)
def test_fit_bytes_are_pinned(tmp_path, name, method, extra, model):
    # fits on fit_config's series: the full chain, the Taylor variate's chain,
    # and an ARMA(1,0) volatility wrapper, whose density keeps f and whose
    # spectrum sums the kernel's log f row by row
    cfg = fit_config(tmp_path, "pin", method=method, extra=extra, model=model)
    assert main(["fit", cfg]) == 0
    files = ("draws.csv", "spectrum.csv")
    assert tuple(hashlib.sha256((tmp_path / "pin" / f).read_bytes()).hexdigest() for f in files) == FIT_PINS[name]


def test_coreset_summary_records_its_budget(tmp_path):
    # two coreset fits with different budgets write summaries that tell them apart
    cfg = fit_config(tmp_path, "coreset_sum", method="subsample", extra=CORESET_EXTRA)
    assert main(["fit", cfg]) == 0
    lines = (tmp_path / "coreset_sum" / "summary.txt").read_text().splitlines()
    summary = dict(line.split("=", 1) for line in lines)
    assert summary["cv"] == "coreset"
    assert (summary["coreset_size"], summary["projections"]) == ("5", "20")
    assert lines.index("coreset_size=5") == lines.index("m=4") + 1


def refuse_mode_search_and_full_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the config and data were checked")

    monkeypatch.setattr(sm.sampler, "find_mode", refuse)
    monkeypatch.setattr(sm.sampler, "run_full_chain", refuse)


def test_fit_rejects_more_groups_than_frequencies(tmp_path, capsys, monkeypatch):
    # 512 points give 255 frequencies, too few for 500 groups; the error
    # names the key rather than the group index's own range check, and comes
    # before the mode search
    refuse_mode_search_and_full_chain(monkeypatch)
    extra = """cv = taylor
        group_count = 500"""
    cfg = fit_config(tmp_path, "many_groups", method="subsample", extra=extra)
    assert main(["fit", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "group_count = 500" in err and "n_freq = 255" in err
    assert not (tmp_path / "many_groups").exists()


def test_compare_rejects_more_groups_than_frequencies(tmp_path, capsys, monkeypatch):
    # checked before the mode search and the full-data chain
    refuse_mode_search_and_full_chain(monkeypatch)
    cfg_full = fit_config(tmp_path, "groups_full")
    extra = """cv = taylor
        group_count = 500"""
    cfg_sub = fit_config(tmp_path, "groups_sub", method="subsample", extra=extra)
    assert main(["compare", cfg_full, cfg_sub]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "group_count = 500" in err and "n_freq = 255" in err
    assert not (tmp_path / "groups_sub").exists()


@pytest.mark.parametrize("value", ["3.0", "123.456"])
def test_fit_refuses_a_constant_series(tmp_path, capsys, monkeypatch, value):
    # a constant series has all-zero periodogram ordinates and no spectrum to
    # fit; it is refused before the mode search, with nothing written.  The
    # mean of 200 copies of 123.456 rounds off its value, which demean absorbs
    refuse_mode_search_and_full_chain(monkeypatch)
    path = tmp_path / "constant.txt"
    path.write_text(f"{value}\n" * 200)
    cfg = write_ini(
        tmp_path / "constant.ini",
        f"""
        [data]
        path = {path}

        [model]
        family = arma
        ar_order = 1

        [output]
        directory = {tmp_path / "constant_out"}
        """,
    )
    assert main(["fit", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "constant" in err and err.count("\n") == 1
    assert not (tmp_path / "constant_out").exists()


def test_fit_writes_nothing_when_a_density_grid_fails(tmp_path, capsys, monkeypatch):
    def refuse(samples, grid_size=512):
        raise ValueError("samples are constant; no density to estimate")

    monkeypatch.setattr(sm.diagnostics, "kde_grid", refuse)
    cfg = fit_config(tmp_path, "partial_out")
    assert main(["fit", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: numeric:")
    assert not (tmp_path / "partial_out").exists()


@pytest.mark.parametrize(
    "old, new, name",
    [
        ("seed = 11", "seed = 11\ngroup_cout = 50", "group_cout"),
        ("[output]", "[smapler]\nmethod = full\n\n[output]", "smapler"),
    ],
    ids=["misspelled_key", "unknown_section"],
)
def test_config_rejects_unknown_names(tmp_path, capsys, old, new, name):
    cfg = fit_config(tmp_path, "typo_out")
    Path(cfg).write_text(Path(cfg).read_text().replace(old, new))
    assert main(["fit", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert name in err
    assert err.count("\n") == 1
    assert not (tmp_path / "typo_out").exists()


@pytest.mark.parametrize(
    "pattern, replacement",
    [(r"\[data\]", ""), (r"directory = .*", "directory = out%x")],
    ids=["no_section_header", "lone_percent"],
)
def test_config_parser_errors_are_config_errors(tmp_path, capsys, pattern, replacement):
    # configparser's own errors: a file without a section header fails while
    # it is read, a lone % (basic interpolation) when its value is read
    cfg = fit_config(tmp_path, "parse_out")
    Path(cfg).write_text(re.sub(pattern, replacement, Path(cfg).read_text(), count=1))
    assert main(["fit", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1
    assert not (tmp_path / "parse_out").exists()


def test_compare_command(tmp_path):
    cfg_full = fit_config(tmp_path, "cmp_full")
    extra = """cv = taylor
        group_count = 16
        m_percent = 25
        blocks = 2"""
    cfg_sub = fit_config(tmp_path, "cmp_sub", method="subsample", extra=extra)
    assert main(["compare", cfg_full, cfg_sub]) == 0
    out = tmp_path / "cmp_sub"

    header, rows = read_csv(out / "efficiency.csv")
    assert header == ["parameter", "IF", "density_evals", "CT", "RCT"]
    assert [r[0] for r in rows] == ["phi_tilde_1", "log_sigma2"]
    for row in rows:
        assert float(row[1]) > 0
        assert float(row[3]) == pytest.approx(float(row[1]) * int(row[2]), rel=1e-12)
        assert float(row[4]) > 0

    _, base_rows = read_csv(out / "efficiency_baseline.csv")
    assert all(float(r[4]) == 1.0 for r in base_rows)

    header, rows = read_csv(out / "agreement.csv")
    assert header == [
        "parameter",
        "mean_full",
        "mean_sub",
        "sd_full",
        "sd_sub",
        "mean_gap_in_sd",
        "sd_ratio",
    ]
    for row in rows:
        assert np.isfinite(float(row[5]))
        assert float(row[6]) > 0


def test_compare_searches_for_the_mode_once(tmp_path, monkeypatch):
    # both configs fit the same data and model, so one load and one mode
    # search serve both chains
    calls = []
    find_mode = sm.sampler.find_mode

    def counting(*args, **kwargs):
        calls.append(args)
        return find_mode(*args, **kwargs)

    monkeypatch.setattr(sm.sampler, "find_mode", counting)
    cfg_full = fit_config(tmp_path, "once_full")
    cfg_sub = fit_config(tmp_path, "once_sub", method="subsample", extra="cv = taylor")
    assert main(["compare", cfg_full, cfg_sub]) == 0
    assert len(calls) == 1


def test_compare_rejects_method_mismatch(tmp_path, capsys):
    # a full config twice, then the two configs in swapped order
    cfg_full = fit_config(tmp_path, "mm_full")
    cfg_sub = fit_config(tmp_path, "mm_sub", method="subsample", extra="cv = taylor")
    for configs, which in (([cfg_full, cfg_full], "second"), ([cfg_sub, cfg_full], "first")):
        assert main(["compare", *configs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {which} config must use method")
        assert err.count("\n") == 1


def test_compare_rejects_different_data(tmp_path, capsys):
    # with source = simulate the seed picks the series, so these two configs
    # would fit their chains to different data
    cfg_full = fit_config(tmp_path, "dd_full")
    cfg_sub = fit_config(tmp_path, "dd_sub", method="subsample", extra="cv = taylor")
    Path(cfg_sub).write_text(Path(cfg_sub).read_text().replace("seed = 11", "seed = 12"))
    assert main(["compare", cfg_full, cfg_sub]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "seed" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "dd_sub").exists()


@pytest.mark.parametrize("short", ["full", "sub"])
def test_compare_refuses_too_few_iterations_up_front(tmp_path, capsys, monkeypatch, short):
    # the inefficiency factors need 100 draws a chain: fewer is a config
    # error, raised before the data is loaded, the mode search or either chain
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the iterations were checked")

    for name in ("cli._load_data", "sampler.find_mode", "sampler.run_full_chain", "sampler.run_pm_chain"):
        monkeypatch.setattr(f"specmcmc.{name}", refuse)
    configs = {
        "full": fit_config(tmp_path, "few_full"),
        "sub": fit_config(tmp_path, "few_sub", method="subsample", extra="cv = taylor"),
    }
    path = Path(configs[short])
    path.write_text(path.read_text().replace("iterations = 400", "iterations = 60"))
    assert main(["compare", configs["full"], configs["sub"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "iterations" in err and "100" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "few_sub").exists() and not (tmp_path / "few_full").exists()


def test_fit_refuses_a_single_iteration_up_front(tmp_path, capsys, monkeypatch):
    # posterior sds and density grids need two draws: one is a config error,
    # raised before the data is loaded or the mode searched for
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the iterations were checked")

    for name in ("cli._load_data", "sampler.find_mode"):
        monkeypatch.setattr(f"specmcmc.{name}", refuse)
    cfg = fit_config(tmp_path, "one_out")
    Path(cfg).write_text(Path(cfg).read_text().replace("iterations = 400", "iterations = 1"))
    assert main(["fit", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "iterations >= 2" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "one_out").exists()


def test_error_lines_are_single_and_categorized(tmp_path, capsys):
    bad = write_ini(
        tmp_path / "bad.ini",
        """
        [data]
        source = simulate
        n_time = 2
        """,
    )
    assert main(["fit", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1

    assert main(["periodogram", str(tmp_path / "missing.csv"), str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: io:")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0\nnot_a_number\n")
    assert main(["periodogram", str(ragged), str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: data:")


def test_periodogram_rejects_negative_column(tmp_path, capsys):
    # a usage error, as a non-integer --column is, before the file is read
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exit_info:
        main(["periodogram", missing, str(tmp_path / "o.csv"), "--column", "-2"])
    assert exit_info.value.code == 2
    assert "--column must be non-negative" in capsys.readouterr().err


def test_simulate_requires_simulate_source(tmp_path, capsys):
    cfg = write_ini(
        tmp_path / "filesrc.ini",
        """
        [data]
        source = file
        path = whatever.csv
        """,
    )
    assert main(["simulate", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("simulate", "sigma2 = -1", "innovation variance must be positive"),
        ("fit", "phi = 1.2", "AR polynomial is not stationary"),
    ],
    ids=["sigma2", "phi"],
)
def test_bad_simulation_settings_are_config_errors(tmp_path, capsys, command, setting, message):
    cfg = write_ini(
        tmp_path / "badsim.ini",
        f"""
        [data]
        source = simulate
        {setting}
        n_time = 64

        [output]
        directory = {tmp_path / "out"}
        """,
    )
    assert main([command, cfg]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"


def test_fit_data_in_large_units(tmp_path, capsys):
    # a series scaled by e^50 has variance e^100; the mode search starts log
    # sigma2 at the white-noise mode, log(2 pi mean I), and not at zero, 100
    # below the data's scale, from where it did not converge
    sim = sm.simulate_arma([0.4], [0.2], 1.0, 2001, seed=13)
    path = tmp_path / "large.txt"
    path.write_text("".join(repr(v) + "\n" for v in (sim.values * math.exp(50.0)).tolist()))
    cfg = write_ini(
        tmp_path / "large.ini",
        f"""
        [data]
        path = {path}

        [model]
        family = arma
        ar_order = 1
        ma_order = 1

        [sampler]
        iterations = 200
        burn_in = 50

        [output]
        directory = {tmp_path / "large_out"}
        """,
    )
    assert main(["fit", cfg]) == 0, capsys.readouterr().err
    summary = dict(
        line.split("=", 1) for line in (tmp_path / "large_out" / "summary.txt").read_text().splitlines()
    )
    assert float(summary["posterior_mean_log_sigma2"]) == pytest.approx(100.0, abs=0.5)


def test_fit_log_squares_fits_the_transformed_series(tmp_path):
    # log_squares = true fits the log squared, demeaned series: the summary's
    # periodogram hash is that of the transformed series' periodogram
    cfg = fit_config(tmp_path, "log_out")
    Path(cfg).write_text(Path(cfg).read_text().replace("n_time = 512", "n_time = 512\nlog_squares = true"))
    assert main(["fit", cfg]) == 0
    lines = (tmp_path / "log_out" / "summary.txt").read_text().splitlines()
    config = load_config(cfg)
    raw = sm.simulate_arma([0.4], [], 1.0, 512, seed=config.component_seed(0))
    ordinates = sm.periodogram(sm.log_square_transform(raw)).ordinates
    assert f"periodogram_sha256={hashlib.sha256(ordinates.tobytes()).hexdigest()}" in lines


def test_summary_fingerprints_the_periodogram(tmp_path, capsys):
    # periodogram_sha256 matches separate fits of one file, and one changed value changes it
    values = sm.simulate_arma([0.4], [], 1.0, 301, seed=17).values.tolist()

    def fingerprint(name, series):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(repr(v) + "\n" for v in series))
        cfg = write_ini(
            tmp_path / f"{name}.ini",
            f"""
            [data]
            path = {path}

            [model]
            family = arma
            ar_order = 1

            [sampler]
            iterations = 200
            burn_in = 50

            [output]
            directory = {tmp_path / name}
            """,
        )
        assert main(["fit", cfg]) == 0, capsys.readouterr().err
        lines = (tmp_path / name / "summary.txt").read_text().splitlines()
        summary = dict(line.split("=", 1) for line in lines)
        digest = summary["periodogram_sha256"]
        assert len(digest) == 64 and int(digest, 16) >= 0
        return digest

    first = fingerprint("first", values)
    assert fingerprint("again", values) == first
    values[150] += 0.5
    assert fingerprint("changed", values) != first


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wrapped_mode_search_finds_the_sv_mode(tmp_path, seed):
    # log squared returns of a standard SV series: h an AR(1) at 0.95 with
    # innovation variance 0.05, n = 100001.  From log sigma2_eps = 0 the mode
    # search stopped near phi = 0.12; from log(pi^2/2), the variance of
    # log chi^2_1, it reaches the truth
    rng = np.random.default_rng(seed)
    h = lfilter([1.0], [1.0, -0.95], math.sqrt(0.05) * rng.standard_normal(101_001))[1000:]
    path = tmp_path / "returns.txt"
    path.write_text("# value\n" + "\n".join(map(repr, (np.exp(h / 2) * rng.standard_normal(h.size)).tolist())))
    config = ExperimentConfig(source="file", path=str(path), log_squares=True, ar_order=1, sv_wrapper=True)
    _, _, mode = _prepare(config)
    assert math.tanh(mode.theta[0]) > 0.9
    assert abs(mode.theta[2] - math.log(math.pi**2 / 2.0)) < 0.05
