"""Config parsing, the four subcommands, and reproducible artifacts."""

import csv
import textwrap
from pathlib import Path

import numpy as np
import pytest

import specmcmc as sm
from specmcmc.cli import ConfigError, ExperimentConfig, load_config, main, save_config


def test_config_round_trip(tmp_path):
    config = ExperimentConfig(
        source="simulate",
        phi=(0.5, -0.25),
        theta=(0.125,),
        sigma2=2.5,
        n_time=1000,
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
        directory=str(tmp_path / "out"),
    )
    path = tmp_path / "config.ini"
    save_config(config, path)
    assert load_config(path) == config


def test_config_defaults_round_trip(tmp_path):
    config = ExperimentConfig(path="series.csv")
    path = tmp_path / "config.ini"
    save_config(config, path)
    assert load_config(path) == config


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


def fit_config(tmp_path, outdir, method="full", extra=""):
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


def test_fit_subsampled_chain(tmp_path):
    extra = """cv = taylor
        group_count = 16
        m_percent = 20
        blocks = 2"""
    cfg = fit_config(tmp_path, "sub_out", method="subsample", extra=extra)
    assert main(["fit", cfg]) == 0
    summary = dict(
        line.split("=", 1)
        for line in (tmp_path / "sub_out" / "summary.txt").read_text().splitlines()
    )
    assert summary["method"] == "subsample"
    assert summary["cv"] == "taylor"
    assert summary["m"] == "3"
    assert summary["group_count"] == "16"
    _, rows = read_csv(tmp_path / "sub_out" / "draws.csv")
    assert len(rows) == 400


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


def test_compare_rejects_method_mismatch(tmp_path, capsys):
    cfg_full = fit_config(tmp_path, "mm_full")
    assert main(["compare", cfg_full, cfg_full]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
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
