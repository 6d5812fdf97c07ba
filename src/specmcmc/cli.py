"""Command-line entry points driven by a sectioned key-value config file.

Commands:
  simulate     write a synthetic ARMA series described by the [data] section
  periodogram  series file in, (omega, ordinate) CSV out
  fit          run one chain per the config; writes draws, summary, kernel
               density grids, and the posterior-mean log-spectrum
  compare      run a baseline and a subsampled config; writes efficiency and
               marginal-agreement tables on top of the two fits

Every random quantity derives from the single [sampler] seed: child streams
keyed 0 (series simulation), 1 (chain), 2 (coreset construction) are spawned
from it, so a config file fixes every output byte.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import control_variates as cvs
from . import diagnostics, models, sampler, series, spectral, whittle

FAMILIES = {"arma": "none", "arfima": "arfima", "artfima": "artfima"}


class ConfigError(ValueError):
    """Raised when the experiment config is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment config file."""

    # [data] - exactly one source: a series file, or simulation settings
    source: str = "file"
    path: str | None = None
    column: int = 0
    phi: tuple = ()
    theta: tuple = ()
    sigma2: float = 1.0
    n_time: int = 0
    log_squares: bool = False
    # [model]
    family: str = "arma"
    ar_order: int = 0
    ma_order: int = 0
    sv_wrapper: bool = False
    # [sampler]
    method: str = "full"
    cv: str = "none"
    group_count: int = 100
    m_percent: float = 1.0
    blocks: int = 10
    coreset_size: int = 200
    projections: int = 500
    iterations: int = 50_000
    burn_in: int = 5_000
    proposal_scale: float | None = None
    seed: int = 0
    # [output]
    directory: str = "out"

    def __post_init__(self) -> None:
        if self.source not in ("file", "simulate"):
            raise ConfigError("data source must be 'file' or 'simulate'")
        if self.source == "file" and not self.path:
            raise ConfigError("file source requires a path")
        if self.source == "simulate" and self.n_time < 4:
            raise ConfigError("simulate source requires n_time >= 4")
        if self.source == "simulate" and self.path:
            raise ConfigError("config may name a series file or a simulation, not both")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {sorted(FAMILIES)}")
        if self.method not in ("full", "subsample"):
            raise ConfigError("method must be 'full' or 'subsample'")
        if self.cv not in ("none", "taylor", "coreset"):
            raise ConfigError("cv must be 'none', 'taylor', or 'coreset'")
        if not 0.0 < self.m_percent <= 100.0:
            raise ConfigError("m_percent must be in (0, 100]")
        for name in ("group_count", "blocks", "coreset_size", "projections", "iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be non-negative")

    @property
    def model(self) -> models.ModelSpec:
        return models.ModelSpec(
            ar_order=self.ar_order,
            ma_order=self.ma_order,
            fractional=FAMILIES[self.family],
            sv_wrapper=self.sv_wrapper,
        )

    @property
    def subsample_m(self) -> int:
        """Groups drawn per estimate; at least two so the variance exists."""
        return max(2, round(self.m_percent / 100.0 * self.group_count))

    def component_seed(self, component: int) -> int:
        """Derived integer seed for one named component (see module docstring)."""
        child = np.random.SeedSequence(self.seed, spawn_key=(component,))
        return int(child.generate_state(1, np.uint64)[0])


def _floats(text: str) -> tuple:
    return tuple(float(f) for f in text.replace(",", " ").split())


def load_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        kwargs = {}
        if parser.has_section("data"):
            data = parser["data"]
            kwargs.update(
                source=data.get("source", "file"),
                path=data.get("path", None),
                column=data.getint("column", 0),
                phi=_floats(data.get("phi", "")),
                theta=_floats(data.get("theta", "")),
                sigma2=data.getfloat("sigma2", 1.0),
                n_time=data.getint("n_time", 0),
                log_squares=data.getboolean("log_squares", False),
            )
        if parser.has_section("model"):
            model = parser["model"]
            kwargs.update(
                family=model.get("family", "arma"),
                ar_order=model.getint("ar_order", 0),
                ma_order=model.getint("ma_order", 0),
                sv_wrapper=model.getboolean("sv_wrapper", False),
            )
        if parser.has_section("sampler"):
            samp = parser["sampler"]
            kwargs.update(
                method=samp.get("method", "full"),
                cv=samp.get("cv", "none"),
                group_count=samp.getint("group_count", 100),
                m_percent=samp.getfloat("m_percent", 1.0),
                blocks=samp.getint("blocks", 10),
                coreset_size=samp.getint("coreset_size", 200),
                projections=samp.getint("projections", 500),
                iterations=samp.getint("iterations", 50_000),
                burn_in=samp.getint("burn_in", 5_000),
                seed=samp.getint("seed", 0),
            )
            raw_scale = samp.get("proposal_scale", "").strip()
            kwargs["proposal_scale"] = float(raw_scale) if raw_scale else None
        if parser.has_section("output"):
            kwargs["directory"] = parser["output"].get("directory", "out")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write a config back out; load_config(save_config(c)) == c."""
    parser = configparser.ConfigParser()
    parser["data"] = {
        "source": config.source,
        "column": str(config.column),
        "phi": " ".join(repr(v) for v in config.phi),
        "theta": " ".join(repr(v) for v in config.theta),
        "sigma2": repr(config.sigma2),
        "n_time": str(config.n_time),
        "log_squares": str(config.log_squares).lower(),
    }
    if config.path is not None:
        parser["data"]["path"] = config.path
    parser["model"] = {
        "family": config.family,
        "ar_order": str(config.ar_order),
        "ma_order": str(config.ma_order),
        "sv_wrapper": str(config.sv_wrapper).lower(),
    }
    parser["sampler"] = {
        "method": config.method,
        "cv": config.cv,
        "group_count": str(config.group_count),
        "m_percent": repr(config.m_percent),
        "blocks": str(config.blocks),
        "coreset_size": str(config.coreset_size),
        "projections": str(config.projections),
        "iterations": str(config.iterations),
        "burn_in": str(config.burn_in),
        "seed": str(config.seed),
    }
    if config.proposal_scale is not None:
        parser["sampler"]["proposal_scale"] = repr(config.proposal_scale)
    parser["output"] = {"directory": config.directory}
    with open(path, "w") as handle:
        parser.write(handle)


def _simulate(config: ExperimentConfig) -> series.TimeSeries:
    return series.simulate_arma(
        np.asarray(config.phi),
        np.asarray(config.theta),
        config.sigma2,
        config.n_time,
        seed=config.component_seed(0),
    )


def _load_data(config: ExperimentConfig) -> series.TimeSeries:
    if config.source == "file":
        raw = series.load_series(config.path, column=config.column)
    else:
        raw = _simulate(config)
    if config.log_squares:
        return series.log_square_transform(raw)
    return series.demean(raw)


def _fmt(value) -> str:
    """Shortest exact decimal form; reading it back recovers the same float."""
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_draws(path: Path, output: sampler.ChainOutput) -> None:
    rows = ([_fmt(v) for v in row] for row in output.draws)
    _write_csv(path, output.param_names, rows)


def _run_configured_chain(config: ExperimentConfig):
    """Shared fit pipeline: data, mode, control variate, one chain."""
    data_series = _load_data(config)
    pgram = spectral.periodogram(data_series)
    data = whittle.WhittleData(periodogram=pgram, model=config.model)
    log_prior_fn = lambda v: models.log_prior(config.model, v)

    mode = sampler.find_mode(data, log_prior_fn, np.zeros(config.model.n_params))
    settings = sampler.ChainSettings(
        iterations=config.iterations,
        burn_in=config.burn_in,
        seed=config.component_seed(1),
        m=config.subsample_m,
        n_blocks=config.blocks,
        proposal_scale=config.proposal_scale,
    )
    if config.method == "full":
        output = sampler.run_full_chain(data, log_prior_fn, settings, mode)
        groups = None
    else:
        groups = cvs.make_groups(data.n_freq, config.group_count)
        if config.cv == "none":
            variate = cvs.ZeroCV()
        elif config.cv == "taylor":
            variate = cvs.build_taylor_cv(data, groups, mode.theta)
        else:
            weighting = cvs.laplace_weighting(mode.theta, mode.hessian)
            variate = cvs.build_coreset_cv(
                data,
                groups,
                weighting,
                config.coreset_size,
                config.projections,
                seed=config.component_seed(2),
            )
        output = sampler.run_pm_chain(data, groups, variate, log_prior_fn, settings, mode)
    return data, mode, output


def _summary_lines(config: ExperimentConfig, data, mode, output) -> list[str]:
    lines = [
        f"method={config.method}",
        f"cv={config.cv if config.method == 'subsample' else 'exact'}",
        f"n_time={data.periodogram.grid.n_time}",
        f"n_freq={data.n_freq}",
        f"parameters={','.join(output.param_names)}",
        f"iterations={config.iterations}",
        f"burn_in={config.burn_in}",
        f"seed={config.seed}",
        f"mode_log_posterior={_fmt(mode.log_posterior)}",
        f"acceptance_rate={_fmt(output.acceptance_rate)}",
        f"density_evals={output.density_evals}",
    ]
    if config.method == "subsample":
        lines.insert(2, f"m={config.subsample_m}")
        lines.insert(2, f"group_count={config.group_count}")
        lines.insert(2, f"blocks={config.blocks}")
    for name, mean, sd in zip(
        output.param_names, output.draws.mean(axis=0), output.draws.std(axis=0, ddof=1)
    ):
        lines.append(f"posterior_mean_{name}={_fmt(mean)}")
        lines.append(f"posterior_sd_{name}={_fmt(sd)}")
    return lines


def _thinned(draws: np.ndarray, cap: int = 512) -> np.ndarray:
    if len(draws) <= cap:
        return draws
    keep = np.linspace(0, len(draws) - 1, cap).astype(int)
    return draws[keep]


def cmd_simulate(config_path: str) -> None:
    config = load_config(config_path)
    if config.source != "simulate":
        raise ConfigError("simulate command needs a [data] section with source = simulate")
    path = _ensure_outdir(config) / "series.csv"
    sim = _simulate(config)
    # the column label is a comment so the file feeds straight back into
    # the loader, which treats every non-comment line as data
    with open(path, "w") as handle:
        handle.write("# value\n")
        handle.writelines(_fmt(v) + "\n" for v in sim.values)
    print(f"wrote {path}")


def cmd_periodogram(input_path: str, output_path: str, column: int = 0) -> None:
    data = series.demean(series.load_series(input_path, column=column))
    spectral.save_periodogram(spectral.periodogram(data), output_path)
    print(f"wrote {output_path}")


def cmd_fit(config_path: str) -> None:
    config = load_config(config_path)
    out = _ensure_outdir(config)
    data, mode, output = _run_configured_chain(config)

    _write_draws(out / "draws.csv", output)
    (out / "summary.txt").write_text("\n".join(_summary_lines(config, data, mode, output)) + "\n")
    for j, name in enumerate(output.param_names):
        grid, density = diagnostics.kde_grid(output.draws[:, j])
        _write_csv(
            out / f"kde_{name}.csv",
            ["value", "density"],
            ([_fmt(a), _fmt(b)] for a, b in zip(grid, density)),
        )
    log_spec = diagnostics.posterior_mean_spectrum(
        _thinned(output.draws), config.model, data.periodogram.grid
    )
    _write_csv(
        out / "spectrum.csv",
        ["omega", "mean_log_density"],
        ([_fmt(a), _fmt(b)] for a, b in zip(data.periodogram.grid.omegas, log_spec)),
    )
    print(f"wrote artifacts to {out}")


_DATA_FIELDS = ("source", "path", "column", "phi", "theta", "sigma2", "n_time", "log_squares")


def _fit_target(config: ExperimentConfig) -> dict:
    """What a fit is fit to: the data fields, the seed of simulated data, the model."""
    target = {name: getattr(config, name) for name in _DATA_FIELDS}
    target["seed"] = config.seed if config.source == "simulate" else None
    target["model"] = config.model
    return target


def cmd_compare(config_full_path: str, config_sub_path: str) -> None:
    config_full = load_config(config_full_path)
    config_sub = load_config(config_sub_path)
    if config_full.method != "full":
        raise ConfigError("first config must use method = full")
    if config_sub.method != "subsample":
        raise ConfigError("second config must use method = subsample")
    target_full, target_sub = _fit_target(config_full), _fit_target(config_sub)
    differ = [name for name in target_full if target_full[name] != target_sub[name]]
    if differ:
        raise ConfigError(
            f"compare needs both configs to fit the same data: {', '.join(differ)} differ"
        )
    out = _ensure_outdir(config_sub)

    _, _, out_full = _run_configured_chain(config_full)
    _, _, out_sub = _run_configured_chain(config_sub)

    report_full = diagnostics.efficiency_report(out_full)
    report_sub = diagnostics.efficiency_report(out_sub)
    rct = diagnostics.relative_ct(report_sub, report_full)

    _write_csv(
        out / "efficiency.csv",
        ["parameter", "IF", "density_evals", "CT", "RCT"],
        (
            [name, _fmt(iv), str(report_sub.density_evals), _fmt(ct), _fmt(r)]
            for name, iv, ct, r in zip(
                report_sub.param_names, report_sub.if_values, report_sub.ct, rct
            )
        ),
    )
    _write_csv(
        out / "efficiency_baseline.csv",
        ["parameter", "IF", "density_evals", "CT", "RCT"],
        (
            [name, _fmt(iv), str(report_full.density_evals), _fmt(ct), _fmt(1.0)]
            for name, iv, ct in zip(report_full.param_names, report_full.if_values, report_full.ct)
        ),
    )
    mean_f, sd_f = out_full.draws.mean(axis=0), out_full.draws.std(axis=0, ddof=1)
    mean_s, sd_s = out_sub.draws.mean(axis=0), out_sub.draws.std(axis=0, ddof=1)
    _write_csv(
        out / "agreement.csv",
        ["parameter", "mean_full", "mean_sub", "sd_full", "sd_sub", "mean_gap_in_sd", "sd_ratio"],
        (
            [
                name,
                _fmt(mean_f[j]),
                _fmt(mean_s[j]),
                _fmt(sd_f[j]),
                _fmt(sd_s[j]),
                _fmt(abs(mean_s[j] - mean_f[j]) / sd_f[j]),
                _fmt(sd_s[j] / sd_f[j]),
            ]
            for j, name in enumerate(out_full.param_names)
        ),
    )
    print(f"wrote comparison to {out}")


def _ensure_outdir(config: ExperimentConfig) -> Path:
    out = Path(config.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _categorize(exc: Exception) -> str:
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, OSError):
        return "io"
    if isinstance(exc, series.SeriesFileError):
        return "data"
    if isinstance(exc, ValueError):  # np.linalg.LinAlgError is one too
        return "numeric"
    return "internal"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="specmcmc", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="write a simulated series")
    sim.add_argument("config")

    pgram = commands.add_parser("periodogram", help="series file to periodogram CSV")
    pgram.add_argument("input")
    pgram.add_argument("output")
    pgram.add_argument("--column", type=int, default=0)

    fit = commands.add_parser("fit", help="run the configured chain")
    fit.add_argument("config")

    comp = commands.add_parser("compare", help="full baseline vs subsampled chain")
    comp.add_argument("config_full")
    comp.add_argument("config_sub")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.config)
        elif args.command == "periodogram":
            cmd_periodogram(args.input, args.output, args.column)
        elif args.command == "fit":
            cmd_fit(args.config)
        else:
            cmd_compare(args.config_full, args.config_sub)
    except Exception as exc:  # map everything onto one parsable line
        print(f"error: {_categorize(exc)}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
