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
import hashlib
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
        for name in ("column", "ar_order", "ma_order", "burn_in", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.proposal_scale is not None and not 0.0 < self.proposal_scale < np.inf:
            raise ConfigError("proposal_scale must be positive and finite")

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


def _floats(parser, section: str, key: str) -> tuple:
    return tuple(float(f) for f in parser.get(section, key).replace(",", " ").split())


def _scale(parser, section: str, key: str) -> float | None:
    raw = parser.get(section, key).strip()
    return float(raw) if raw else None


_P = configparser.ConfigParser
# Every key a config file may set, by section, with the reader of its value;
# a key left out takes the ExperimentConfig default.
_KEYS = {
    "data": {
        "source": _P.get,
        "path": _P.get,
        "column": _P.getint,
        "phi": _floats,
        "theta": _floats,
        "sigma2": _P.getfloat,
        "n_time": _P.getint,
        "log_squares": _P.getboolean,
    },
    "model": {
        "family": _P.get,
        "ar_order": _P.getint,
        "ma_order": _P.getint,
        "sv_wrapper": _P.getboolean,
    },
    "sampler": {
        "method": _P.get,
        "cv": _P.get,
        "group_count": _P.getint,
        "m_percent": _P.getfloat,
        "blocks": _P.getint,
        "coreset_size": _P.getint,
        "projections": _P.getint,
        "iterations": _P.getint,
        "burn_in": _P.getint,
        "proposal_scale": _scale,
        "seed": _P.getint,
    },
    "output": {"directory": _P.get},
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config file; a section or key not in ``_KEYS`` is a ``ConfigError``."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as exc:  # a missing section header, a duplicate key
        raise ConfigError(f"{path}: {_one_line(exc)}") from exc
    if not found:
        raise FileNotFoundError(f"config file not found: {path}")
    sections = parser.sections() + (["DEFAULT"] if parser.defaults() else [])
    unknown = [f"section [{name}]" for name in sections if name not in _KEYS] + [
        f"key {key} in [{name}]"
        for name in sections
        if name in _KEYS
        for key in parser[name]
        if key not in _KEYS[name]
    ]
    if unknown:
        raise ConfigError(f"{path}: unknown {', '.join(unknown)}")
    try:
        kwargs = {
            key: _KEYS[name][key](parser, name, key) for name in sections for key in parser[name]
        }
    except (ValueError, configparser.Error) as exc:  # Error: a lone % in a value
        raise ConfigError(f"{path}: {_one_line(exc)}") from exc
    return ExperimentConfig(**kwargs)


def _one_line(exc: Exception) -> str:
    """An exception's message with its line breaks and runs of blanks made single spaces."""
    return " ".join(str(exc).split())


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


_CSV_BLOCK = 4096


def _write_csv(path: Path, header, columns) -> None:
    """A header row, then row i holding entry i of every column.

    Fields are numbers, a float as its ``repr`` (the shortest text that reads
    back to the same float), and names ``csv`` would not quote, so each block
    of rows is joined directly into ``csv.writer``'s bytes.  Columns become
    Python objects one block at a time, which keeps memory flat.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            fields = (map(str, c[start : start + _CSV_BLOCK].tolist()) for c in columns)
            handle.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _write_efficiency(path: Path, report: diagnostics.EfficiencyReport, rct) -> None:
    evals = [report.density_evals] * len(rct)
    columns = [report.param_names, report.if_values, evals, report.ct, rct]
    _write_csv(path, ["parameter", "IF", "density_evals", "CT", "RCT"], columns)


def _prepare(*configs: ExperimentConfig):
    """Data, log prior and posterior mode: all a chain needs besides its settings.

    The first config names the data and model.  ``compare`` prepares once and
    runs the chains of both its configs on the result; each subsampling config's
    ``group_count``, and a constant series, are refused before the mode search.
    """
    config = configs[0]
    pgram = spectral.periodogram(_load_data(config))
    data = whittle.WhittleData(periodogram=pgram, model=config.model)
    for c in configs:
        if c.method == "subsample" and c.group_count > data.n_freq:
            raise ConfigError(
                f"group_count = {c.group_count} exceeds n_freq = {data.n_freq}, "
                "the number of frequencies in the data"
            )
    if not pgram.ordinates.any():
        raise series.SeriesFileError("the series is constant: every periodogram ordinate is zero")
    spec = config.model
    log_prior_fn = lambda v: models.log_prior(spec, v)
    # log sigma2 starts at the white-noise mode, so data in any units start at their scale
    theta0 = np.zeros(spec.n_params)
    theta0[spec.param_names().index("log_sigma2")] = np.log(2.0 * np.pi * pgram.ordinates.mean())
    mode = sampler.find_mode(data, lambda v: models.log_prior_derivatives(spec, v), theta0)
    return data, log_prior_fn, mode


def _run_chain(config: ExperimentConfig, data, log_prior_fn, mode) -> sampler.ChainOutput:
    """The configured control variate, if any, and one chain."""
    settings = sampler.ChainSettings(
        iterations=config.iterations,
        burn_in=config.burn_in,
        seed=config.component_seed(1),
        m=config.subsample_m,
        n_blocks=config.blocks,
        proposal_scale=config.proposal_scale,
    )
    if config.method == "full":
        return sampler.run_full_chain(data, log_prior_fn, settings, mode)
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
    return sampler.run_pm_chain(data, groups, variate, log_prior_fn, settings, mode)


def _summary_lines(config: ExperimentConfig, data, mode, output) -> list[str]:
    lines = [
        f"method={config.method}",
        f"cv={config.cv if config.method == 'subsample' else 'exact'}",
    ]
    if config.method == "subsample":
        lines += [
            f"blocks={config.blocks}",
            f"group_count={config.group_count}",
            f"m={config.subsample_m}",
        ]
        if config.cv == "coreset":
            lines += [f"coreset_size={config.coreset_size}", f"projections={config.projections}"]
    lines += [
        f"n_time={data.periodogram.grid.n_time}",
        f"n_freq={data.n_freq}",
        # matches separate fits to their data: the periodogram's float64 bytes, in frequency order
        f"periodogram_sha256={hashlib.sha256(data.periodogram.ordinates.tobytes()).hexdigest()}",
        f"parameters={','.join(output.param_names)}",
        f"iterations={config.iterations}",
        f"burn_in={config.burn_in}",
        f"seed={config.seed}",
        f"mode_log_posterior={_fmt(mode.log_posterior)}",
        f"acceptance_rate={_fmt(output.acceptance_rate)}",
        f"density_evals={output.density_evals}",
    ]
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
    sim = _simulate(config)
    path = _ensure_outdir(config) / "series.csv"
    # the column label is a comment so the file feeds straight back into
    # the loader, which treats every non-comment line as data
    with open(path, "w") as handle:
        handle.write("# value\n")
        handle.writelines(_fmt(v) + "\n" for v in sim.values)
    print(f"wrote {path}")


def cmd_periodogram(input_path: str, output_path: str, column: int = 0) -> None:
    data = series.demean(series.load_series(input_path, column=column))
    pgram = spectral.periodogram(data)
    _write_csv(Path(output_path), ["omega", "ordinate"], [pgram.grid.omegas, pgram.ordinates])
    print(f"wrote {output_path}")


def cmd_fit(config_path: str) -> None:
    config = load_config(config_path)
    if config.iterations < 2:  # the posterior sds and the density grids need two draws
        raise ConfigError("fit needs iterations >= 2 to estimate posterior spreads")
    data, log_prior_fn, mode = _prepare(config)
    output = _run_chain(config, data, log_prior_fn, mode)
    # everything is computed before the directory is made: a failed fit leaves nothing
    summary = "\n".join(_summary_lines(config, data, mode, output)) + "\n"
    curves = {
        f"kde_{name}.csv": (["value", "density"], diagnostics.kde_grid(column))
        for name, column in zip(output.param_names, output.draws.T)
    }
    grid = data.periodogram.grid
    log_spec = diagnostics.posterior_mean_spectrum(_thinned(output.draws), config.model, grid)
    curves["spectrum.csv"] = (["omega", "mean_log_density"], (grid.omegas, log_spec))

    out = _ensure_outdir(config)
    _write_csv(out / "draws.csv", output.param_names, output.draws.T)
    (out / "summary.txt").write_text(summary)
    for filename, (header, columns) in curves.items():
        _write_csv(out / filename, header, columns)
    print(f"wrote artifacts to {out}")


_DATA_FIELDS = tuple(_KEYS["data"])


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
    if min(config_full.iterations, config_sub.iterations) < diagnostics.IF_MIN_DRAWS:
        least = diagnostics.IF_MIN_DRAWS
        raise ConfigError(f"compare needs iterations >= {least} in both configs to estimate inefficiency factors")
    target_full, target_sub = _fit_target(config_full), _fit_target(config_sub)
    differ = [name for name in target_full if target_full[name] != target_sub[name]]
    if differ:
        raise ConfigError(
            f"compare needs both configs to fit the same data: {', '.join(differ)} differ"
        )
    # the configs fit the same data and model, so one preparation serves both
    prepared = _prepare(config_full, config_sub)
    out_full = _run_chain(config_full, *prepared)
    out_sub = _run_chain(config_sub, *prepared)

    report_full = diagnostics.efficiency_report(out_full)
    report_sub = diagnostics.efficiency_report(out_sub)
    rct = diagnostics.relative_ct(report_sub, report_full)

    out = _ensure_outdir(config_sub)
    _write_efficiency(out / "efficiency.csv", report_sub, rct)
    _write_efficiency(out / "efficiency_baseline.csv", report_full, np.ones(len(rct)))
    mean_f, sd_f = out_full.draws.mean(axis=0), out_full.draws.std(axis=0, ddof=1)
    mean_s, sd_s = out_sub.draws.mean(axis=0), out_sub.draws.std(axis=0, ddof=1)
    gap = np.abs(mean_s - mean_f) / sd_f
    _write_csv(
        out / "agreement.csv",
        ["parameter", "mean_full", "mean_sub", "sd_full", "sd_sub", "mean_gap_in_sd", "sd_ratio"],
        [out_full.param_names, mean_f, mean_s, sd_f, sd_s, gap, sd_s / sd_f],
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
    if args.command == "periodogram" and args.column < 0:
        parser.error("--column must be non-negative")
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
