"""Workloads, measurement and reporting of the specmcmc benchmark.

Each workload is one process running a closed loop of rounds.  A round is one
subsampled ``specmcmc fit`` with the Taylor variate, preceded on every
FULL_EVERY-th round by the full-data ``specmcmc fit`` it is checked against,
both run in-process through ``specmcmc.cli.main`` on a series the benchmark
generated for that round and wrote to a file.  A new round starts only while
the rounds so far, plus one more as long as the last of its kind, fit in the
measuring window.  The subsampled fit's set-up then runs on its own on further
series, while the window lasts and at least until set-up time is a median of
SETUP_SAMPLES series (the mode search takes longer on some than on others).

End-to-end metrics are measured with tracing off; the only wrappers then are
timestamps at the entry and exit of the chain call, which split set-up from
the chain, and of the variate construction (see :data:`BOUNDARY_TARGETS`).
With tracing on, one more round runs with every public function of interest
wrapped (see :data:`TRACE_TARGETS`), and the layer metrics are read from its
spans.  The traced round also runs a third fit, subsampled with the coreset
variate (see :data:`CORESET`), so that the coreset's construction and
per-iteration cost are measured, and its output checked, on every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
from inputs import Truth, make_series, write_series
from tracing import Tracer, contexts, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import specmcmc  # noqa: E402
from specmcmc import cli, diagnostics, models, sampler, series, spectral, whittle  # noqa: E402
from specmcmc import control_variates as cvs  # noqa: E402

if not Path(specmcmc.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"specmcmc imported from {specmcmc.__file__}, not from {SRC}")

# Every chain uses this seed, while round k's series comes from (workload
# seed, k).  The random-walk proposal is scaled by the Laplace covariance at
# the mode, so with common random numbers the chains of different series take
# nearly the same standardised path, and the inefficiency factor behind the
# ESS rates varies far less from run to run than estimation noise would make
# it (for the arma21 Taylor chain at 4000 draws, the interquartile spread of
# min ESS over ten seeds fell from 0.14 to 0.075 of the median; the full-data
# chain's factor repeats almost exactly).
CHAIN_SEED = 101
SETUP_SAMPLES = 5
# Subsampled fits are shorter and vary more from series to series and from
# moment to moment (their chain is interpreter-bound) than full-data fits, so a
# run makes twice as many: within one run the subsampled fit times spread
# nearly twice as wide (relative SD 0.10 to 0.15 against 0.06 to 0.08).
FULL_EVERY = 2
REFERENCE_PATH = HERE / "reference.json"
WORK = HERE / "work"

ARMA21 = Truth(phi=(0.22, -0.1), theta=(0.5,), sigma2=1.0)
TEMPERED = Truth(d=0.45, lam=0.045, sigma2=1.0)


# The coreset fit of the traced round, the same on every workload.  Its wall
# time is a per-layer metric, not an end-to-end one: the coreset chain and
# construction are interpreter-bound, and on a shared 2-vCPU machine their wall
# time for identical work moves with the machine's load: across six consecutive
# 40-second runs on ARMA(2,1) series the 3300-iteration chain took 1.9 s to
# 3.2 s and the whole fit's median 4.3 s to 5.8 s, and over ten runs the fit's
# median spread 0.27 of its median between quartiles, more than the largest
# bound an end-to-end metric may have.
CORESET = {
    "group_count": 50,
    "m_percent": 10.0,
    "coreset_size": 20,
    "projections": 100,
    "iterations": 3_000,
}


@dataclass(frozen=True)
class Workload:
    """Series to generate and the fit configuration to run on it."""

    name: str
    why: str
    truth: Truth
    n_time: int
    group_count: int
    m_percent: float
    full_iterations: int
    sub_iterations: int

    @property
    def family(self) -> str:
        return "arma" if self.truth.lam is None else "artfima"

    def settings(self, method: str) -> dict:
        """``[sampler]`` settings of the full, subsample (Taylor) or coreset fit."""
        if method == "coreset":
            return {"method": "subsample", "cv": "coreset", **CORESET}
        return {
            "method": method,
            "cv": "none" if method == "full" else "taylor",
            "group_count": self.group_count,
            "m_percent": self.m_percent,
            "iterations": self.full_iterations if method == "full" else self.sub_iterations,
        }

    def iterations(self, method: str) -> int:
        """Kept draws of the chain; a tenth as many more are burn-in."""
        return self.settings(method)["iterations"]

    def config(self, method: str, series_path: Path, out_dir: Path, chain_seed: int) -> str:
        """The ``specmcmc fit`` config for ``method``: full, subsample or coreset."""
        settings = self.settings(method)
        return "\n".join(
            [
                "[data]",
                "source = file",
                f"path = {series_path}",
                "[model]",
                f"family = {self.family}",
                f"ar_order = {len(self.truth.phi)}",
                f"ma_order = {len(self.truth.theta)}",
                "[sampler]",
                *(f"{key} = {value}" for key, value in settings.items()),
                "blocks = 10",
                f"burn_in = {settings['iterations'] // 10}",
                f"seed = {chain_seed}",
                "[output]",
                f"directory = {out_dir}",
                "",
            ]
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="arma21_taylor",
            why="paper headline ARMA(2,1), n_freq 5e4: full chain bound by the whittle/models "
            "kernel, Taylor subsampled chain by per-iteration Python in sampler",
            truth=ARMA21,
            n_time=100_001,
            group_count=500,
            m_percent=1.0,
            full_iterations=2_000,
            sub_iterations=6_000,
        ),
        Workload(
            name="artfima_taylor",
            why="tempered memory, n_freq 1e5: set-up (load, mode search) and summaries "
            "(posterior spectrum) dominate; fractional power on the density path",
            truth=TEMPERED,
            n_time=200_001,
            group_count=1_000,
            m_percent=1.0,
            full_iterations=1_500,
            sub_iterations=4_000,
        ),
    )
}

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_EFFECTS = {
    "whittle": "full_fit_s, full_ess_per_s on arma21_taylor and artfima_taylor; setup_s on "
    "artfima_taylor; almost no change to sub_fit_s on arma21_taylor",
    "models": "as whittle; log_prior_s instead moves sub_fit_s on arma21_taylor",
    "sampler": "find_mode_* moves setup_s on artfima_taylor; sub_iter_us, diff_estimator_us and "
    "block_refresh_us move sub_fit_s and sub_ess_per_s on arma21_taylor",
    "control_variates": "build_s moves setup_s, group_values_us and total_us move sub_fit_s, on "
    "both workloads; the coreset_* metrics, project_group_s and giga_s come from the traced "
    "coreset fit and move no end-to-end metric",
    "diagnostics": "kde_s and posterior_spectrum_s move both *_fit_s on artfima_taylor; RCT "
    "metrics are reported, not gated",
    "series": "load_s moves setup_s on artfima_taylor",
    "spectral": "periodogram_s predicted to move nothing measurable",
    "cli": "self_s and bytes_written move both *_fit_s on every workload",
    "trace": "overhead_frac: traced sub_fit_s over untraced sub_fit_s, minus 1",
}

# The gated end-to-end metrics: the JSON line of an untraced run.
END_TO_END = {
    "setup_s": "s",
    "sub_fit_s": "s",
    "full_fit_s": "s",
    "full_ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed and recorded beside them, but not gated: the subsampled chain is
# interpreter-bound, and on a shared 2-vCPU machine its wall time for the same
# work varies from run to run (see CORESET), while its inefficiency factor, unlike the
# full chain's, changes from series to series; its ESS rate spread 0.25 of the
# median over five runs of artfima_taylor, so it cannot be held within a 0.25
# bound.  It is also a per-layer metric, and sub_fit_s carries the same chain.
REPORTED = {**END_TO_END, "sub_ess_per_s": "1/s"}

PER_LAYER = {
    "whittle.full_loglik_ms": "ms",
    "whittle.terms_calls": "count",
    "whittle.terms_freqs": "count",
    "whittle.terms_s": "s",
    "whittle.terms_ns_per_freq": "ns",
    "whittle.self_s": "s",
    "models.spectral_density_ms": "ms",
    "models.log_prior_calls": "count",
    "models.log_prior_s": "s",
    "models.self_s": "s",
    "sampler.find_mode_s": "s",
    "sampler.find_mode_terms_calls": "count",
    "sampler.sub_iter_us": "us",
    "sampler.full_iter_us": "us",
    "sampler.coreset_iter_us": "us",
    "sampler.diff_estimator_us": "us",
    "sampler.block_refresh_us": "us",
    "sampler.sub_accept": "ratio",
    "sampler.full_accept": "ratio",
    "sampler.sub_evals_charged": "count",
    "sampler.full_evals_charged": "count",
    "sampler.sub_terms_freqs_actual": "count",
    "sampler.full_terms_freqs_actual": "count",
    "sampler.sub_ess_per_s": "1/s",
    "sampler.sigma2_hat_p50": "var",
    "sampler.sigma2_hat_p90": "var",
    "sampler.self_s": "s",
    "control_variates.build_s": "s",
    "control_variates.grad_hess_s": "s",
    "control_variates.coreset_build_s": "s",
    "control_variates.project_group_s": "s",
    "control_variates.giga_s": "s",
    "control_variates.setup_evals_charged": "count",
    "control_variates.setup_terms_freqs_actual": "count",
    "control_variates.group_values_us": "us",
    "control_variates.total_us": "us",
    "control_variates.eval_cost": "count",
    "control_variates.coreset_group_values_us": "us",
    "control_variates.coreset_total_us": "us",
    "control_variates.coreset_eval_cost": "count",
    "control_variates.coreset_setup_evals_charged": "count",
    "control_variates.coreset_setup_terms_freqs_actual": "count",
    "control_variates.self_s": "s",
    "diagnostics.kde_s": "s",
    "diagnostics.posterior_spectrum_s": "s",
    "diagnostics.if_max_sub": "ratio",
    "diagnostics.if_max_full": "ratio",
    "diagnostics.rct_evals_min": "ratio",
    "diagnostics.rct_actual_evals_min": "ratio",
    "diagnostics.rct_wall_min": "ratio",
    "diagnostics.self_s": "s",
    "series.load_s": "s",
    "series.demean_s": "s",
    "series.self_s": "s",
    "spectral.periodogram_s": "s",
    "spectral.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.fit_wall_s": "s",
    "trace.coreset_fit_s": "s",
    "trace.wrapped_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def _terms_freqs(args, kwargs, result) -> float:
    return float(np.size(result))


def _sigma2_hat(args, kwargs, result) -> float:
    return result.sigma2_hat


# The only wrappers of an untraced fit: the chain call, whose entry splits
# set-up off, and the variate construction, which the wall-clock RCT charges to
# the subsampled chain as the evaluation counts do.
BUILD_NAMES = (
    "control_variates.build_taylor_cv",
    "control_variates.laplace_weighting",
    "control_variates.build_coreset_cv",
)
BOUNDARY_TARGETS = (
    (sampler, "run_full_chain", "sampler.run_full_chain", None, False),
    (sampler, "run_pm_chain", "sampler.run_pm_chain", None, True),
    (cvs, "build_taylor_cv", BUILD_NAMES[0], None, False),
    (cvs, "laplace_weighting", BUILD_NAMES[1], None, False),
    (cvs, "build_coreset_cv", BUILD_NAMES[2], None, False),
)

# (owner, attribute, span name, note, keep args).  Each is looked up where the
# caller finds it; the span name is the defining module and the function.
TRACE_TARGETS = BOUNDARY_TARGETS + (
    (series, "load_series", "series.load_series", None, False),
    (series, "demean", "series.demean", None, False),
    (spectral, "periodogram", "spectral.periodogram", None, False),
    (whittle.WhittleData, "__post_init__", "whittle.WhittleData", None, False),
    (whittle.WhittleData, "terms", "whittle.terms", _terms_freqs, False),
    (models, "log_prior", "models.log_prior", None, False),
    (sampler, "find_mode", "sampler.find_mode", None, False),
    (sampler, "full_loglik", "whittle.full_loglik", None, False),
    (sampler, "diff_estimator", "sampler.diff_estimator", _sigma2_hat, False),
    (sampler, "block_refresh", "sampler.block_refresh", None, False),
    (cvs, "make_groups", "control_variates.make_groups", None, False),
    (cvs, "grad_hess", "whittle.grad_hess", None, False),
    (cvs, "project_group", "control_variates.project_group", None, False),
    (cvs, "giga", "control_variates.giga", None, False),
    (cvs.TaylorCV, "group_values", "control_variates.group_values", None, False),
    (cvs.TaylorCV, "total", "control_variates.total", None, False),
    (cvs.CoresetCV, "group_values", "control_variates.group_values", None, False),
    (cvs.CoresetCV, "total", "control_variates.total", None, False),
    (diagnostics, "kde_grid", "diagnostics.kde_grid", None, False),
    (diagnostics, "posterior_mean_spectrum", "diagnostics.posterior_mean_spectrum", None, False),
)

CONTEXTS = (
    "sampler.run_full_chain",
    "sampler.run_pm_chain",
    "sampler.find_mode",
    "control_variates.build_taylor_cv",
    "control_variates.build_coreset_cv",
)


def install(tracer: Tracer, targets) -> None:
    for owner, attr, name, note, keep_args in targets:
        tracer.install(owner, attr, name, note=note, keep_args=keep_args)


class _StopAtChain(BaseException):
    """Raised at the chain call to end a set-up-only run; ``cli.main`` lets it through."""


@dataclass
class Fit:
    """One ``specmcmc fit`` and what the benchmark read back from it."""

    method: str
    exit_code: int
    wall_s: float
    first_span: int  # index of the fit's root span in its tracer
    setup_s: float = math.nan
    chain_s: float = math.nan
    build_s: float = 0.0
    summary: dict = field(default_factory=dict)
    draws: np.ndarray | None = None
    if_values: np.ndarray | None = None
    bytes_written: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.failures)

    @property
    def ess_per_s(self) -> float:
        return len(self.draws) / float(np.max(self.if_values)) / self.chain_s


@dataclass
class Round:
    full: Fit | None  # rounds without the full-data fit: see FULL_EVERY
    sub: Fit
    wall_s: float
    coreset: Fit | None = None  # traced rounds only


class Run:
    """One benchmark process: generated inputs, fits, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.w = workload
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _record(self, failed: bool, messages) -> None:
        self.attempted += 1
        self.failed += int(failed)
        self.failures.extend(messages)

    def config(self, k: int, method: str) -> Path:
        """Config of round ``k``, on its own series generated from (seed, k)."""
        series_path = self.work / f"series-{k}.txt"
        if not series_path.exists():
            write_series(make_series(self.w.truth, self.w.n_time, (self.seed, k)), series_path)
        path = self.work / f"{method}-{k}.ini"
        path.write_text(self.w.config(method, series_path, self.work / method, CHAIN_SEED))
        return path

    def fit(self, k: int, method: str, tracer: Tracer) -> Fit:
        """Run one fit in-process; the caller has installed at least BOUNDARY_TARGETS."""
        config = self.config(k, method)
        out = self.work / method
        shutil.rmtree(out, ignore_errors=True)
        first = len(tracer.spans)
        with tracer.root("cli.fit") as root, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fit", str(config)])
        fit = Fit(method=method, exit_code=code, wall_s=root.duration, first_span=first)
        if code != 0:
            fit.failures.append(f"{method} fit exited with {code}")
            return fit
        chain_name = "sampler.run_full_chain" if method == "full" else "sampler.run_pm_chain"
        chain = next(s for s in tracer.spans[first:] if s.name == chain_name)
        fit.setup_s = chain.start - root.start
        fit.chain_s = chain.duration
        fit.build_s = sum(s.duration for s in tracer.spans[first:] if s.name in BUILD_NAMES)
        fit.summary = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        fit.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        _, fit.draws = checks.read_draws(out / "draws.csv")
        fit.if_values = np.array(
            [diagnostics.inefficiency_factor(col) for col in fit.draws.T]
        )
        truth, n_time = self.w.truth, self.w.n_time
        fit.failures += checks.recovery(truth, fit.draws)
        fit.failures += checks.spectrum(
            truth, checks.read_spectrum(out / "spectrum.csv"), fit.draws, n_time
        )
        return fit

    def round(self, k: int, tracer: Tracer | None = None, full: bool = True) -> Round:
        """Round ``k``: full-data fit unless ``full`` is false, subsampled fit, then
        the checks that compare them.

        Without ``tracer`` each fit gets its own chain-boundary tracer; a given
        tracer must already be installed and stays installed, and the round
        then adds the coreset fit.
        """
        start = perf_counter()
        fits = {}
        methods = (("full",) if full else ()) + ("subsample",)
        if tracer is not None:
            methods += ("coreset",)
        for method in methods:
            if tracer is not None:
                fits[method] = self.fit(k, method, tracer)
                continue
            with Tracer() as boundary:
                install(boundary, BOUNDARY_TARGETS)
                fits[method] = self.fit(k, method, boundary)
        reference = fits.get("full")
        for fit in fits.values():
            if reference is not None and fit is not reference and not (reference.failed or fit.failed):
                fit.failures += checks.agreement(
                    reference.draws, fit.draws, reference.if_values, fit.if_values
                )
            self._record(fit.failed, fit.failures)
        return Round(
            full=reference,
            sub=fits["subsample"],
            wall_s=perf_counter() - start,
            coreset=fits.get("coreset"),
        )

    def setup_only(self, k: int) -> float:
        """Seconds from the start of a subsampled fit on series ``k`` to its chain call."""
        config = self.config(k, "subsample")
        original = sampler.run_pm_chain

        def stop(*args, **kwargs):
            raise _StopAtChain(perf_counter())

        sampler.run_pm_chain = stop
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["fit", str(config)])
        except _StopAtChain as reached:
            self._record(False, [])
            return reached.args[0] - start
        finally:
            sampler.run_pm_chain = original
        self._record(True, [f"set-up-only fit exited with {code} before the chain"])
        return math.nan

    def check_reference(self) -> None:
        """full_loglik at the stored theta on the stored-seed series."""
        ref = json.loads(REFERENCE_PATH.read_text())[self.w.name]
        messages = checks.loglik_reference(reference_loglik(self.w, ref), ref["full_loglik"])
        self._record(bool(messages), messages)


def reference_loglik(w: Workload, ref: dict) -> float:
    """The program's full_loglik on the reference series at the reference theta."""
    values = make_series(w.truth, ref["n_time"], ref["seed"])
    model = models.ModelSpec(
        len(w.truth.phi), len(w.truth.theta), fractional="none" if w.truth.lam is None else "artfima"
    )
    data = whittle.WhittleData(
        periodogram=spectral.periodogram(series.demean(series.TimeSeries(values))), model=model
    )
    return whittle.full_loglik(data, np.asarray(ref["theta"], dtype=float))


def _rounds(run: Run, deadline: float) -> list[Round]:
    """Closed loop: a new round only while one more as long as the last of its
    kind fits; where a round with the full-data fit no longer fits, one without
    it may still."""
    rounds, length = [], {True: 0.0, False: 0.0}
    while True:
        full = len(rounds) % FULL_EVERY == 0
        if rounds and perf_counter() + length[full] > deadline:
            full = False
            if perf_counter() + length[False] > deadline:
                return rounds
        rounds.append(run.round(len(rounds), full=full))
        length[full] = rounds[-1].wall_s


def _setups(run: Run, first: int, deadline: float) -> list[float]:
    """Set-up-only fits on the series after the rounds' ones: as many as make
    SETUP_SAMPLES set-up times in all, then more while one more fits."""
    setups, last = [], 0.0
    while first + len(setups) < SETUP_SAMPLES or perf_counter() + last < deadline:
        last = run.setup_only(first + len(setups))
        setups.append(last)
    return setups


def _ok(fits) -> list[Fit]:
    return [f for f in fits if not f.failed]


def _summary(values) -> dict:
    values = [v for v in values if math.isfinite(v)]
    if not values:
        return {"median": math.nan, "max": math.nan, "n": 0, "samples": []}
    return {
        "median": statistics.median(values),
        "max": max(values),
        "n": len(values),
        "samples": values,
    }


def end_to_end(rounds: list[Round], setups: list[float]) -> dict:
    """Median, maximum and sample count of every end-to-end metric."""
    subs = _ok(r.sub for r in rounds)
    fulls = _ok(r.full for r in rounds if r.full)
    return {
        "setup_s": _summary([f.setup_s for f in subs] + setups),
        "sub_fit_s": _summary([f.wall_s for f in subs]),
        "full_fit_s": _summary([f.wall_s for f in fulls]),
        "sub_ess_per_s": _summary([f.ess_per_s for f in subs]),
        "full_ess_per_s": _summary([f.ess_per_s for f in fulls]),
        "peak_rss_mb": _summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
    }


def _per_call(fn, min_calls: int = 5, min_seconds: float = 0.2) -> float:
    """Median seconds of one call, over at least min_calls calls and min_seconds."""
    times = []
    while len(times) < min_calls or sum(times) < min_seconds:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _steps(w: Workload, method: str) -> int:
    return w.iterations(method) + w.iterations(method) // 10


def _indicators(groups, settings) -> sampler.SubsampleIndicators:
    """Subsample indicators drawn with a fixed seed, for micro-timings."""
    u = np.random.default_rng(0).integers(0, groups.n_groups, size=settings.m)
    return sampler.SubsampleIndicators(u=u, n_blocks=settings.n_blocks, n_groups=groups.n_groups)


def per_layer(run: Run, rounds: list[Round], tracer: Tracer, traced: Round) -> dict:
    """Layer metrics from the traced round's spans plus untraced rounds and micro-timings.

    Totals are over the traced full and Taylor fits; the ``coreset_*`` metrics,
    ``project_group_s`` and ``giga_s`` are over the traced coreset fit.
    """
    spans = tracer.spans[: traced.coreset.first_span]
    core = tracer.spans[traced.coreset.first_span :]
    selfs = self_times(spans)
    ctx = contexts(spans, CONTEXTS)
    totals = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    freqs = defaultdict(float)
    sigma2 = []
    for i, s in enumerate(spans):
        totals[s.name] += s.duration
        calls[s.name] += 1
        layer_self[s.layer] += selfs[i]
        if s.name == "whittle.terms":
            freqs[ctx[i]] += s.note
            if ctx[i] == "sampler.find_mode":
                calls["find_mode.terms"] += 1
        elif s.name == "sampler.diff_estimator" and ctx[i] == "sampler.run_pm_chain":
            sigma2.append(s.note)
    fit_wall = sum(s.duration for s in spans if s.name == "cli.fit")
    terms_self = sum(selfs[i] for i, s in enumerate(spans) if s.name == "whittle.terms")
    terms_freqs = sum(s.note for s in spans if s.name == "whittle.terms")
    build_freqs = sum(freqs[name] for name in BUILD_NAMES)

    # objects the traced subsampled chains were called with, for micro-timings
    data, groups, cv, _, settings, mode = next(
        s.args for s in spans if s.name == "sampler.run_pm_chain"
    )
    fixed = _indicators(groups, settings)
    _, core_groups, core_cv, _, core_settings, _ = next(
        s.args for s in core if s.name == "sampler.run_pm_chain"
    )
    core_fixed = _indicators(core_groups, core_settings)
    core_totals = defaultdict(float)
    core_build_freqs = 0.0
    core_ctx = contexts(tracer.spans, CONTEXTS)[traced.coreset.first_span :]
    for s, c in zip(core, core_ctx):
        core_totals[s.name] += s.duration
        if s.name == "whittle.terms" and c == "control_variates.build_coreset_cv":
            core_build_freqs += s.note
    rng = np.random.default_rng(0)
    nat = models.to_natural(data.model, mode.theta)
    omegas = data.periodogram.grid.omegas

    subs = _ok(r.sub for r in rounds)
    fulls = _ok(r.full for r in rounds if r.full)
    if not (subs and fulls):
        raise RuntimeError("no untraced round passed: " + "; ".join(run.failures))
    sub, full = subs[len(subs) // 2], fulls[len(fulls) // 2]
    sub_evals = int(sub.summary["density_evals"])
    full_evals = int(full.summary["density_evals"])
    sub_actual = freqs["sampler.run_pm_chain"] + build_freqs
    full_actual = freqs["sampler.run_full_chain"]
    # Computing time per kept draw, full over subsampled, per parameter.  Each
    # basis counts the chain plus the variate construction and leaves out the
    # mode search: the charged count because run_pm_chain adds the variate's
    # setup_evals, the actual count and the wall time by adding the build.
    draws = run.w.full_iterations / run.w.sub_iterations

    def rct(cost_full, cost_sub) -> float:
        return float(np.min(full.if_values * cost_full / (sub.if_values * cost_sub * draws)))

    return {
        "whittle.full_loglik_ms": 1e3 * _per_call(lambda: whittle.full_loglik(data, mode.theta)),
        "whittle.terms_calls": calls["whittle.terms"],
        "whittle.terms_freqs": terms_freqs,
        "whittle.terms_s": terms_self,
        "whittle.terms_ns_per_freq": 1e9 * terms_self / terms_freqs,
        "whittle.self_s": layer_self["whittle"],
        "models.spectral_density_ms": 1e3
        * _per_call(lambda: models.spectral_density(data.model, nat, omegas)),
        "models.log_prior_calls": calls["models.log_prior"],
        "models.log_prior_s": totals["models.log_prior"],
        "models.self_s": layer_self["models"],
        "sampler.find_mode_s": totals["sampler.find_mode"],
        "sampler.find_mode_terms_calls": calls["find_mode.terms"],
        "sampler.sub_iter_us": 1e6 * statistics.median(f.chain_s for f in subs) / _steps(run.w, "subsample"),
        "sampler.full_iter_us": 1e6 * statistics.median(f.chain_s for f in fulls) / _steps(run.w, "full"),
        "sampler.coreset_iter_us": 1e6 * traced.coreset.chain_s / _steps(run.w, "coreset"),
        "sampler.diff_estimator_us": 1e6
        * _per_call(lambda: sampler.diff_estimator(data, groups, cv, mode.theta, fixed)),
        "sampler.block_refresh_us": 1e6 * _per_call(lambda: sampler.block_refresh(fixed, 0, rng)),
        "sampler.sub_ess_per_s": statistics.median(f.ess_per_s for f in subs),
        "sampler.sub_accept": float(sub.summary["acceptance_rate"]),
        "sampler.full_accept": float(full.summary["acceptance_rate"]),
        "sampler.sub_evals_charged": sub_evals,
        "sampler.full_evals_charged": full_evals,
        "sampler.sub_terms_freqs_actual": sub_actual,
        "sampler.full_terms_freqs_actual": full_actual,
        "sampler.sigma2_hat_p50": float(np.percentile(sigma2, 50)),
        "sampler.sigma2_hat_p90": float(np.percentile(sigma2, 90)),
        "sampler.self_s": layer_self["sampler"],
        "control_variates.build_s": sum(totals[name] for name in BUILD_NAMES),
        "control_variates.grad_hess_s": totals["whittle.grad_hess"],
        "control_variates.coreset_build_s": sum(core_totals[name] for name in BUILD_NAMES),
        "control_variates.project_group_s": core_totals["control_variates.project_group"],
        "control_variates.giga_s": core_totals["control_variates.giga"],
        "control_variates.setup_evals_charged": cv.setup_evals,
        "control_variates.setup_terms_freqs_actual": build_freqs,
        "control_variates.group_values_us": 1e6
        * _per_call(lambda: cv.group_values(data, mode.theta, fixed.u)),
        "control_variates.total_us": 1e6 * _per_call(lambda: cv.total(data, mode.theta)),
        "control_variates.eval_cost": cv.eval_cost,
        "control_variates.coreset_group_values_us": 1e6
        * _per_call(lambda: core_cv.group_values(data, mode.theta, core_fixed.u)),
        "control_variates.coreset_total_us": 1e6 * _per_call(lambda: core_cv.total(data, mode.theta)),
        "control_variates.coreset_eval_cost": core_cv.eval_cost,
        "control_variates.coreset_setup_evals_charged": core_cv.setup_evals,
        "control_variates.coreset_setup_terms_freqs_actual": core_build_freqs,
        "control_variates.self_s": layer_self["control_variates"],
        "diagnostics.kde_s": totals["diagnostics.kde_grid"],
        "diagnostics.posterior_spectrum_s": totals["diagnostics.posterior_mean_spectrum"],
        "diagnostics.if_max_sub": float(np.max(sub.if_values)),
        "diagnostics.if_max_full": float(np.max(full.if_values)),
        "diagnostics.rct_evals_min": rct(full_evals, sub_evals),
        "diagnostics.rct_actual_evals_min": rct(full_actual, sub_actual),
        "diagnostics.rct_wall_min": rct(full.chain_s, sub.chain_s + sub.build_s),
        "diagnostics.self_s": layer_self["diagnostics"],
        "series.load_s": totals["series.load_series"],
        "series.demean_s": totals["series.demean"],
        "series.self_s": layer_self["series"],
        "spectral.periodogram_s": totals["spectral.periodogram"],
        "spectral.self_s": layer_self["spectral"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": traced.full.bytes_written + traced.sub.bytes_written,
        "trace.fit_wall_s": fit_wall,
        "trace.coreset_fit_s": traced.coreset.wall_s,
        "trace.wrapped_frac": 1.0 - layer_self["cli"] / fit_wall,
        "trace.overhead_frac": traced.sub.wall_s / rounds[0].sub.wall_s - 1.0,
        "trace.spans": len(spans),
    }


def git_sha() -> str | None:
    """HEAD of the repository the benchmark sits in; None outside a git checkout.

    The ceiling keeps git from searching the directories above the checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        return None
    return out or None


def environment(run: Run) -> dict:
    config = cli.load_config(run.config(0, "subsample"))
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "n_time": run.w.n_time,
        "n_freq": (run.w.n_time - 1) // 2,
        "group_count": run.w.group_count,
        "m": config.subsample_m,
        "full_iterations": run.w.full_iterations,
        "sub_iterations": run.w.sub_iterations,
        "chain_seed": CHAIN_SEED,
        "series_seeds": "(seed, round)",
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload; returns the result record (metrics, checks, environment)."""
    run = Run(workload, seed, work)
    run.check_reference()
    deadline = perf_counter() + seconds
    rounds = _rounds(run, deadline)
    setups = _setups(run, len(rounds), deadline)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "environment": environment(run),
        "layer_effects": LAYER_EFFECTS,
        "end_to_end": end_to_end(rounds, setups),
        "fits": [
            {
                "round": k,
                "method": fit.method,
                "wall_s": fit.wall_s,
                "setup_s": fit.setup_s,
                "chain_s": fit.chain_s,
                "build_s": fit.build_s,
                "if_max": float(np.max(fit.if_values)) if fit.if_values is not None else None,
                "failures": fit.failures,
            }
            for k, r in enumerate(rounds)
            for fit in (r.full, r.sub)
            if fit is not None
        ],
    }
    if trace:
        with Tracer() as tracer:
            install(tracer, TRACE_TARGETS)
            traced = run.round(0, tracer)
        record["per_layer"] = per_layer(run, rounds, tracer, traced)
    record["attempted"] = run.attempted
    record["failed"] = run.failed
    record["failures"] = run.failures
    record["fail_frac"] = run.failed / run.attempted
    return record


def result_line(record: dict) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer ones when traced."""
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k]["median"], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report_lines(record: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the checks."""
    lines = [f"workload {record['workload']} seed {record['seed']} rounds {record['rounds']}"]
    for name, unit in REPORTED.items():
        s = record["end_to_end"][name]
        lines.append(f"  {name} = {s['median']:.6g} {unit} (max {s['max']:.6g}, n={s['n']})")
    lines.append(f"  fail_frac = {record['fail_frac']:.6g} ({record['failed']}/{record['attempted']})")
    for name, unit in PER_LAYER.items() if record["trace"] else ():
        lines.append(f"  {name} = {record['per_layer'][name]:.6g} {unit}")
    lines += [f"  FAILED: {msg}" for msg in record["failures"]]
    return lines
