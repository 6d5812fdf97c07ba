"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

TINY = {
    name: replace(w, n_time=4_001, full_iterations=400, sub_iterations=400, group_count=40, m_percent=10.0)
    for name, w in bench.WORKLOADS.items()
}


def _targets():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in bench.TRACE_TARGETS}


@pytest.fixture(scope="module")
def traced_record(tmp_path_factory):
    before = _targets()
    record = bench.run_workload(TINY["arma21_taylor"], 5, 0.0, True, tmp_path_factory.mktemp("run"))
    return record, before


def test_smoke_run_emits_every_metric_with_its_unit(traced_record):
    record, _ = traced_record
    assert record["failed"] == 0, record["failures"]
    for trace, names in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
        line = bench.result_line({**record, "trace": trace})
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == set(names)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == names[name]
            assert np.isfinite(metric["value"]), name
    report = "\n".join(bench.report_lines(record))
    for name, unit in {**bench.REPORTED, **bench.PER_LAYER}.items():
        assert f"{name} = " in report and unit in report


def test_layer_self_times_add_up_to_the_traced_fits(traced_record):
    """Every layer has a self_s metric, and the wrapped layers explain part of the wall time."""
    layers = traced_record[0]["per_layer"]
    own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert own == pytest.approx(layers["trace.fit_wall_s"], rel=1e-9)
    assert 0.0 < layers["trace.wrapped_frac"] < 1.0
    assert layers["trace.wrapped_frac"] == pytest.approx(
        1.0 - layers["cli.self_s"] / layers["trace.fit_wall_s"], rel=1e-12
    )


def test_traced_round_times_the_coreset_variate(traced_record):
    """The traced round's coreset fit ran, passed its checks and gave its layer metrics."""
    record = traced_record[0]
    assert record["failed"] == 0, record["failures"]
    layers = record["per_layer"]
    assert layers["control_variates.project_group_s"] > 0.0
    assert 0.0 < layers["control_variates.coreset_build_s"] < layers["trace.coreset_fit_s"]
    assert layers["control_variates.coreset_eval_cost"] > 0
    # construction evaluates every projection but is charged for coreset_size sweeps
    assert (
        layers["control_variates.coreset_setup_terms_freqs_actual"]
        > layers["control_variates.coreset_setup_evals_charged"]
        > 0
    )


def test_wall_rct_counts_the_variate_build(traced_record):
    """Wall-clock RCT charges the subsampled side with its variate build, as the counts do."""
    record = traced_record[0]
    subs = [f for f in record["fits"] if f["method"] == "subsample"]
    assert all(f["build_s"] > 0.0 for f in subs)
    assert all(f["build_s"] == 0.0 for f in record["fits"] if f["method"] == "full")


def test_round_without_full_fit_checks_the_subsampled_fit_alone(tmp_path):
    run = bench.Run(TINY["arma21_taylor"], 5, tmp_path)
    rnd = run.round(1, full=False)
    assert rnd.full is None and rnd.sub.draws is not None
    assert (run.attempted, run.failed) == (1, 0), run.failures


def test_traced_run_restores_every_wrapper(traced_record):
    _, before = traced_record
    after = _targets()
    assert all(after[key] is original for key, original in before.items())


def test_wrappers_restored_when_the_call_raises():
    before = _targets()
    with pytest.raises(AttributeError):
        with Tracer() as tracer:
            bench.install(tracer, bench.TRACE_TARGETS)
            bench.sampler.find_mode(None, None, np.zeros(0))
    assert tracer.spans[0].name == "sampler.find_mode"
    assert all(_targets()[key] is original for key, original in before.items())


def test_self_times_subtract_children():
    tracer = Tracer()
    with tracer.root("cli.fit"):
        with tracer.root("sampler.a"):
            pass
        with tracer.root("whittle.b"):
            pass
    selfs = self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration, rel=1e-12)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]


@pytest.fixture(scope="module")
def fit_files(tmp_path_factory):
    """A small full and subsampled fit of each model family, left on disk."""
    out = {}
    for name in ("arma21_taylor", "artfima_taylor"):
        w = replace(TINY[name], full_iterations=3_000, sub_iterations=3_000, m_percent=25.0)
        run = bench.Run(w, 7, tmp_path_factory.mktemp(name))
        rnd = run.round(0)
        assert run.failed == 0, run.failures
        out[name] = (run, rnd)
    return out


@pytest.mark.parametrize("name", ["arma21_taylor", "artfima_taylor"])
def test_checks_pass_on_real_output(fit_files, name):
    run, rnd = fit_files[name]
    for method in ("full", "subsample"):
        _, draws = checks.read_draws(run.work / method / "draws.csv")
        table = checks.read_spectrum(run.work / method / "spectrum.csv")
        assert checks.recovery(run.w.truth, draws) == []
        assert checks.spectrum(run.w.truth, table, draws, run.w.n_time) == []
    assert checks.agreement(rnd.full.draws, rnd.sub.draws, rnd.full.if_values, rnd.sub.if_values) == []


@pytest.mark.parametrize("name", ["arma21_taylor", "artfima_taylor"])
def test_checks_fail_on_perturbed_draws(fit_files, name):
    run, rnd = fit_files[name]
    path = run.work / "subsample" / "draws.csv"
    header, draws = checks.read_draws(path)
    for column in range(draws.shape[1]):
        shifted = draws.copy()
        shifted[:, column] += 8.0 * draws[:, column].std()
        np.savetxt(path, shifted, delimiter=",", header=",".join(header), comments="")
        _, reread = checks.read_draws(path)
        assert checks.recovery(run.w.truth, reread), column
        assert checks.agreement(rnd.full.draws, reread, rnd.full.if_values, rnd.sub.if_values)
    widened = draws.mean(axis=0) + 1.5 * (draws - draws.mean(axis=0))
    assert checks.agreement(rnd.full.draws, widened, rnd.full.if_values, rnd.sub.if_values)


@pytest.mark.parametrize("name", ["arma21_taylor", "artfima_taylor"])
def test_checks_fail_on_perturbed_spectrum(fit_files, name):
    run, rnd = fit_files[name]
    path = run.work / "full" / "spectrum.csv"
    table = checks.read_spectrum(path)
    for rows, shift in ((slice(None), 0.5), (slice(-50, None), 0.5), (slice(0, 3), 10.0)):
        bent = table.copy()
        bent[rows, 1] += shift
        np.savetxt(path, bent, delimiter=",", header="omega,mean_log_density", comments="")
        reread = checks.read_spectrum(path)
        assert checks.spectrum(run.w.truth, reread, rnd.full.draws, run.w.n_time), rows
    assert checks.spectrum(run.w.truth, table[:-1], rnd.full.draws, run.w.n_time)


def test_reference_loglik_gate_is_live():
    w = bench.WORKLOADS["arma21_taylor"]
    ref = __import__("json").loads(bench.REFERENCE_PATH.read_text())[w.name]
    value = bench.reference_loglik(w, ref)
    assert checks.loglik_reference(value, ref["full_loglik"]) == []
    assert checks.loglik_reference(value * (1 + 1e-9), ref["full_loglik"])


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for truth in (bench.ARMA21, bench.TEMPERED):
        a = inputs.make_series(truth, 2_001, 3)
        assert np.array_equal(a, inputs.make_series(truth, 2_001, 3))
        assert not np.array_equal(a, inputs.make_series(truth, 2_001, 4))


def test_tempered_input_has_the_tempered_spectrum():
    """The generated series' averaged periodogram follows the tempered log-spectrum."""
    truth = bench.TEMPERED
    n = 2**14 + 1
    omegas = 2 * np.pi * np.arange(1, (n - 1) // 2 + 1) / n
    pgrams = []
    for seed in range(20):
        x = inputs.make_series(truth, n, seed)
        coeffs = np.fft.rfft(x - x.mean())[1 : omegas.size + 1]
        pgrams.append(np.abs(coeffs) ** 2 / (2 * np.pi * n))
    ratio = np.mean(pgrams, axis=0)[200:] / np.exp(inputs.log_spectrum(truth, omegas[200:]))
    assert abs(np.mean(ratio) - 1.0) < 0.05


def test_natural_map_matches_the_generating_truth():
    """Unconstrained truth vectors decode to the generating parameters."""
    arma = np.array([[np.arctanh(0.22 / 1.1), np.arctanh(-0.1), np.arctanh(0.5), 0.0]])
    np.testing.assert_allclose(inputs.natural_draws(bench.ARMA21, arma)[0], bench.ARMA21.natural)
    tempered = np.array([[0.45, np.log(0.045), 0.0]])
    np.testing.assert_allclose(inputs.natural_draws(bench.TEMPERED, tempered)[0], bench.TEMPERED.natural)
