"""Tests of the benchmark's own code: span arithmetic, wrappers, output checks.

Run with the program on the path, as the repository's test suite is run:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import re
from pathlib import Path

import pytest

import run
import tracing
import verify
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# --- span arithmetic -------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        ["a", 0, 100, -1],
        ["b", 10, 40, 0],
        ["c", 20, 30, 1],
        ["d", 35, 60, 0],     # overlaps b: the overlap counts once
        ["e", 90, 120, 0],    # runs past its parent: clipped at 100
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 10, 10, 25, 30]


def test_layer_metrics_from_synthetic_spans():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["cli.main", 0, 10_000_000, -1],
        [tracing.EXPERIMENT, 1_000_000, 9_000_000, 0],
        ["channel.sample_channel", 2_000_000, 3_000_000, 1],
        ["channel.sample_channel", 4_000_000, 5_000_000, 1],
        ["geometry.phase_matrix", 4_500_000, 4_600_000, 3],
        ["output.write_csv", 9_000_000, 9_500_000, 0],
    ]
    m = tracing.layer_metrics(tracer, trials=2)
    assert m["cli.main.self_ms"] == pytest.approx(1.5)
    assert m["montecarlo.experiment.self_us_per_trial"] == pytest.approx(3000.0)
    assert m["channel.sample_channel.us_per_trial"] == pytest.approx(1000.0)
    assert m["channel.sample_channel.calls_per_trial"] == 1.0
    assert m["geometry.phase_matrix.calls_per_trial"] == 0.5
    assert m["output.emit_ms"] == pytest.approx(0.5)
    assert m["trace.coverage"] == pytest.approx(2 / 8)
    # functions never called are reported as zero, not left out
    assert m["montecarlo.band_average_gain.calls_per_trial"] == 0.0
    assert m["beams.combined_response.tone_evals_per_trial"] == 0.0


# --- metric names ----------------------------------------------------------

def test_metric_names_are_well_formed_unique_and_all_computed():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in declared)
    assert len(set(declared)) == len(declared)
    computed_layer = set(tracing.layer_metrics(tracing.Tracer(), trials=1)) | {
        "trace.overhead_frac", "montecarlo.pool.speedup", "montecarlo.pool.cpu_per_wall"}
    assert computed_layer == {m["name"] for m in SPEC["per_layer"]}
    samples = {k: [1.0] for k in run.SAMPLED}
    assert set(run.summarize(samples)) == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# --- wrappers --------------------------------------------------------------

def _attributes():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in tracing.TARGETS}


def test_wrappers_restored_after_traced_run(tmp_path):
    from mrcbeam import cli

    before = _attributes()
    args = ["snr-sweep", "--elements", "4", "--m-max", "3", "--trials", "2",
            "--freq-points", "16", "--seed", "5", "--output"]
    assert cli.main(args + [str(tmp_path / "plain.csv")]) == 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert _attributes() != before
        assert tracer.wrap("cli.main", cli.main)(args + [str(tmp_path / "traced.csv")]) == 0
    assert _attributes() == before
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    m = tracing.layer_metrics(tracer, trials=6)
    assert m["channel.sample_channel.calls_per_trial"] == 1.0
    assert m["montecarlo.band_average_gain.calls_per_trial"] == 2.0
    # paths x frequencies summed over calls: 2 trials x 2 beams per M, M = 1, 2, 3
    assert m["beams.combined_response.tone_evals_per_trial"] == 2 * 2 * (1 + 2 + 3) * 16 / 6


def test_wrappers_restored_when_run_raises(monkeypatch, tmp_path):
    from mrcbeam import cli, montecarlo

    def broken(*args, **kwargs):
        raise RuntimeError("channel draw failed")

    monkeypatch.setattr(montecarlo, "sample_channel", broken)
    before = _attributes()
    with pytest.raises(RuntimeError, match="channel draw failed"):
        with tracing.installed(tracing.Tracer()):
            cli.main(["ineffectiveness", "--elements", "2", "--m-max", "2", "--trials", "1",
                      "--output", str(tmp_path / "x.csv")])
    assert _attributes() == before
    assert montecarlo.sample_channel is broken


# --- output checks ---------------------------------------------------------

def _stored(name, seed=0):
    return verify.load_reference(WORKLOADS[name])[str(seed)]


def _snr_csv(sims, s):
    w, lines = WORKLOADS["snr-sweep-n16"], [",".join(verify._SNR_HEADER)]
    for i, m in enumerate(w.m_values):
        mrc = 10 * math.log10(w.n_elements * (2.0 + (m - 1) * s))
        single = 10 * math.log10(w.n_elements * (math.log(m) + verify.EULER_GAMMA + (m - 1) * s))
        lines.append(f"{m},{mrc!r},{sims['mrc_sim_db'][i]!r},{single!r},"
                     f"{sims['single_sim_db'][i]!r}")
    return ("\n".join(lines) + "\n").encode()


def _blockage_csv(samples):
    rows = ["beam_kind,snr_db"] + [f"{kind},{v!r}" for kind in ("mrc", "single")
                                   for v in samples[kind]]
    return ("\n".join(rows) + "\n").encode()


def _effectiveness_json(cols, s, seed=0):
    w = WORKLOADS["effectiveness-n8"]
    x = [(m - 1) * s for m in w.m_values]
    columns = dict(cols, p_ineff_theory=[v / (1 + v) for v in x],
                   count_theory=[m / (1 + v) for m, v in zip(w.m_values, x)])
    doc = {"command": w.command,
           "config": {"n_elements": w.n_elements, "seed": seed, "trials": w.trials,
                      "m_values": list(w.m_values)},
           "results": {"m_values": list(w.m_values), "trials": w.trials, "columns": columns},
           "run": {"config_digest": "0" * 64}}
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def exact_s():
    return {n: verify.array_parameter_moments(n)[0] for n in (8, 16)}


def _output(name, values, exact_s, seed):
    """Output bytes of workload ``name`` with the given simulated values and
    theory columns made from the exact array parameter."""
    if name == "snr-sweep-n16":
        return _snr_csv(values, exact_s[16])
    if name == "effectiveness-n8":
        return _effectiveness_json(values, exact_s[8], seed)
    return _blockage_csv(values)


@pytest.mark.parametrize("seed", [0, 99])     # 99 has no stored values
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_accepts_reference_values(name, seed, exact_s):
    w = WORKLOADS[name]
    verify.verify(w, seed, _output(name, _stored(name), exact_s, seed), verify.load_reference(w))


def _mutants(name, stored, exact_s, seed):
    """(label, output bytes) of outputs that must each be rejected."""
    column = next(iter(stored))
    last = stored[column][-1]
    yield "perturbed", _output(name, dict(stored, **{column: stored[column][:-1] + [
        last * (1 + 1e-7)]}), exact_s, seed)
    yield "nan", _output(name, dict(stored, **{column: stored[column][:-1] + [float("nan")]}),
                         exact_s, seed)
    data = _output(name, stored, exact_s, seed)
    if name == "effectiveness-n8":
        doc = json.loads(data)
        doc["results"]["columns"][column].pop()
        yield "missing row", json.dumps(doc).encode()
    else:
        yield "missing row", b"".join(data.splitlines(keepends=True)[:-1])


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_rejects_perturbed_nan_and_missing_row(name, seed, exact_s):
    w = WORKLOADS[name]
    for label, data in _mutants(name, _stored(name), exact_s, seed):
        if label == "perturbed" and seed == 99:
            continue            # only stored values can catch a small perturbation
        with pytest.raises(verify.OutputMismatch):
            verify.verify(w, seed, data, verify.load_reference(w))


def test_checker_rejects_wrong_array_parameter_and_unsorted_samples():
    s, second = verify.array_parameter_moments(16)
    sampling_error = math.sqrt((second - s * s) / verify.ARRAY_PARAM_SAMPLES)
    w = WORKLOADS["snr-sweep-n16"]
    verify.verify(w, 99, _snr_csv(_stored("snr-sweep-n16"), s + 3 * sampling_error))
    with pytest.raises(verify.OutputMismatch, match="exact s"):
        verify.verify(w, 99, _snr_csv(_stored("snr-sweep-n16"), s + 10 * sampling_error))
    samples = _stored("blockage-n8-w2")
    swapped = dict(samples, single=samples["single"][::-1])
    with pytest.raises(verify.OutputMismatch, match="not sorted"):
        verify.verify(WORKLOADS["blockage-n8-w2"], 99, _blockage_csv(swapped))


def test_quadrature_converged_and_matches_known_values():
    s16, m16 = verify.array_parameter_moments(16)
    assert (s16, m16) == pytest.approx(verify.array_parameter_moments(16, nodes=512), rel=1e-9)
    assert s16 == pytest.approx(0.0912, abs=5e-5)
    assert verify.array_parameter_moments(32)[0] == pytest.approx(0.0498, abs=5e-5)
