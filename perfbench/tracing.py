"""Outside-in span tracing of mrcbeam, and the benchmark's traced run.

`Tracer` records one span (name, start, end, parent) per call of a wrapped
function. `installed` puts the wrappers on the module attributes through
which the program looks those functions up, for example
``mrcbeam.montecarlo.sample_channel``, and restores the originals on exit,
also when the run raises. The program's source is never edited.

Run as a script, this file performs the traced run of one workload in
process, through ``mrcbeam.cli.main``, and prints its per-layer metrics as
one JSON line. Each round runs the workload untraced and traced at 1
worker, in alternating order, then untraced at 2 workers; every run writes
its output file into ``--outdir`` so the caller can compare the bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

from mrcbeam import cli
from workloads import WORKLOADS

EXPERIMENT = "montecarlo.experiment"
# (module, attribute, span name): every place the program looks up a
# function whose time a per-layer metric reports.
TARGETS = (
    ("mrcbeam.cli", "run_snr_sweep", EXPERIMENT),
    ("mrcbeam.cli", "run_effectiveness_sweep", EXPERIMENT),
    ("mrcbeam.cli", "run_blockage_experiment", EXPERIMENT),
    ("mrcbeam.montecarlo", "trial_rng", "montecarlo.trial_rng"),
    ("mrcbeam.montecarlo", "band_average_gain", "montecarlo.band_average_gain"),
    ("mrcbeam.montecarlo", "estimate_array_parameter", "theory.estimate_array_parameter"),
    ("mrcbeam.montecarlo", "sample_channel", "channel.sample_channel"),
    ("mrcbeam.montecarlo", "remove_component", "channel.remove_component"),
    ("mrcbeam.montecarlo", "combined_response", "beams.combined_response"),
    ("mrcbeam.montecarlo", "pair_gain_matrix", "beams.pair_gain_matrix"),
    ("mrcbeam.montecarlo", "mrc_weights", "beams.mrc_weights"),
    ("mrcbeam.montecarlo", "single_direction_weights", "beams.single_direction_weights"),
    ("mrcbeam.montecarlo", "noise_power", "beams.noise_power"),
    ("mrcbeam.montecarlo", "strongest_component", "beams.strongest_component"),
    ("mrcbeam.channel", "phase_matrix", "geometry.phase_matrix"),
    ("mrcbeam.beams", "phase_matrix", "geometry.phase_matrix"),
    ("mrcbeam.theory", "phase_matrix", "geometry.phase_matrix"),
    *(("mrcbeam.output", name, f"output.{name}") for name in (
        "json_payload", "sweep_columns_json", "effectiveness_rows", "snr_rows",
        "blockage_rows", "write_csv", "write_json")),
)
US_PER_TRIAL = (
    "montecarlo.trial_rng", "beams.combined_response", "channel.sample_channel",
    "channel.remove_component", "beams.pair_gain_matrix", "beams.mrc_weights",
    "beams.single_direction_weights", "beams.noise_power", "beams.strongest_component",
    "geometry.phase_matrix",
)
CALLS_PER_TRIAL = ("montecarlo.band_average_gain", "channel.sample_channel",
                   "geometry.phase_matrix")


def _tone_evals(weights, channel, array, f) -> int:
    """Delay tones `combined_response` evaluates: paths times frequencies."""
    return channel.m_paths * len(f)


# span name -> function of a call's arguments giving the work it does
COUNTERS = {"beams.combined_response": _tone_evals}


class Tracer:
    """Spans and work counts of the calls made while the wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._open, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                self.counts[name] += counter(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target attribute that exists; restore all of them on exit.

    A target the program no longer has is skipped, so its metrics read 0.
    """
    saved = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced run over ``trials`` trials in total.

    Every name is present; a function the run never called reads 0.
    """
    calls, total, own = defaultdict(int), defaultdict(int), defaultdict(int)
    for (name, start, end, _), self_ns in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_ns
    out_ns = sum(end - start for name, start, end, parent in tracer.spans
                 if name.startswith("output.")
                 and (parent < 0 or not tracer.spans[parent][0].startswith("output.")))
    metrics = {
        "cli.main.self_ms": own["cli.main"] / 1e6,
        "montecarlo.experiment.self_us_per_trial": own[EXPERIMENT] / 1e3 / trials,
        "montecarlo.band_average_gain.self_us_per_trial":
            own["montecarlo.band_average_gain"] / 1e3 / trials,
        "beams.combined_response.tone_evals_per_trial":
            tracer.counts["beams.combined_response"] / trials,
        "theory.estimate_array_parameter.ms": total["theory.estimate_array_parameter"] / 1e6,
        "output.emit_ms": out_ns / 1e6,
        "trace.coverage": 1.0 - own[EXPERIMENT] / total[EXPERIMENT] if total[EXPERIMENT] else 0.0,
    }
    metrics.update({f"{name}.us_per_trial": total[name] / 1e3 / trials for name in US_PER_TRIAL})
    metrics.update({f"{name}.calls_per_trial": calls[name] / trials for name in CALLS_PER_TRIAL})
    return metrics


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_main(main, argv) -> tuple[float, float]:
    """(wall, cpu) seconds of one in-process CLI run; a nonzero exit raises."""
    cpu, start = _cpu_seconds(), time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"mrcbeam {' '.join(argv)} exited with {code}")
    return wall, _cpu_seconds() - cpu


def traced_rounds(workload, seed: int, seconds: float, outdir: Path):
    """Run rounds until ``seconds`` would be exceeded; at least one.

    Returns the per-round metrics and the output files written.
    """
    rounds, outputs = [], []
    deadline, last = time.perf_counter() + seconds, 0.0
    while not rounds or time.perf_counter() + last < deadline:
        begin, i = time.perf_counter(), len(rounds)
        paths = [str(outdir / f"{kind}-{i}.out") for kind in ("untraced-w1", "traced-w1",
                                                              "untraced-w2")]
        tracer = Tracer()

        def untraced_run():
            return _timed_main(cli.main, workload.argv(seed, paths[0], workers=1))[0]

        def traced_run():
            with installed(tracer):
                return _timed_main(tracer.wrap("cli.main", cli.main),
                                   workload.argv(seed, paths[1], workers=1))[0]

        # alternate the order so that host drift does not bias the overhead
        if i % 2:
            wall_traced, wall_1 = traced_run(), untraced_run()
        else:
            wall_1, wall_traced = untraced_run(), traced_run()
        wall_2, cpu_2 = _timed_main(cli.main, workload.argv(seed, paths[2], workers=2))
        metrics = layer_metrics(tracer, workload.trials_total)
        metrics.update({
            "trace.overhead_frac": wall_traced / wall_1 - 1.0,
            "montecarlo.pool.speedup": wall_1 / wall_2,
            "montecarlo.pool.cpu_per_wall": cpu_2 / wall_2,
        })
        rounds.append(metrics)
        outputs += paths
        last = time.perf_counter() - begin
    return rounds, outputs


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    args = parser.parse_args(argv)
    rounds, outputs = traced_rounds(WORKLOADS[args.workload], args.seed, args.seconds,
                                    args.outdir)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    print(json.dumps({"metrics": metrics, "rounds": len(rounds), "outputs": outputs}))


if __name__ == "__main__":
    main()
