"""mrcbeam benchmark: fresh CLI processes timed from outside, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload snr-sweep-n16 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload blockage-n8-w2 --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seconds 120

With ``--trace 0`` each iteration times ``python -m mrcbeam.cli <command>
--help`` (set-up time), then the workload itself (wall, CPU and peak RSS of
the process tree) between two runs of a fixed single-thread numpy probe.
Wall and CPU time are gated divided by the probe time, because the host's
speed drifts by more than the bounds allow. Iterations repeat for
``--seconds`` and every metric is the median over them. ``--workload all``
interleaves the workloads iteration by iteration and prints every
workload's metrics. ``--trace 1`` runs `tracing.py` for the per-layer
metrics.

Every output is checked (see `verify.py`). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
declared in BENCHMARK.json. The line before it records the environment
and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
# One BLAS/OpenMP thread per process: with the library defaults every forked
# pool worker starts its own OpenBLAS threads and oversubscribes the cores.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 60.0
SAMPLED = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "wall_per_probe", "cpu_per_probe",
           "probe_ms", "failed")
GATED = ("setup_s", "wall_per_probe", "cpu_per_probe", "peak_rss_mb")
PROBE_SEED, PROBE_TRIALS, PROBE_SIZE, PROBE_EXPS = 7, 900, 1 << 16, 450


class Run(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_cli(args: list[str], env: dict) -> Run:
    """Run ``python -m mrcbeam.cli ARGS`` and wait for it.

    CPU time and peak RSS come from wait4, so they cover the process and
    every pool worker it reaped.
    """
    with open(WORKDIR / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mrcbeam.cli", *args], cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (WORKDIR / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"mrcbeam {' '.join(args)} exited with {proc.returncode}:\n{tail}",
              file=sys.stderr)
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0)


def make_probe():
    """A fixed single-thread numpy kernel, independent of mrcbeam, whose time
    tracks host speed: small seeded draws and matrix products, as in a Monte
    Carlo trial, then a large vectorized exp."""
    import numpy as np

    x = np.linspace(0.0, 1.0, PROBE_SIZE)
    out = np.empty_like(x)
    positions = np.arange(8.0)

    def probe_ms() -> float:
        start = time.perf_counter()
        for i in range(PROBE_TRIALS):
            angles = np.random.default_rng([PROBE_SEED, i]).uniform(-1.5, 1.5, 10)
            steering = np.exp(1j * np.pi * np.outer(positions, np.sin(angles)))
            float(np.abs(steering.conj().T @ steering).sum())
        for _ in range(PROBE_EXPS):
            np.exp(x, out=out)
        return (time.perf_counter() - start) * 1e3

    return probe_ms


def checked_warmup(workload, seed: int, env: dict) -> tuple[bytes, bool]:
    """One untimed run, which also compiles bytecode; its checked output."""
    import verify     # imports numpy, so only after the thread variables are pinned

    path = WORKDIR / f"{workload.name}.out"
    path.unlink(missing_ok=True)
    if run_cli(workload.argv(seed, str(path)), env).code != 0:
        return b"", False
    data = path.read_bytes()
    try:
        verify.verify(workload, seed, data, verify.load_reference(workload))
    except verify.OutputMismatch as exc:
        print(f"{workload.name} seed {seed}: wrong output: {exc}", file=sys.stderr)
        return data, False
    return data, True


def measure(workloads, seed: int, seconds: float, env: dict) -> dict[str, dict[str, list]]:
    """Samples per workload, iterations interleaved so host drift hits all alike."""
    probe = make_probe()
    expected = {w.name: checked_warmup(w, seed, env) for w in workloads}
    samples = {w.name: {k: [] for k in SAMPLED} for w in workloads}
    start, last = time.perf_counter(), 0.0
    while not last or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        for w in workloads:
            s, path = samples[w.name], WORKDIR / f"{w.name}.out"
            setup = run_cli([w.command, "--help"], env)
            if setup.code != 0:
                raise RuntimeError(f"mrcbeam {w.command} --help failed")
            path.unlink(missing_ok=True)
            before = probe()
            run = run_cli(w.argv(seed, str(path)), env)
            probe_s = (before + probe()) / 2e3
            data, good = expected[w.name]
            ok = good and run.code == 0 and path.read_bytes() == data
            s["setup_s"].append(setup.wall_s)
            s["wall_s"].append(run.wall_s)
            s["cpu_s"].append(run.cpu_s)
            s["peak_rss_mb"].append(run.peak_rss_mb)
            s["wall_per_probe"].append(run.wall_s / probe_s)
            s["cpu_per_probe"].append(run.cpu_s / probe_s)
            s["probe_ms"].append(probe_s * 1e3)
            s["failed"].append(0 if ok else 1)
        last = time.perf_counter() - begin
    return samples


def traced(workload, seed: int, seconds: float, env: dict) -> tuple[dict, int, int, dict]:
    """(per-layer metrics, attempted, failed, helper report) of a traced run.

    Every output the traced run writes must equal the untraced CLI output.
    """
    start = time.perf_counter()
    data, good = checked_warmup(workload, seed, env)
    outdir = WORKDIR / "trace"
    outdir.mkdir(exist_ok=True)
    remaining = max(1.0, seconds - (time.perf_counter() - start))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("tracing.py")), "--workload",
         workload.name, "--seed", str(seed), "--seconds", str(remaining),
         "--outdir", str(outdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    failed = sum(Path(p).read_bytes() != data for p in report["outputs"]) + (not good)
    return report["metrics"], 1 + len(report["outputs"]), failed, report


def environment(env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: env.get(k) for k in PINNED_THREADS},
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """Attach BENCHMARK.json's units; the names must match the declared ones."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"benchmark computes {sorted(values)}, "
                           f"BENCHMARK.json declares {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def summarize(s: dict[str, list]) -> dict[str, float]:
    """Medians of the metrics BENCHMARK.json gates."""
    return {k: statistics.median(s[k]) for k in GATED}


def workload_report(s: dict[str, list], declared: list[dict]) -> dict:
    """Every metric of one workload: the gated ones, the raw times the
    normalized ones derive from, the probe and the failed fraction."""
    return {
        **with_units(summarize(s), declared),
        "wall_s": {"value": statistics.median(s["wall_s"]), "unit": "s"},
        "cpu_s": {"value": statistics.median(s["cpu_s"]), "unit": "s"},
        "probe_ms": {"value": statistics.median(s["probe_ms"]), "unit": "ms"},
        "failed_frac": {"value": sum(s["failed"]) / len(s["failed"]), "unit": "ratio"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mrcbeam" / "cli.py").is_file():
        print(f"perfbench: no mrcbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 needs a single workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Pinned before this process or any child imports numpy.
    os.environ.update(PINNED_THREADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    WORKDIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(env)}

    if args.trace:
        w = WORKLOADS[args.workload]
        layer, attempted, failed, helper = traced(w, args.seed, args.seconds, env)
        metrics = with_units(layer, spec["per_layer"])
        record.update(rounds=helper["rounds"], metrics=metrics)
    else:
        workloads = list(WORKLOADS.values()) if args.workload == "all" else [
            WORKLOADS[args.workload]]
        samples = measure(workloads, args.seed, args.seconds, env)
        table = {name: workload_report(s, spec["end_to_end"]) for name, s in samples.items()}
        for name, metrics in table.items():
            for key, metric in metrics.items():
                print(f"{name:18s} {key:15s} {metric['value']:.6g} {metric['unit']}")
        record.update(samples=samples, metrics=table)
        attempted = sum(len(s["failed"]) for s in samples.values())
        failed = sum(sum(s["failed"]) for s in samples.values())
        if len(workloads) == 1:
            metrics = with_units(summarize(samples[workloads[0].name]), spec["end_to_end"])
        else:
            metrics = table

    out = WORKDIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
