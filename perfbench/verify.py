"""Correctness check of one workload's output file.

Three layers of checks, from weakest to strongest:

* structure, for any seed: row counts, finiteness, value ranges and the
  per-kind sort order of blockage samples;
* theory columns, for any seed: every row must imply the same array
  parameter s, and that s must lie within the Monte Carlo estimate's
  sampling error of the exact value, computed here by Gauss-Legendre
  quadrature independently of the program;
* simulated columns, for the seeds stored under ``reference/``: equal to
  the stored values at 1e-9 relative.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Size of the program's Monte Carlo array-parameter estimate, and how many
# of its standard errors a theory column may sit from the exact value.
ARRAY_PARAM_SAMPLES = 100_000
THEORY_SIGMAS = 6.0
EULER_GAMMA = float(np.euler_gamma)

SIMULATED = {
    "snr-sweep": ("mrc_sim_db", "single_sim_db"),
    "ineffectiveness": ("p_ineff_empirical", "p_ineff_stderr", "count_mean",
                        "count_stderr", "count_median"),
    "blockage-cdf": ("mrc", "single"),
}
_SNR_HEADER = ["m", "mrc_theory_db", "mrc_sim_db", "single_theory_db", "single_sim_db"]
_EFFECTIVENESS_COLUMNS = {"p_ineff_theory", "count_theory", *SIMULATED["ineffectiveness"]}


class OutputMismatch(ValueError):
    """The output is malformed or disagrees with what it must equal."""


def verify(workload: Workload, seed: int, data: bytes, reference: dict | None = None) -> None:
    """Raise `OutputMismatch` unless ``data`` is a correct output of ``workload``.

    ``reference`` maps seeds (as strings) to stored simulated values; a
    seed without an entry gets the structural and theory checks only.
    """
    values = parse(workload, seed, data)
    _check_structure(workload, values)
    _check_theory(workload, values)
    stored = (reference or {}).get(str(seed))
    if stored is not None:
        compare(values, stored)


def parse(workload: Workload, seed: int, data: bytes) -> dict[str, list[float]]:
    """Named float columns of an output file; blockage outputs give one
    list per beam kind, in file order."""
    try:
        if workload.fmt == "json":
            return _parse_json(workload, seed, data.decode())
        rows = list(csv.reader(io.StringIO(data.decode())))
        if workload.command == "blockage-cdf":
            return _parse_blockage(rows)
        if rows[0] != _SNR_HEADER:
            raise OutputMismatch(f"unexpected CSV header {rows[0]}")
        return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}
    except OutputMismatch:
        raise
    except (UnicodeDecodeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise OutputMismatch(f"cannot parse output: {exc!r}") from None


def _parse_json(workload: Workload, seed: int, text: str) -> dict[str, list[float]]:
    doc = json.loads(text)
    cfg, results = doc["config"], doc["results"]
    echoed = (doc["command"], cfg["n_elements"], cfg["seed"], cfg["trials"], cfg["m_values"])
    expected = (workload.command, workload.n_elements, seed, workload.trials,
                list(workload.m_values))
    if echoed != expected:
        raise OutputMismatch(f"JSON envelope echoes {echoed}, expected {expected}")
    if not doc["run"]["config_digest"]:
        raise OutputMismatch("JSON envelope has no config digest")
    if results["m_values"] != list(workload.m_values) or results["trials"] != workload.trials:
        raise OutputMismatch("results do not echo m_values and trials")
    columns = {name: [float(v) for v in vals] for name, vals in results["columns"].items()}
    if set(columns) != _EFFECTIVENESS_COLUMNS:
        raise OutputMismatch(f"unexpected result columns {sorted(columns)}")
    columns["m"] = [float(m) for m in results["m_values"]]
    return columns


def _parse_blockage(rows: list[list[str]]) -> dict[str, list[float]]:
    if rows[0] != ["beam_kind", "snr_db"]:
        raise OutputMismatch(f"unexpected CSV header {rows[0]}")
    samples: dict[str, list[float]] = {}
    last = None
    for kind, value in rows[1:]:
        if kind != last and kind in samples:
            raise OutputMismatch(f"rows of beam kind {kind!r} are not contiguous")
        samples.setdefault(kind, []).append(float(value))
        last = kind
    if list(samples) != ["mrc", "single"]:
        raise OutputMismatch(f"beam kinds {list(samples)}, expected ['mrc', 'single']")
    return samples


def _check_structure(workload: Workload, values: dict[str, list[float]]) -> None:
    for name, column in values.items():
        if not all(math.isfinite(v) for v in column):
            raise OutputMismatch(f"column {name!r} holds NaN or inf")
    if workload.command == "blockage-cdf":
        for kind, samples in values.items():
            if len(samples) != workload.trials:
                raise OutputMismatch(
                    f"{kind}: {len(samples)} samples, expected {workload.trials}")
            if any(b < a for a, b in zip(samples, samples[1:])):
                raise OutputMismatch(f"{kind}: samples are not sorted")
        return
    if values["m"] != [float(m) for m in workload.m_values]:
        raise OutputMismatch(f"path counts {values['m']}, expected {list(workload.m_values)}")
    for name, column in values.items():
        if len(column) != len(workload.m_values):
            raise OutputMismatch(f"column {name!r} has {len(column)} rows")
    if workload.command == "ineffectiveness":
        for i, m in enumerate(workload.m_values):
            p, count = values["p_ineff_empirical"][i], values["count_mean"][i]
            if not (0.0 <= p <= 1.0 and 0.0 <= values["count_median"][i] <= m
                    and values["p_ineff_stderr"][i] >= 0 and values["count_stderr"][i] >= 0):
                raise OutputMismatch(f"m={m}: effectiveness statistics out of range")
            # each trial's effective count is m times its effective fraction
            if not math.isclose(count, m * (1.0 - p), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                raise OutputMismatch(f"m={m}: count_mean {count} != m * (1 - {p})")


def _implied_array_parameters(workload: Workload,
                             values: dict[str, list[float]]) -> list[tuple[int, float]]:
    """(m, s) for every theory value with m > 1: the array parameter the
    closed form must have used to produce it (sigma0 = 1)."""
    n, out = workload.n_elements, []
    for i, m in enumerate(workload.m_values):
        if m == 1:
            continue
        if workload.command == "snr-sweep":
            out.append((m, (10 ** (values["mrc_theory_db"][i] / 10) / n - 2.0) / (m - 1)))
            peak = math.log(m) + EULER_GAMMA
            out.append((m, (10 ** (values["single_theory_db"][i] / 10) / n - peak) / (m - 1)))
        else:
            p = values["p_ineff_theory"][i]
            out.append((m, p / (1.0 - p) / (m - 1)))
            out.append((m, (m / values["count_theory"][i] - 1.0) / (m - 1)))
    return out


def _check_theory(workload: Workload, values: dict[str, list[float]]) -> None:
    if workload.command == "blockage-cdf":
        return
    n = workload.n_elements
    if 1 in workload.m_values:
        i1 = workload.m_values.index(1)
        if workload.command == "snr-sweep":
            exact = {"mrc_theory_db": 10 * math.log10(2.0 * n),
                     "single_theory_db": 10 * math.log10(n * EULER_GAMMA)}
        else:
            exact = {"p_ineff_theory": 0.0, "count_theory": 1.0}
        for name, want in exact.items():
            if not math.isclose(values[name][i1], want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                raise OutputMismatch(f"m=1: {name} is {values[name][i1]}, expected {want}")
    implied = _implied_array_parameters(workload, values)
    if not implied:
        return
    s = implied[-1][1]
    for m, s_m in implied:
        if not math.isclose(s_m, s, rel_tol=REL_TOL):
            raise OutputMismatch(f"m={m}: theory implies s={s_m}, other rows s={s}")
    s_exact, second_moment = array_parameter_moments(workload.n_elements)
    sampling_error = math.sqrt((second_moment - s_exact ** 2) / ARRAY_PARAM_SAMPLES)
    if abs(s - s_exact) > THEORY_SIGMAS * sampling_error:
        raise OutputMismatch(
            f"theory uses s={s}; exact s={s_exact} with sampling error {sampling_error}")


def array_parameter_moments(n_elements: int, spacing: float = 0.5,
                            half_angle: float = math.pi / 2,
                            nodes: int = 256) -> tuple[float, float]:
    """E[g] and E[g^2] of the squared pair gain g = |a(u1)^H a(u2)|^2 / N^2
    of a ULA, for two independent angles uniform on +-half_angle.

    Tensor Gauss-Legendre quadrature over both angles.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = np.sin(half_angle * x)
    weight = np.outer(w, w) / 4.0       # uniform density on each angle
    phase = 2j * np.pi * spacing * np.subtract.outer(u, u)
    total = np.zeros_like(phase)
    for n in range(n_elements):
        total += np.exp(n * phase)
    gain = np.abs(total / n_elements) ** 2
    return float(np.sum(weight * gain)), float(np.sum(weight * gain ** 2))


def compare(values: dict[str, list[float]], stored: dict[str, list[float]]) -> None:
    """Simulated columns must equal the stored ones at 1e-9 relative."""
    for name, want in stored.items():
        got = values.get(name, [])
        if len(got) != len(want):
            raise OutputMismatch(f"{name}: {len(got)} values, reference has {len(want)}")
        for i, (a, b) in enumerate(zip(got, want)):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                raise OutputMismatch(f"{name}[{i}] = {a!r}, reference {b!r}")


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    """Stored simulated values by seed; refuses a file made for other arguments."""
    doc = json.loads(reference_path(workload).read_text())
    if doc["args"] != workload.fixed_args():
        raise OutputMismatch(
            f"reference for {workload.name} was made with {doc['args']}, "
            f"the workload now runs {workload.fixed_args()}")
    return doc["seeds"]
