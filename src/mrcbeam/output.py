"""Deterministic CSV and JSON writers for experiment results.

Rerunning a command with the same configuration and seed must produce
byte-identical output, so floats are written in their shortest
round-trip form and JSON keys are sorted.
"""

from __future__ import annotations

import contextlib
import csv
import json
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict

import numpy as np

from .channel import _slices
from .montecarlo import ExperimentConfig, SweepResult

_FREQ_UNITS = {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
# effectiveness quantity -> its (theory, empirical, stderr) columns
_EFFECTIVENESS_KEYS = {
    "ineffectiveness": ("p_ineff_theory", "p_ineff_empirical", "p_ineff_stderr"),
    "effective-components": ("count_theory", "count_mean", "count_stderr"),
}


def parse_frequency(text: str) -> float:
    """Parse a frequency like '1GHz', '500MHz' or '1e9' into Hz."""
    match = re.fullmatch(r"\s*([0-9.eE+-]+)\s*([a-zA-Z]*)\s*", text)
    if not match:
        raise ValueError(f"cannot parse frequency {text!r}")
    value, unit = match.groups()
    if unit.lower() not in _FREQ_UNITS:
        raise ValueError(f"unknown frequency unit {unit!r} in {text!r}")
    try:
        return float(value) * _FREQ_UNITS[unit.lower()]
    except ValueError:
        raise ValueError(f"cannot parse frequency {text!r}") from None


def write_csv(header: list[str], rows: Iterable[tuple], path: str | None) -> None:
    """Write rows under a stable header to ``path`` or standard output as they come."""
    with _opened(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(payload: dict, path: str | None) -> None:
    """Write a JSON document with sorted keys to ``path`` or standard output.

    Arrays in ``payload`` are written as lists. JSON has no NaN or infinity: a
    non-finite number raises ValueError, before anything is written.
    """
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=np.ndarray.tolist)
    with _opened(path) as fh:
        fh.write(text + "\n")


def array_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """Rows of equal-length 1-D arrays as Python values, converted a `channel._slices`
    slice of rows at a time, one entry per column each, so that no list of every row
    is held."""
    for part in _slices(len(columns[0]), len(columns)):
        yield from zip(*(column[part].tolist() for column in columns))


def json_stderr(value: float, samples: int) -> float | None:
    """A standard error as JSON writes it: null where one sample leaves it undefined."""
    return value if samples > 1 else None


def _opened(path: str | None):
    """``path`` opened for writing, or standard output, which exiting leaves open."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def run_metadata(command: str, cfg_dict: dict) -> dict:
    """Config fingerprint for result provenance; wall-clock free so reruns
    of the same configuration stay byte-identical."""
    import hashlib  # only JSON output hashes the config, so starting the CLI skips it

    from . import __version__

    digest = hashlib.sha256(
        json.dumps({"command": command, "config": cfg_dict}, sort_keys=True).encode()
    ).hexdigest()
    return {"version": __version__, "config_digest": digest}


def config_dict(cfg: ExperimentConfig) -> dict:
    """The experiment definition as echoed in JSON output.

    The worker count is an execution knob, not part of the experiment
    definition, so it is left out of the echo and the digest; output
    bytes must not depend on it.
    """
    config = asdict(cfg)
    config.pop("workers")
    return config


def json_payload(command: str, config: dict, results: dict) -> dict:
    """Standard JSON envelope: echoed config, results, run metadata."""
    return {
        "command": command,
        "config": config,
        "results": results,
        "run": run_metadata(command, config),
    }


def sweep_columns_json(result: SweepResult) -> dict:
    """A sweep's columns, and its sample arrays if it has any, for `write_json`."""
    columns = {k: [json_stderr(x, result.trials) for x in v] if "stderr" in k else list(v)
               for k, v in result.columns.items()}
    out: dict = {"m_values": list(result.m_values), "trials": result.trials,
                 "columns": columns}
    if result.samples:
        out["samples"] = dict(result.samples)
    return out


def effectiveness_rows(result: SweepResult, quantity: str) -> Iterator[tuple]:
    """Rows (m, theory, empirical, stderr) for one effectiveness quantity."""
    return zip(result.m_values, *(result.columns[k] for k in _EFFECTIVENESS_KEYS[quantity]))


def snr_rows(result: SweepResult) -> Iterator[tuple]:
    """Rows (m, mrc_theory_db, mrc_sim_db, single_theory_db, single_sim_db)."""
    return zip(result.m_values, *(result.columns[k] for k in (
        "mrc_theory_db", "mrc_sim_db", "single_theory_db", "single_sim_db")))


def blockage_rows(result: SweepResult) -> Iterator[tuple]:
    """Rows (beam_kind, snr_db), one per trial: every "mrc" sample, then every "single"."""
    for kind in ("mrc", "single"):
        for (value,) in array_rows(result.samples[kind]):
            yield kind, value
