"""Deterministic CSV and JSON writers for experiment results.

Rerunning a command with the same configuration and seed must produce
byte-identical output, so floats are written in their shortest
round-trip form and JSON keys are sorted.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import asdict

from .montecarlo import ExperimentConfig, SweepResult

_FREQ_UNITS = {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


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


def write_csv(header: list[str], rows: list[tuple], path: str | None) -> None:
    """Write rows under a stable header to ``path`` or standard output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(buf.getvalue(), path)


def write_json(payload: dict, path: str | None) -> None:
    """Write a JSON document with sorted keys to ``path`` or standard output.

    JSON has no NaN or infinity: a non-finite number raises ValueError.
    """
    _write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def json_stderr(value: float, samples: int) -> float | None:
    """A standard error as JSON writes it: null where one sample leaves it undefined."""
    return value if samples > 1 else None


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


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
    config["m_values"] = list(config["m_values"])
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
    columns = {k: [json_stderr(x, result.trials) for x in v] if "stderr" in k else list(v)
               for k, v in result.columns.items()}
    out: dict = {"m_values": list(result.m_values), "trials": result.trials,
                 "columns": columns}
    if result.samples:
        out["samples"] = {k: list(v) for k, v in result.samples.items()}
    return out


def effectiveness_rows(result: SweepResult, quantity: str) -> list[tuple]:
    """Rows (m, theory, empirical, stderr) for one effectiveness quantity."""
    if quantity == "ineffectiveness":
        keys = ("p_ineff_theory", "p_ineff_empirical", "p_ineff_stderr")
    elif quantity == "effective-components":
        keys = ("count_theory", "count_mean", "count_stderr")
    else:
        raise ValueError(f"unknown effectiveness quantity {quantity!r}")
    cols = result.columns
    return [(m,) + tuple(cols[k][i] for k in keys)
            for i, m in enumerate(result.m_values)]


def snr_rows(result: SweepResult) -> list[tuple]:
    cols = result.columns
    return [(m, cols["mrc_theory_db"][i], cols["mrc_sim_db"][i],
             cols["single_theory_db"][i], cols["single_sim_db"][i])
            for i, m in enumerate(result.m_values)]


def blockage_rows(result: SweepResult) -> list[tuple]:
    rows = [("mrc", v) for v in result.samples["mrc"]]
    rows += [("single", v) for v in result.samples["single"]]
    return rows
