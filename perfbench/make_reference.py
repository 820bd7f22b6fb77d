"""Store the simulated values the current program produces for the
reference seeds, one file per workload under ``reference/``.

Run from the repository root only when the stored values are meant to
change, e.g. after a change that alters what a workload simulates:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os

import run
import verify
from workloads import WORKLOADS

REFERENCE_SEEDS = (0, 1, 2)


def main() -> None:
    os.environ.update(run.PINNED_THREADS)
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    run.WORKDIR.mkdir(exist_ok=True)
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        seeds = {}
        for seed in REFERENCE_SEEDS:
            path = run.WORKDIR / f"{workload.name}.out"
            if run.run_cli(workload.argv(seed, str(path)), env).code != 0:
                raise SystemExit(f"{workload.name} seed {seed} failed")
            data = path.read_bytes()
            verify.verify(workload, seed, data)
            values = verify.parse(workload, seed, data)
            seeds[str(seed)] = {k: values[k] for k in verify.SIMULATED[workload.command]}
        doc = {"workload": workload.name, "args": workload.fixed_args(), "seeds": seeds}
        verify.reference_path(workload).write_text(json.dumps(doc) + "\n")
        print(f"wrote {verify.reference_path(workload)}")


if __name__ == "__main__":
    main()
