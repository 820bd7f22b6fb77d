"""The benchmark's workloads: one mrcbeam CLI command each.

Array, channel and band settings are the CLI defaults (0.5-wavelength ULA,
180-degree field of view, 100 ns delay spread, 1 GHz band, 1024 frequency
points). Only the seed varies between runs of one workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # mrcbeam CLI subcommand
    n_elements: int
    m_values: tuple[int, ...]     # path counts the experiment sweeps
    trials: int                   # trials per path count
    workers: int
    fmt: str                      # "csv" or "json"

    @property
    def trials_total(self) -> int:
        return self.trials * len(self.m_values)

    def fixed_args(self) -> list[str]:
        """CLI arguments that define the experiment; seed, output and
        worker count are left out because the output bytes do not depend
        on the worker count."""
        if self.command == "blockage-cdf":
            paths = ["--m-paths", str(self.m_values[0])]
        else:
            paths = ["--m-min", str(self.m_values[0]), "--m-max", str(self.m_values[-1])]
        return [self.command, "--elements", str(self.n_elements), *paths,
                "--trials", str(self.trials), "--format", self.fmt]

    def argv(self, seed: int, output: str, workers: int | None = None) -> list[str]:
        return [*self.fixed_args(), "--workers", str(workers or self.workers),
                "--seed", str(seed), "--output", output]


WORKLOADS = {w.name: w for w in (
    Workload("snr-sweep-n16", "snr-sweep", 16, tuple(range(1, 21)), 50, 1, "csv"),
    Workload("effectiveness-n8", "ineffectiveness", 8, tuple(range(1, 16)), 500, 1, "json"),
    Workload("blockage-n8-w2", "blockage-cdf", 8, (20,), 512, 2, "csv"),
)}
