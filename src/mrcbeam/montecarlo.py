"""Seeded, optionally parallel Monte Carlo experiments.

Every trial owns an independent random stream derived from the experiment
seed, so results are bit-identical for any worker count: workers only
decide which process evaluates a trial, never what the trial draws, and
aggregation always runs in trial order.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# pair_gain_matrix stays importable here: perfbench/tracing.py wraps it.
from .beams import (BeamWeights, classify_effectiveness, combined_response,
                    mrc_weights, noise_power, pair_gain_matrix,
                    single_direction_weights, strongest_component)
from .channel import ChannelRealization, remove_component, sample_channel
from .geometry import AntennaArray, Direction, FieldOfView, make_ula
from .theory import (effective_count, estimate_array_parameter,
                     ineffectiveness_probability, snr_mrc_theory,
                     snr_single_theory, to_db)

ARRAY_PARAM_SAMPLES = 100_000
_TRIAL_BLOCK = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a reproducible experiment."""

    n_elements: int
    m_values: tuple[int, ...]
    spacing_wavelengths: float = 0.5
    fov_deg: float = 180.0
    trials: int = 1000
    delay_max_ns: float = 100.0
    bandwidth_hz: float = 1e9
    freq_points: int = 1024
    sigma0: float = 1.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ValueError("m_values must be a non-empty list of positive integers")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.freq_points < 2:
            raise ValueError("freq_points must be >= 2")
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_hz}")
        if not 0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def array(self) -> AntennaArray:
        return make_ula(self.n_elements, self.spacing_wavelengths)

    def fov(self) -> FieldOfView:
        return FieldOfView.from_degrees(self.fov_deg)

    @property
    def delay_max_s(self) -> float:
        return self.delay_max_ns * 1e-9


@dataclass(frozen=True)
class SweepResult:
    """Aggregated experiment output.

    ``columns`` holds per-m aggregate values aligned with ``m_values``;
    ``samples`` holds the full sorted per-trial SNR lists (dB) per beam
    kind for distribution experiments, empty otherwise.
    """

    m_values: tuple[int, ...]
    trials: int
    columns: dict[str, tuple[float, ...]]
    samples: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, vals in self.columns.items():
            if len(vals) != len(self.m_values):
                raise ValueError(f"column {name!r} length does not match m_values")
        for name, vals in self.samples.items():
            if len(vals) != self.trials:
                raise ValueError(f"sample list {name!r} must hold one value per trial")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"sample list {name!r} must be sorted nondecreasing")


def trial_rng(seed: int, trial_index) -> np.random.Generator:
    """Independent random stream for one unit of work.

    ``trial_index`` is an integer or a tuple of non-negative integers
    naming the work item; the same (seed, index) always reproduces the
    same draws, distinct indices give independent streams.
    """
    if isinstance(trial_index, (int, np.integer)):
        trial_index = (int(trial_index),)
    return np.random.default_rng([seed % (1 << 64), *map(int, trial_index)])


def band_average_gain(weights: BeamWeights, channel: ChannelRealization,
                      array: AntennaArray, bandwidth: float, freq_points: int) -> float:
    """Mean of |beam output|^2 over a uniform frequency grid spanning the band.

    The grid is ``freq_points`` frequencies on [-bandwidth/2, +bandwidth/2];
    zero bandwidth degenerates to the center-frequency power.
    """
    if freq_points < 1:
        raise ValueError("freq_points must be >= 1")
    freqs = np.linspace(-bandwidth / 2.0, bandwidth / 2.0, freq_points)
    response = combined_response(weights, channel, array, freqs)
    return float(np.mean(np.abs(response) ** 2))


def _trial_block(trial, cfg: ExperimentConfig, block) -> np.ndarray:
    """Results of ``trial`` for one trial range, one row of two per trial.

    Each trial draws its channel from its own stream, then hands the
    channel and the rest of that stream to ``trial``.
    """
    m, lo, hi = block
    array, fov = cfg.array(), cfg.fov()
    out = np.empty((hi - lo, 2))
    for t in range(lo, hi):
        rng = trial_rng(cfg.seed, (m, t))
        out[t - lo] = trial(cfg, array, sample_channel(m, fov, cfg.delay_max_s, rng), rng)
    return out


def _effectiveness_trial(cfg, array, channel, rng) -> tuple[float, int]:
    """(ineffective fraction, effective count) under the combining beam."""
    report = classify_effectiveness(channel, array)
    return report.fraction_ineffective, report.n_effective


def _beam_snrs(cfg, array, design: ChannelRealization,
               channel: ChannelRealization) -> list[float]:
    """Linear band-averaged SNR of the combining and the single beam, both
    designed on ``design`` and applied to ``channel``."""
    strongest = Direction(design.direction_matrix()[strongest_component(design)])
    return [band_average_gain(w, channel, array, cfg.bandwidth_hz, cfg.freq_points)
            / noise_power(w, cfg.sigma0)
            for w in (mrc_weights(design, array), single_direction_weights(array, strongest))]


def _snr_trial(cfg, array, channel, rng) -> list[float]:
    return _beam_snrs(cfg, array, channel, channel)


def _blockage_trial(cfg, array, channel, rng) -> list[float]:
    """Post-blockage SNR in dB of beams designed on the full channel.

    One uniformly chosen component is removed, its index drawn after the
    channel from the same stream, and the unchanged beams are applied to
    the rest.
    """
    blocked = remove_component(channel, int(rng.integers(channel.m_paths)))
    return [to_db(snr) for snr in _beam_snrs(cfg, array, channel, blocked)]


def _run_trials(trial, cfg: ExperimentConfig, m_values) -> dict[int, np.ndarray]:
    """(trials, 2) results of ``trial`` for every m, in trial order.

    Trials run in fixed blocks, serially or on a process pool of at most
    one worker per block; the blocks are put back together in trial order
    either way.
    """
    blocks = [(m, lo, min(lo + _TRIAL_BLOCK, cfg.trials))
              for m in m_values for lo in range(0, cfg.trials, _TRIAL_BLOCK)]
    fn = functools.partial(_trial_block, trial, cfg)
    workers = min(cfg.workers, len(blocks))
    if workers == 1:
        outputs = [fn(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(fn, blocks))
    return {m: np.concatenate([out for b, out in zip(blocks, outputs) if b[0] == m])
            for m in m_values}


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size > 1:
        return mean, float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, float("inf")


def run_effectiveness_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ineffective-path probability and usable path count versus M.

    Empirical values average over every (trial, path) pair; the theory
    columns use an array parameter estimated from the configured seed.
    """
    s = _array_parameter(cfg).s
    results = _run_trials(_effectiveness_trial, cfg, cfg.m_values)
    cols: dict[str, list[float]] = {name: [] for name in (
        "p_ineff_theory", "p_ineff_empirical", "p_ineff_stderr",
        "count_theory", "count_mean", "count_stderr", "count_median")}
    for m in cfg.m_values:
        fracs, counts = results[m].T
        p_mean, p_err = _mean_stderr(fracs)
        c_mean, c_err = _mean_stderr(counts)
        cols["p_ineff_theory"].append(ineffectiveness_probability(m, s))
        cols["p_ineff_empirical"].append(p_mean)
        cols["p_ineff_stderr"].append(p_err)
        cols["count_theory"].append(effective_count(m, s))
        cols["count_mean"].append(c_mean)
        cols["count_stderr"].append(c_err)
        cols["count_median"].append(float(np.median(counts)))
    return SweepResult(cfg.m_values, cfg.trials,
                       {k: tuple(v) for k, v in cols.items()})


def run_snr_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Band-averaged SNR versus M for both beam kinds, simulated and predicted.

    Per-trial linear SNRs are averaged in linear scale, then converted
    to dB; averaging per-trial dB values would bias the result low.
    """
    s = _array_parameter(cfg).s
    results = _run_trials(_snr_trial, cfg, cfg.m_values)
    cols: dict[str, list[float]] = {name: [] for name in (
        "mrc_theory_db", "mrc_sim_db", "mrc_sim_stderr_db",
        "single_theory_db", "single_sim_db", "single_sim_stderr_db")}
    for m in cfg.m_values:
        mrc_lin, single_lin = results[m].T
        for prefix, lin, theory in (
                ("mrc", mrc_lin, snr_mrc_theory(cfg.n_elements, m, s, cfg.sigma0)),
                ("single", single_lin, snr_single_theory(cfg.n_elements, m, s, cfg.sigma0))):
            mean, err = _mean_stderr(lin)
            cols[f"{prefix}_theory_db"].append(to_db(theory))
            cols[f"{prefix}_sim_db"].append(to_db(mean))
            # delta-method conversion of the linear-scale standard error
            cols[f"{prefix}_sim_stderr_db"].append(float(10.0 / np.log(10.0) * err / mean))
    return SweepResult(cfg.m_values, cfg.trials,
                       {k: tuple(v) for k, v in cols.items()})


def run_blockage_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Post-blockage SNR distribution for beams designed before the blockage.

    Requires a single entry in ``m_values`` with at least two paths, so a
    component can be removed. Returns the full sorted per-trial SNR lists
    in dB under the ``samples`` keys "mrc" and "single".
    """
    if len(cfg.m_values) != 1:
        raise ValueError("blockage experiment expects exactly one m value")
    m = cfg.m_values[0]
    if m < 2:
        raise ValueError("blockage experiment needs at least two paths")
    cols, samples = {}, {}
    for kind, snr_db in zip(("mrc", "single"), _run_trials(_blockage_trial, cfg, (m,))[m].T):
        mean, err = _mean_stderr(snr_db)
        cols[f"{kind}_mean_db"], cols[f"{kind}_stderr_db"] = (mean,), (err,)
        samples[kind] = tuple(float(x) for x in np.sort(snr_db))
    return SweepResult((m,), cfg.trials, cols, samples)


def _array_parameter(cfg: ExperimentConfig):
    """Deterministic array-parameter estimate tied to the experiment seed."""
    return estimate_array_parameter(cfg.array(), cfg.fov(), ARRAY_PARAM_SAMPLES,
                                    trial_rng(cfg.seed, ()))
