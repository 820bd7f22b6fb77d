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

# pair_gain_matrix and estimate_array_parameter stay importable here:
# perfbench/tracing.py wraps them.
from .beams import (BeamWeights, combined_response, cross_beam_interference,
                    mrc_weights, noise_power, pair_gain_matrix,
                    single_direction_weights, strongest_component)
from .channel import ChannelRealization, remove_component, sample_channel
from .geometry import AntennaArray, Direction, FieldOfView, make_ula
from .theory import (effective_count, estimate_array_parameter,
                     exact_array_parameter, ineffectiveness_probability,
                     snr_mrc_theory, snr_single_theory, to_db)

_TRIAL_BLOCK = 256
# SeedSequence's output hash, which `_block_streams` runs for a whole block
_MASK32, _INIT_B, _MULT_B = 0xFFFFFFFF, 0x8B51F9DD, 0x58F38DED


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

    The grid is ``freq_points`` >= 2 frequencies on [-bandwidth/2, +bandwidth/2];
    zero bandwidth degenerates to the center-frequency power.
    """
    if freq_points < 2:
        raise ValueError("freq_points must be >= 2")
    freqs = np.linspace(-bandwidth / 2.0, bandwidth / 2.0, freq_points)
    response = combined_response(weights, channel, array, freqs)
    return float(np.mean(np.abs(response) ** 2))


@functools.cache
def _stream_seed_type() -> type:
    """numpy seed source that hands PCG64 one stream's ready seed words.

    Built on first use, so that importing mrcbeam does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a block stream only supplies PCG64's 4 uint64 seed words")
            return self.state

    return StreamSeed


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, at least one."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _block_streams(seed: int, m: int, lo: int, hi: int):
    """The streams ``trial_rng(seed, (m, t))`` for t in [lo, hi), same draws.

    numpy mixes each trial's entropy into its pool, as it does for a list of
    ints; the output step of ``SeedSequence.generate_state(4, uint64)`` then
    runs once for the block. Each Generator is built when it is asked for.
    """
    prefix = _words(seed % (1 << 64)) + _words(m)
    pools = np.array([np.random.SeedSequence(np.array(prefix + _words(t), dtype=np.uint32)).pool
                      for t in range(lo, hi)], dtype=np.uint32).reshape(hi - lo, 4)
    words, hash_const = np.empty((hi - lo, 8), dtype=np.uint32), _INIT_B
    for i in range(8):
        w = pools[:, i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        w = w * hash_const                  # uint32 arrays wrap modulo 2**32
        words[:, i] = w ^ (w >> 16)
    seed_type = _stream_seed_type()
    for state in words.astype("<u4").view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(seed_type(state)))


def _trial_block(trial, cfg: ExperimentConfig, block) -> np.ndarray:
    """Results of ``trial`` for one trial range, one row of two per trial.

    Each trial draws its channel from its own stream, then hands the
    channel and the rest of that stream to ``trial``.
    """
    m, lo, hi = block
    array, fov = cfg.array(), cfg.fov()
    out = np.empty((hi - lo, 2))
    for i, rng in enumerate(_block_streams(cfg.seed, m, lo, hi)):
        out[i] = trial(cfg, array, sample_channel(m, fov, cfg.delay_max_s, rng), rng)
    return out


def _effectiveness_block(cfg: ExperimentConfig, block) -> np.ndarray:
    """(ineffective fraction, effective count) of every trial in one block.

    Each trial draws its channel from its own stream; all paths of the
    block are then classified in one batched pass.
    """
    m, lo, hi = block
    fov = cfg.fov()
    amplitudes, vectors = np.empty((hi - lo, m), dtype=complex), np.empty((hi - lo, m, 3))
    for i, rng in enumerate(_block_streams(cfg.seed, m, lo, hi)):
        channel = sample_channel(m, fov, cfg.delay_max_s, rng)
        amplitudes[i], vectors[i] = channel.amplitudes(), channel.direction_matrix()
    interference = cross_beam_interference(cfg.array(), amplitudes, vectors)
    counts = np.count_nonzero(np.abs(amplitudes) >= np.abs(interference), axis=1)
    return np.column_stack([(m - counts) / m, counts])


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


def _run_trials(block_fn, cfg: ExperimentConfig, m_values) -> dict[int, np.ndarray]:
    """(trials, 2) results of ``block_fn(cfg, block)`` for every m, in trial order.

    Trials run in fixed blocks, serially or on a process pool of at most
    one worker per block; the blocks are put back together in trial order
    either way.
    """
    blocks = [(m, lo, min(lo + _TRIAL_BLOCK, cfg.trials))
              for m in m_values for lo in range(0, cfg.trials, _TRIAL_BLOCK)]
    fn = functools.partial(block_fn, cfg)
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
    columns use the exact array parameter, so they do not depend on the seed.
    """
    s = _array_parameter(cfg)
    results = _run_trials(_effectiveness_block, cfg, cfg.m_values)
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
    to dB; averaging per-trial dB values would bias the result low. The
    theory columns use the exact array parameter.
    """
    s = _array_parameter(cfg)
    results = _run_trials(functools.partial(_trial_block, _snr_trial), cfg, cfg.m_values)
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
    results = _run_trials(functools.partial(_trial_block, _blockage_trial), cfg, (m,))
    cols, samples = {}, {}
    for kind, snr_db in zip(("mrc", "single"), results[m].T):
        mean, err = _mean_stderr(snr_db)
        cols[f"{kind}_mean_db"], cols[f"{kind}_stderr_db"] = (mean,), (err,)
        samples[kind] = tuple(float(x) for x in np.sort(snr_db))
    return SweepResult((m,), cfg.trials, cols, samples)


def _array_parameter(cfg: ExperimentConfig) -> float:
    """Exact array parameter of the configured array and field of view.

    Computed by quadrature, so it draws nothing and no seed affects it.
    """
    return exact_array_parameter(cfg.array(), cfg.fov())
