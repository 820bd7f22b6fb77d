"""Seeded, optionally parallel Monte Carlo experiments.

Every trial owns an independent random stream derived from the experiment
seed, so results are bit-identical for any worker count: workers only
decide which process evaluates a trial, never what the trial draws, and
aggregation always runs in trial order.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Not called here; imported only for perfbench/tracing.py to wrap: estimate_array_parameter,
# mrc_weights, noise_power, pair_gain_matrix, remove_component, single_direction_weights,
# strongest_component.
from .beams import (combined_response, cross_beam_interference, design_beams, mrc_weights,
                    noise_power, pair_gain_matrix, single_direction_weights, steering_matrix,
                    strongest_component)
from .channel import (ChannelRealization, _slices, band_power, even_grid, remove_component,
                      sample_channel)
from .geometry import AntennaArray, FieldOfView, _integer, make_ula
from .theory import (effective_count, estimate_array_parameter, exact_array_parameter,
                     ineffectiveness_probability, snr_mrc_theory, snr_single_theory, to_db)

_TRIAL_BLOCK = 256
# size limits of an experiment and of the CLI flags that set them, checked before anything
# is allocated or started; MAX_TRIALS bounds trials times path counts
MAX_PATHS, MAX_FREQ_POINTS = 4096, 1 << 20
MAX_WORKERS, MAX_TRIALS = 64, 1 << 22
# SeedSequence's entropy mixing (A, L, R) and output hash (B), run over a block at once
_MASK32, _MIX_L, _MIX_R = 0xFFFFFFFF, 0xCA01F9DD, 0x4973F715
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a reproducible experiment.

    At most `MAX_PATHS` paths, `MAX_FREQ_POINTS` frequency points, `MAX_WORKERS` workers and
    `MAX_TRIALS` trials over all path counts; the geometry is built once here, so `make_ula`
    and `FieldOfView.from_degrees` refuse it at construction. Counts and the seed are stored
    as Python ints: numpy integers are accepted, and a float or a bool is refused.
    """

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
        for name in ("n_elements", "trials", "freq_points", "seed", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "m_values", tuple(_integer("m_values", m) for m in self.m_values))
        if not self.m_values or any(not 1 <= m <= MAX_PATHS for m in self.m_values):
            raise ValueError(f"m_values must be a non-empty list of integers in [1, {MAX_PATHS}]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials * len(self.m_values) > MAX_TRIALS:
            raise ValueError(f"trials times path counts must be <= {MAX_TRIALS}, got "
                             f"{self.trials} x {len(self.m_values)}")
        if not 2 <= self.freq_points <= MAX_FREQ_POINTS:
            raise ValueError(f"freq_points must be in [2, {MAX_FREQ_POINTS}]")
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_hz}")
        if not 0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not 0 < self.delay_max_s < math.inf:     # a positive ns can still be 0 s
            raise ValueError(f"delay_max_ns must be positive and finite and not underflow to "
                             f"0 s, got {self.delay_max_ns}")
        if not math.isfinite(math.pi * self.bandwidth_hz * self.delay_max_s):
            raise ValueError(f"delay_max_ns {self.delay_max_ns} is too large: tone phases overflow")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {self.workers}")
        self.array(), self.fov()    # their builders check the geometry; neither is kept

    def array(self) -> AntennaArray:
        return make_ula(self.n_elements, self.spacing_wavelengths)

    def fov(self) -> FieldOfView:
        return FieldOfView.from_degrees(self.fov_deg)

    @property
    def delay_max_s(self) -> float:
        return self.delay_max_ns * 1e-9


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Aggregated experiment output.

    ``columns`` holds per-m aggregate values aligned with ``m_values``;
    ``samples`` holds sorted per-trial SNR arrays (dB) per beam kind for
    distribution experiments, empty otherwise. ``==`` is identity.
    """

    m_values: tuple[int, ...]
    trials: int
    columns: dict[str, tuple[float, ...]]
    samples: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name, vals in self.columns.items():
            if len(vals) != len(self.m_values):
                raise ValueError(f"column {name!r} length does not match m_values")
        for name, vals in self.samples.items():
            if np.shape(vals) != (self.trials,):
                raise ValueError(f"sample list {name!r} must hold one value per trial")
            if np.any(np.diff(vals) < 0):
                raise ValueError(f"sample list {name!r} must be sorted nondecreasing")


def trial_rng(seed: int, trial_index) -> np.random.Generator:
    """Independent random stream for one unit of work.

    ``trial_index`` is an integer or a sequence of non-negative integers
    naming the work item; the same (seed, index) always reproduces the
    same draws, distinct indices give independent streams.
    """
    index = (trial_index,) if np.ndim(trial_index) == 0 else trial_index
    return np.random.default_rng([_integer("seed", seed) % (1 << 64),
                                  *(_integer("trial_index", i) for i in index)])


def band_average_gain(weights: np.ndarray, channel: ChannelRealization,
                      array: AntennaArray, bandwidth: float, freq_points: int) -> float:
    """Mean of |beam output|^2 over a uniform frequency grid spanning the band.

    The grid is ``freq_points`` >= 2 frequencies on [-bandwidth/2, +bandwidth/2];
    zero bandwidth degenerates to the center-frequency power.
    """
    freq_points = _integer("freq_points", freq_points)
    if freq_points < 2:
        raise ValueError("freq_points must be >= 2")
    if not 0 <= bandwidth < math.inf:             # also rejects NaN
        raise ValueError(f"bandwidth must be >= 0 and finite, got {bandwidth}")
    freqs = even_grid(-bandwidth / 2.0, bandwidth / 2.0, freq_points)
    response = combined_response(weights, channel, array, freqs)
    return float(np.vdot(response, response).real / response.size)


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


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` over uint32 arrays; its constant steps on every call."""
    const = init

    def hashmix(value):
        nonlocal const
        value, const = value ^ const, (const * mult) & _MASK32
        value = value * const                       # uint32 arrays wrap modulo 2**32
        return value ^ (value >> 16)
    return hashmix


def _block_pools(prefix: list[int], lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 4) uint32 ``SeedSequence(prefix + _words(t)).pool`` for t in [lo, hi)."""
    if lo < 1 << 32 < hi:        # one pass mixes rows of one length; t >= 2**32 has two words
        return np.concatenate([_block_pools(prefix, lo, 1 << 32),
                               _block_pools(prefix, 1 << 32, hi)])
    t, hashmix = np.arange(lo, hi, dtype=np.uint64), _hasher(_INIT_A, _MULT_A)
    words = ([np.full(hi - lo, w, np.uint32) for w in prefix]
             + [(t >> shift).astype(np.uint32) for shift in range(0, max(lo.bit_length(), 1), 32)])
    pool = [hashmix(words[i] if i < len(words) else 0 * words[0]) for i in range(4)]
    # mix each pool word into the others, then each entropy word beyond the pool into all
    for src in range(max(4, len(words))):
        for dst in (d for d in range(4) if d != src):
            x = pool[dst] * _MIX_L - hashmix(pool[src] if src < 4 else words[src]) * _MIX_R
            pool[dst] = x ^ (x >> 16)
    return np.stack(pool, axis=1)


def _block_streams(seed: int, m: int, lo: int, hi: int):
    """The streams ``trial_rng(seed, (m, t))`` for t in [lo, hi), same draws.

    numpy's ``SeedSequence`` runs once over the block: each trial's entropy
    ``[seed mod 2**64, m, t]`` is mixed into its pool, then ``generate_state(4,
    uint64)`` hashes the pools. Each Generator is built when it is asked for.
    """
    pools = _block_pools(_words(seed % (1 << 64)) + _words(m), lo, hi)
    out = _hasher(_INIT_B, _MULT_B)
    words = np.stack([out(pools[:, i % 4]) for i in range(8)], axis=1)
    seed_type = _stream_seed_type()
    for state in words.astype("<u4").view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(seed_type(state)))


def _steered_slices(array: AntennaArray, amplitudes: np.ndarray, vectors: np.ndarray):
    """Each slice of a block's (T, M) amplitudes and (T, M, 3) vectors, with its (t, M)
    amplitudes, a view, and their (t, N, M) `steering_matrix`.

    A block's streams and draws run whole; the stages after them run a `channel._slices`
    slice of trials at a time, M max(M, N) entries of the (T, N, M) phasors or (T, M, M)
    kernel per trial, so a block's memory stays bounded at every size the limits accept.
    """
    m = amplitudes.shape[1]
    for part in _slices(len(amplitudes), m * max(m, array.n_elements)):
        yield part, amplitudes[part], steering_matrix(array, vectors[part])


def _effectiveness_block(cfg: ExperimentConfig, block) -> np.ndarray:
    """(ineffective fraction, effective count) per trial of a block whose channels
    are drawn as raw arrays, one row per trial's stream, classified a trial slice
    at a time."""
    m, lo, hi = block
    array = cfg.array()
    amplitudes, vectors, _ = sample_channel(m, cfg.fov(), cfg.delay_max_s,
                                            list(_block_streams(cfg.seed, m, lo, hi)))
    counts = np.empty(hi - lo, dtype=np.intp)
    for part, a, steering in _steered_slices(array, amplitudes, vectors):
        counts[part] = np.count_nonzero(
            np.abs(a) >= np.abs(cross_beam_interference(a, steering)), axis=1)
    return np.column_stack([(m - counts) / m, counts])


def _band_block(cfg: ExperimentConfig, block) -> np.ndarray:
    """Linear band-averaged SNR at unit noise of both beams per trial of a block.

    Each trial's channel is drawn as a `ChannelRealization` from its own stream,
    because `band_average_gain` takes one channel per call. The beams are designed
    a trial slice at a time, then each trial's two are averaged over the band grid
    of its channel."""
    m, lo, hi = block
    array, fov = cfg.array(), cfg.fov()
    channels = [sample_channel(m, fov, cfg.delay_max_s, rng)
                for rng in _block_streams(cfg.seed, m, lo, hi)]
    amplitudes = np.stack([channel.amplitudes() for channel in channels])
    vectors = np.stack([channel.direction_matrix() for channel in channels])
    coeffs, noise = np.empty((hi - lo, 2, array.n_elements), dtype=complex), np.empty((hi - lo, 2))
    for part, a, steering in _steered_slices(array, amplitudes, vectors):
        coeffs[part], noise[part] = design_beams(a, steering)
    out = np.empty(noise.shape)
    for i, channel in enumerate(channels):
        for j, weights in enumerate(coeffs[i]):
            out[i, j] = band_average_gain(weights, channel, array,
                                          cfg.bandwidth_hz, cfg.freq_points) / noise[i, j]
    return out


def _blockage_block(cfg: ExperimentConfig, block) -> np.ndarray:
    """Linear band-averaged SNR at unit noise of both beams per trial of a block,
    each beam designed on the drawn channel and met by it less one path.

    A block's channels are drawn as raw arrays, then each stream's blocked
    index. A trial slice at a time, each beam's tone gain toward a path is
    (w S) a with the blocked path's amplitude set to 0, and `band_power`
    averages the tones over the band in closed form.
    """
    m, lo, hi = block
    array = cfg.array()
    streams = list(_block_streams(cfg.seed, m, lo, hi))
    amplitudes, vectors, delays = sample_channel(m, cfg.fov(), cfg.delay_max_s, streams)
    blocked = np.array([rng.integers(m) for rng in streams])
    out = np.empty((hi - lo, 2))
    for part, a, steering in _steered_slices(array, amplitudes, vectors):
        coeffs, noise = design_beams(a, steering)
        a[np.arange(a.shape[0]), blocked[part]] = 0.0
        gains = (coeffs @ steering) * a[:, None, :]                  # (T, 2, M)
        out[part] = band_power(gains, delays[part], cfg.bandwidth_hz, cfg.freq_points) / noise
    return out


def _run_trials(block_fn, cfg: ExperimentConfig) -> np.ndarray:
    """(len(m_values), trials, k) results of ``block_fn(cfg, block)``, in m and trial order.

    Trials run in fixed blocks, serially or on a process pool in which every
    worker gets at least two blocks: a block costs less than starting a worker,
    so runs of fewer than four blocks stay in process. The blocks are listed m by m,
    each m's in trial order, so their (t, k) outputs join in one pass either way.
    """
    blocks = [(m, lo, min(lo + _TRIAL_BLOCK, cfg.trials))
              for m in cfg.m_values for lo in range(0, cfg.trials, _TRIAL_BLOCK)]
    fn = functools.partial(block_fn, cfg)
    workers = min(cfg.workers, len(blocks) // 2)
    if workers <= 1:
        outputs = [fn(b) for b in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(fn, blocks))
    return np.concatenate(outputs).reshape(len(cfg.m_values), cfg.trials, -1)


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
    s = exact_array_parameter(cfg.array(), cfg.fov())
    results = _run_trials(_effectiveness_block, cfg)
    cols: dict[str, list[float]] = defaultdict(list)
    for m, (fracs, counts) in zip(cfg.m_values, results.transpose(0, 2, 1)):
        p_mean, p_err = _mean_stderr(fracs)
        c_mean, c_err = _mean_stderr(counts)
        cols["p_ineff_theory"].append(ineffectiveness_probability(m, s))
        cols["p_ineff_empirical"].append(p_mean)
        cols["p_ineff_stderr"].append(p_err)
        cols["count_theory"].append(effective_count(m, s))
        cols["count_mean"].append(c_mean)
        cols["count_stderr"].append(c_err)
        # np.median of the counts, without the numpy.ma import that np.median makes
        middle = np.sort(counts)[[(counts.size - 1) // 2, counts.size // 2]]
        cols["count_median"].append(float(middle.mean()))
    return SweepResult(cfg.m_values, cfg.trials,
                       {k: tuple(v) for k, v in cols.items()})


def run_snr_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Band-averaged SNR versus M for both beam kinds, simulated and predicted.

    Per-trial linear SNRs are averaged in linear scale, then converted
    to dB; averaging per-trial dB values would bias the result low. The
    theory columns use the exact array parameter. Everything is computed at
    unit noise; sigma0 enters once, as a dB offset of every SNR column.
    """
    s = exact_array_parameter(cfg.array(), cfg.fov())
    noise_db = 20.0 * math.log10(cfg.sigma0)
    results = _run_trials(_band_block, cfg)
    cols: dict[str, list[float]] = defaultdict(list)
    for m, (mrc_lin, single_lin) in zip(cfg.m_values, results.transpose(0, 2, 1)):
        for prefix, lin, theory in (
                ("mrc", mrc_lin, snr_mrc_theory(cfg.n_elements, m, s, 1.0)),
                ("single", single_lin, snr_single_theory(cfg.n_elements, m, s, 1.0))):
            mean, err = _mean_stderr(lin)
            cols[f"{prefix}_theory_db"].append(to_db(theory) - noise_db)
            cols[f"{prefix}_sim_db"].append(to_db(mean) - noise_db)
            # delta-method conversion of the linear-scale standard error
            cols[f"{prefix}_sim_stderr_db"].append(float(10.0 / np.log(10.0) * err / mean))
    return SweepResult(cfg.m_values, cfg.trials,
                       {k: tuple(v) for k, v in cols.items()})


def run_blockage_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Post-blockage SNR distribution for beams designed before the blockage.

    Requires a single entry in ``m_values`` with at least two paths, so a
    component can be removed. Returns read-only sorted arrays of per-trial
    SNRs under the ``samples`` keys "mrc" and "single": each trial's SNR at
    unit noise in dB, less the noise power 20 log10(sigma0) dB.
    """
    if len(cfg.m_values) != 1:
        raise ValueError("blockage experiment expects exactly one m value")
    if cfg.m_values[0] < 2:
        raise ValueError("blockage experiment needs at least two paths")
    noise_db = 20.0 * math.log10(cfg.sigma0)
    (result,) = _run_trials(_blockage_block, cfg)
    cols, samples = {}, {}
    for kind, lin in zip(("mrc", "single"), result.T):
        snr_db = 10.0 * np.log10(lin) - noise_db
        mean, err = _mean_stderr(snr_db)
        cols[f"{kind}_mean_db"], cols[f"{kind}_stderr_db"] = (mean,), (err,)
        samples[kind] = np.sort(snr_db)
        samples[kind].flags.writeable = False
    return SweepResult(cfg.m_values, cfg.trials, cols, samples)
