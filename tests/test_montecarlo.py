import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mrcbeam
from mrcbeam import (ChannelRealization, ExperimentConfig, FieldOfView,
                     band_average_gain, classify_effectiveness, combined_response, make_ula,
                     mrc_weights, noise_power, remove_component,
                     run_blockage_experiment, run_effectiveness_sweep,
                     run_snr_sweep, sample_channel, single_direction_weights,
                     strongest_component, to_db, trial_rng)
from mrcbeam.beams import steering_matrix
from mrcbeam.montecarlo import (MAX_TRIALS, MAX_WORKERS, _block_pools, _block_streams,
                                _blockage_block, _words)

# Reference 1000-trial simulation marks for half-wavelength line arrays with
# a 180 degree field of view, M = 1..15 (same data set as the theory curves
# in test_theory.py).
REFERENCE_PINEFF_MARKS = {
    8: [0, 0.0945, 0.19, 0.25925, 0.3144, 0.376, 0.427, 0.4745,
        0.499222222222222, 0.5317, 0.557727272727273, 0.586083333333333,
        0.616076923076923, 0.627, 0.656933333333333],
    16: [0, 0.049, 0.0953333333333334, 0.14725, 0.1902, 0.22, 0.267, 0.2915,
         0.322777777777778, 0.3421, 0.376636363636364, 0.398916666666667,
         0.426692307692308, 0.453, 0.467066666666667],
    32: [0, 0.0255, 0.0526666666666666, 0.0765, 0.109, 0.125166666666667,
         0.139857142857143, 0.165, 0.186, 0.2073, 0.225272727272727,
         0.243583333333333, 0.257846153846154, 0.281357142857143,
         0.297333333333333],
}

FOV180 = FieldOfView.from_degrees(180)


def _channel(alphas, thetas=0.0, delays=0.0):
    """Channel of paths in the x-y plane at broadside angles ``thetas`` (radians)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    thetas = np.broadcast_to(np.asarray(thetas, dtype=float), alphas.shape)
    vectors = np.stack([np.sin(thetas), np.cos(thetas), np.zeros_like(thetas)], axis=-1)
    return ChannelRealization(alphas, vectors, np.broadcast_to(delays, alphas.shape))


def _direction(ch, m):
    """Arrival direction of path m."""
    return ch.direction_matrix()[m]


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(n_elements=8, m_values=(1, 2))
        assert cfg.spacing_wavelengths == 0.5
        assert cfg.fov_deg == 180.0
        assert cfg.trials == 1000
        assert cfg.delay_max_ns == 100.0
        assert cfg.bandwidth_hz == 1e9
        assert cfg.freq_points == 1024
        assert cfg.sigma0 == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(n_elements=0, m_values=(1,)),
        dict(n_elements=8, m_values=()),
        dict(n_elements=8, m_values=(0,)),
        dict(n_elements=8, m_values=(2,), trials=0),
        dict(n_elements=8, m_values=(2,), freq_points=1),
        dict(n_elements=8, m_values=(2,), bandwidth_hz=0.0),
        dict(n_elements=8, m_values=(2,), bandwidth_hz=float("inf")),
        dict(n_elements=8, m_values=(2,), bandwidth_hz=float("nan")),
        dict(n_elements=8, m_values=(2,), sigma0=0.0),
        dict(n_elements=8, m_values=(2,), sigma0=-1.0),
        dict(n_elements=8, m_values=(2,), sigma0=float("inf")),
        dict(n_elements=8, m_values=(2,), sigma0=float("nan")),
        dict(n_elements=8, m_values=(2,), workers=0),
        dict(n_elements=8, m_values=(2,), delay_max_ns=0.0),
        dict(n_elements=8, m_values=(2,), delay_max_ns=-1.0),
        dict(n_elements=8, m_values=(2,), delay_max_ns=float("inf")),
        dict(n_elements=8, m_values=(2,), delay_max_ns=float("nan")),
        dict(n_elements=8, m_values=(2,), delay_max_ns=5e-324),     # 0 s after conversion
        dict(n_elements=8, m_values=(2,), delay_max_ns=1e308),      # tone phases overflow
        dict(n_elements=8, m_values=(2, 4097)),                     # past the size limits
        dict(n_elements=8, m_values=(2,), freq_points=(1 << 20) + 1),
        dict(n_elements=8, m_values=(2,), workers=MAX_WORKERS + 1),
        dict(n_elements=8, m_values=(2,), trials=MAX_TRIALS + 1),
        dict(n_elements=8, m_values=(1, 2), trials=MAX_TRIALS // 2 + 1),
        dict(n_elements=8, m_values=(2,), trials=10**15, workers=10**15),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field", ["m_values", "n_elements", "trials", "freq_points",
                                       "seed", "workers"])
    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "4", None])
    def test_non_integer_count_rejected(self, field, bad):
        kwargs = dict(n_elements=8, m_values=(2,), freq_points=16)
        kwargs[field] = (bad,) if field == "m_values" else bad
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        cfg = ExperimentConfig(n_elements=np.int64(8), m_values=np.arange(1, 3),
                               trials=np.int32(5), freq_points=np.uint16(16),
                               seed=np.uint64(2 ** 63), workers=np.int8(2))
        assert cfg == ExperimentConfig(n_elements=8, m_values=(1, 2), trials=5, freq_points=16,
                                       seed=2 ** 63, workers=2)
        assert all(type(v) is int for v in (cfg.n_elements, *cfg.m_values, cfg.trials,
                                            cfg.freq_points, cfg.seed, cfg.workers))

    def test_size_limits_are_inclusive(self):
        # only checked here: no trial block is listed and no worker started
        ExperimentConfig(n_elements=8, m_values=(1, 2), trials=MAX_TRIALS // 2,
                         workers=MAX_WORKERS)


class TestTrialRng:
    def test_same_index_reproduces(self):
        a = trial_rng(123, 7).uniform(size=100)
        b = trial_rng(123, 7).uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = trial_rng(123, 7).uniform(size=10_000)
        b = trial_rng(123, 8).uniform(size=10_000)
        assert np.any(a != b)

    def test_tuple_indices(self):
        a = trial_rng(1, (4, 2)).uniform(size=50)
        b = trial_rng(1, (4, 2)).uniform(size=50)
        c = trial_rng(1, (2, 4)).uniform(size=50)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_negative_seed_accepted(self):
        trial_rng(-5, 0).uniform(size=4)


class TestBlockStreams:
    """A block's streams against the single-stream oracle `trial_rng`."""

    @pytest.mark.parametrize("seed", [0, 1, -5, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 3])
    @pytest.mark.parametrize("m, lo", [(3, 0), (3, 256), (2**32, 0), (5, 2**32 - 2)])
    def test_same_state_and_draws_as_trial_rng(self, seed, m, lo):
        streams = list(_block_streams(seed, m, lo, lo + 6))
        assert len(streams) == 6
        for t, rng in enumerate(streams, start=lo):
            oracle = trial_rng(seed, (m, t))
            assert rng.bit_generator.state == oracle.bit_generator.state
            np.testing.assert_array_equal(rng.standard_normal(8), oracle.standard_normal(8))
            assert rng.integers(1 << 40) == oracle.integers(1 << 40)

    @pytest.mark.parametrize("seed", [0, 1, -5, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 3])
    @pytest.mark.parametrize("m", [1, 20, 2**32])
    @pytest.mark.parametrize("lo, hi", [(0, 256), (256, 512), (2**32 - 100, 2**32 + 156),
                                        (41, 42)])
    def test_block_pools_match_seed_sequence(self, seed, m, lo, hi):
        # entropy of 3 to 6 words: shorter than the pool, as long, and longer
        prefix = _words(seed % (1 << 64)) + _words(m)
        pools = _block_pools(prefix, lo, hi)
        expected = [np.random.SeedSequence(np.array(prefix + _words(t), dtype=np.uint32)).pool
                    for t in range(lo, hi)]
        assert pools.dtype == np.uint32
        np.testing.assert_array_equal(pools, np.array(expected, dtype=np.uint32))

    def test_block_builds_no_seed_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a block stream built a SeedSequence")
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert len(list(_block_streams(3, 4, 2**32 - 2, 2**32 + 2))) == 4

    @pytest.mark.parametrize("n_words, dtype", [(8, np.uint64), (4, np.uint32), (2, np.uint64)])
    def test_seed_source_refuses_other_requests(self, n_words, dtype):
        seed_seq = next(_block_streams(0, 1, 0, 1)).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seed_seq.generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", [0, -5, 2**64 + 3])
    @pytest.mark.parametrize("m", [1, 2, 15])
    @pytest.mark.parametrize("fov_deg", [0.0, 60.0, 180.0])
    @pytest.mark.parametrize("lo, hi", [(0, 5), (2**32 - 3, 2**32 + 2)])
    def test_block_draw_matches_per_trial_channels(self, seed, m, fov_deg, lo, hi):
        fov = FieldOfView.from_degrees(fov_deg)
        streams = list(_block_streams(seed, m, lo, hi))
        amplitudes, vectors, delays = sample_channel(m, fov, 80e-9, streams)
        assert (amplitudes.shape, vectors.shape, delays.shape) == ((hi - lo, m), (hi - lo, m, 3),
                                                                   (hi - lo, m))
        for i, t in enumerate(range(lo, hi)):
            oracle_rng = trial_rng(seed, (m, t))
            oracle = sample_channel(m, fov, 80e-9, oracle_rng)
            for got, expected in ((amplitudes, oracle.amplitudes()),
                                  (vectors, oracle.direction_matrix()), (delays, oracle.delays())):
                assert got[i].dtype == expected.dtype and got[i].tobytes() == expected.tobytes()
            # each stream is left where the single draw leaves it
            assert streams[i].bit_generator.state == oracle_rng.bit_generator.state

    def test_effectiveness_sweep_matches_per_trial_loop(self):
        cfg = ExperimentConfig(n_elements=6, m_values=(1, 5), trials=300, seed=23)
        res = run_effectiveness_sweep(cfg)
        arr, fov = cfg.array(), cfg.fov()
        for i, m in enumerate(cfg.m_values):
            counts = np.array([np.count_nonzero(classify_effectiveness(
                sample_channel(m, fov, cfg.delay_max_s, trial_rng(cfg.seed, (m, t))), arr))
                for t in range(cfg.trials)], dtype=float)
            fracs = (m - counts) / m
            assert res.columns["p_ineff_empirical"][i] == fracs.mean()
            assert res.columns["p_ineff_stderr"][i] == fracs.std(ddof=1) / np.sqrt(cfg.trials)
            assert res.columns["count_mean"][i] == counts.mean()
            assert res.columns["count_median"][i] == np.median(counts)


def test_effectiveness_run_imports_no_numpy_ma(tmp_path):
    # np.median would import numpy.ma, which costs more than the median itself
    src = str(Path(mrcbeam.__file__).resolve().parents[1])
    code = ("import sys\nfrom mrcbeam.cli import main\n"
            "main(['ineffectiveness', '--elements', '4', '--m-max', '4', '--trials', '6',\n"
            f"      '--format', 'json', '--output', {str(tmp_path / 'out.json')!r}])\n"
            "sys.exit('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
    assert (tmp_path / "out.json").stat().st_size > 0


class TestBandBlock:
    """Both band-averaging experiments against a per-trial loop of single calls."""

    @staticmethod
    def _trial_snrs(cfg, m, blockage, precise=False):
        """(trials, 2) linear SNRs of the combining and the strongest-path beam: the
        mean over the band grid of `combined_response`, or with ``precise`` of a
        direct tone sum in np.longdouble."""
        arr, fov = cfg.array(), cfg.fov()
        real = np.longdouble if precise else float
        half = real(cfg.bandwidth_hz) / 2
        freqs = np.linspace(-half, half, cfg.freq_points)
        out = np.empty((cfg.trials, 2))
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, (m, t))
            ch = sample_channel(m, fov, cfg.delay_max_s, rng)
            applied = remove_component(ch, int(rng.integers(m))) if blockage else ch
            strongest = ch.direction_matrix()[strongest_component(ch)]
            for j, w in enumerate((mrc_weights(ch, arr), single_direction_weights(arr, strongest))):
                if precise:
                    gains = ((w @ steering_matrix(arr, applied.direction_matrix()))
                             * applied.amplitudes())
                    phases = -2 * np.arccos(real(-1)) * np.outer(applied.delays(), freqs)
                    response = gains @ (np.cos(phases) + 1j * np.sin(phases))
                else:
                    response = combined_response(w, applied, arr, freqs)
                out[t, j] = np.mean(np.abs(response) ** 2) / noise_power(w, cfg.sigma0)
        return out

    def test_snr_sweep_matches_per_trial_loop(self):
        # 300 trials: a full block of 256 and a partial one
        cfg = ExperimentConfig(n_elements=6, m_values=(1, 5), trials=300, seed=29, sigma0=0.7)
        res = run_snr_sweep(cfg)
        for i, m in enumerate(cfg.m_values):
            for kind, lin in zip(("mrc", "single"), self._trial_snrs(cfg, m, False).T):
                mean, err = lin.mean(), lin.std(ddof=1) / np.sqrt(cfg.trials)
                assert res.columns[f"{kind}_sim_db"][i] == pytest.approx(to_db(mean), rel=1e-12)
                assert res.columns[f"{kind}_sim_stderr_db"][i] == pytest.approx(
                    10 / np.log(10) * err / mean, rel=1e-12)

    # at 64 paths a 256-trial block's kernel is built two rows at a time; with
    # 5 us of delay the tone phases reach 1.6e4 rad, so there the oracle is long double
    @pytest.mark.parametrize("m, extra, precise", [
        (5, {}, False), (64, {}, False),
        (5, {"delay_max_ns": 5000.0, "freq_points": 1000}, True)],
        ids=["few-paths", "many-paths", "long-delays"])
    def test_blockage_matches_per_trial_loop(self, m, extra, precise):
        cfg = ExperimentConfig(n_elements=6, m_values=(m,), trials=300, seed=31, sigma0=0.7,
                               **extra)
        res = run_blockage_experiment(cfg)
        for kind, lin in zip(("mrc", "single"), self._trial_snrs(cfg, m, True, precise).T):
            np.testing.assert_allclose(res.samples[kind], np.sort(10 * np.log10(lin)),
                                       rtol=1e-12, atol=0)


class TestBandAverageGain:
    def test_single_path_ignores_bandwidth(self):
        arr = make_ula(4, 0.5)
        ch = _channel(1.3 - 0.2j, 0.4, 66e-9)
        w = mrc_weights(ch, arr)
        from mrcbeam import combined_response
        center = abs(combined_response(w, ch, arr, 0.0)) ** 2
        for bw in (1e6, 1e9, 20e9):
            got = band_average_gain(w, ch, arr, bw, 512)
            assert got == pytest.approx(center, rel=1e-12)

    def test_zero_bandwidth_is_center_power(self):
        arr = make_ula(4, 0.5)
        ch = sample_channel(5, FOV180, 100e-9, np.random.default_rng(0))
        w = mrc_weights(ch, arr)
        from mrcbeam import combined_response
        center = abs(combined_response(w, ch, arr, 0.0)) ** 2
        assert band_average_gain(w, ch, arr, 0.0, 16) == pytest.approx(center, rel=1e-12)

    @pytest.mark.parametrize("bandwidth", [-1e9, -1e-300, float("inf"), float("nan")])
    def test_bad_bandwidth_rejected(self, bandwidth):
        arr = make_ula(4, 0.5)
        ch = sample_channel(3, FOV180, 100e-9, np.random.default_rng(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # no RuntimeWarning from the grid first
            with pytest.raises(ValueError, match="bandwidth"):
                band_average_gain(mrc_weights(ch, arr), ch, arr, bandwidth, 16)

    def test_one_point_rejected(self):
        # one point would be the band-edge power, not an average over the band
        arr = make_ula(4, 0.5)
        ch = sample_channel(3, FOV180, 100e-9, np.random.default_rng(2))
        with pytest.raises(ValueError, match="freq_points"):
            band_average_gain(mrc_weights(ch, arr), ch, arr, 1e9, 1)

    def test_two_path_closed_form_oracle(self):
        # scalar expansion: |a1|^2 + |a2|^2 + 2 Re(a1 conj(a2) e^{-j2pi f (t1-t2)})
        a1, a2 = 0.9 + 0.4j, -0.3 + 1.2j
        t1, t2 = 12e-9, 81e-9
        arr = make_ula(1, 0.5)
        ch = _channel([a1, a2], 0.0, [t1, t2])
        w = np.array([1.0 + 0j])
        bw, points = 1e9, 257
        oracle = 0.0
        for f in np.linspace(-bw / 2, bw / 2, points):
            oracle += (abs(a1) ** 2 + abs(a2) ** 2
                       + 2 * (a1 * np.conj(a2) * np.exp(-2j * np.pi * f * (t1 - t2))).real)
        oracle /= points
        assert band_average_gain(w, ch, arr, bw, points) == pytest.approx(oracle, rel=1e-12)

    def test_grid_refinement_is_converged(self):
        # doubling the grid density moves the average by well under 0.1%
        arr = make_ula(8, 0.5)
        ch = sample_channel(6, FOV180, 100e-9, np.random.default_rng(1))
        w = mrc_weights(ch, arr)
        coarse = band_average_gain(w, ch, arr, 1e9, 1024)
        fine = band_average_gain(w, ch, arr, 1e9, 2048)
        assert abs(fine - coarse) / coarse < 1e-3


class TestEffectivenessSweep:
    def test_single_path_degenerate(self):
        cfg = ExperimentConfig(n_elements=8, m_values=(1,), trials=50, seed=0)
        res = run_effectiveness_sweep(cfg)
        assert res.columns["p_ineff_empirical"] == (0.0,)
        assert res.columns["count_mean"] == (1.0,)
        assert res.columns["p_ineff_theory"] == (0.0,)
        assert res.columns["count_theory"] == (1.0,)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_tracks_reference_marks_across_m(self, n):
        cfg = ExperimentConfig(n_elements=n, m_values=tuple(range(1, 16)),
                               trials=1000, seed=0)
        res = run_effectiveness_sweep(cfg)
        for got, mark in zip(res.columns["p_ineff_empirical"], REFERENCE_PINEFF_MARKS[n]):
            assert abs(got - mark) <= 0.05

    def test_median_and_mean_both_reported(self):
        cfg = ExperimentConfig(n_elements=8, m_values=(6,), trials=200, seed=3)
        res = run_effectiveness_sweep(cfg)
        assert set(res.columns) >= {"count_mean", "count_median", "count_stderr",
                                    "p_ineff_theory", "p_ineff_empirical",
                                    "p_ineff_stderr", "count_theory"}
        assert res.columns["count_median"][0] == float(int(res.columns["count_median"][0] * 2)) / 2


class TestSnrSweep:
    def test_single_path_matches_array_gain(self):
        # narrowband regime: both beams deliver N, within Monte Carlo noise
        cfg = ExperimentConfig(n_elements=8, m_values=(1,), trials=3000, seed=1)
        res = run_snr_sweep(cfg)
        expected = to_db(8)
        assert res.columns["mrc_sim_db"][0] == pytest.approx(expected, abs=0.2)
        assert res.columns["single_sim_db"][0] == pytest.approx(expected, abs=0.2)
        # with one path the two beams are the same beam up to scale
        assert res.columns["mrc_sim_db"][0] == pytest.approx(
            res.columns["single_sim_db"][0], abs=1e-9)

    def test_reference_mark_single_beam(self):
        cfg = ExperimentConfig(n_elements=8, m_values=(20,), trials=1000, seed=0)
        res = run_snr_sweep(cfg)
        assert res.columns["single_sim_db"][0] == pytest.approx(17.03, abs=0.5)

    def test_theory_columns_match_direct_formulas(self):
        from mrcbeam import exact_array_parameter, snr_mrc_theory, snr_single_theory
        cfg = ExperimentConfig(n_elements=4, m_values=(3, 5), trials=10, seed=9)
        res = run_snr_sweep(cfg)
        s = exact_array_parameter(cfg.array(), cfg.fov())
        for i, m in enumerate(cfg.m_values):
            assert res.columns["mrc_theory_db"][i] == pytest.approx(
                to_db(snr_mrc_theory(4, m, s, 1.0)), abs=1e-12)
            assert res.columns["single_theory_db"][i] == pytest.approx(
                to_db(snr_single_theory(4, m, s, 1.0)), abs=1e-12)

    @pytest.mark.parametrize("run,theory_cols", [
        (run_snr_sweep, ("mrc_theory_db", "single_theory_db")),
        (run_effectiveness_sweep, ("p_ineff_theory", "count_theory")),
    ])
    def test_theory_columns_do_not_depend_on_seed(self, run, theory_cols):
        results = [run(ExperimentConfig(n_elements=4, m_values=(2, 4), trials=5,
                                        freq_points=16, seed=seed)) for seed in (0, 1)]
        for name in theory_cols:
            assert results[0].columns[name] == results[1].columns[name]
        assert results[0].columns != results[1].columns


class TestBlockage:
    def test_rejects_single_path_and_multi_m(self):
        with pytest.raises(ValueError):
            run_blockage_experiment(ExperimentConfig(n_elements=8, m_values=(1,), trials=5))
        with pytest.raises(ValueError):
            run_blockage_experiment(ExperimentConfig(n_elements=8, m_values=(2, 3), trials=5))

    def test_sample_lists_sorted_and_sized(self):
        cfg = ExperimentConfig(n_elements=8, m_values=(4,), trials=64, seed=5,
                               freq_points=128)
        res = run_blockage_experiment(cfg)
        for kind in ("mrc", "single"):
            vals = res.samples[kind]
            assert len(vals) == 64
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(np.isfinite(vals))

    def test_growing_trials_extends_sample_multiset(self):
        # per-trial streams do not depend on the trial count
        small = run_blockage_experiment(
            ExperimentConfig(n_elements=4, m_values=(3,), trials=30, seed=6,
                             freq_points=64))
        large = run_blockage_experiment(
            ExperimentConfig(n_elements=4, m_values=(3,), trials=60, seed=6,
                             freq_points=64))
        remaining = list(large.samples["mrc"])
        for v in small.samples["mrc"]:
            remaining.remove(v)  # raises ValueError if the first half changed
        assert len(remaining) == 30

    def test_block_memory_is_cache_sized(self):
        # a 256-trial block at N=8, M=20 builds K six rows at a time; built whole,
        # K and its evaluation lifted the block's peak to 4.7 MiB
        cfg = ExperimentConfig(n_elements=8, m_values=(20,), trials=256)
        _blockage_block(cfg, (20, 0, 256))          # first-call caches and imports
        tracemalloc.start()
        try:
            _blockage_block(cfg, (20, 0, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * (1 << 20)

    def test_blocking_strongest_leaves_sidelobe_energy(self):
        # two paths, beam pointed at the stronger one, stronger one removed:
        # what is left arrives only through a sidelobe of the pointed beam
        arr = make_ula(8, 0.5)
        ch = _channel([2.0, 0.8], [0.25, -0.85], [10e-9, 60e-9])
        k = strongest_component(ch)
        assert k == 0
        w = single_direction_weights(arr, _direction(ch, k))
        pre = band_average_gain(w, ch, arr, 1e9, 512) / noise_power(w, 1.0)
        post = band_average_gain(w, remove_component(ch, k), arr, 1e9, 512) / noise_power(w, 1.0)
        sidelobe = abs(np.conj(ch.amplitudes()[1])
                       * _pair_gain(arr, ch, 1, 0)) ** 2
        assert post == pytest.approx(sidelobe * arr.n_elements, rel=1e-9)
        assert post < pre

    def test_blocking_zero_amplitude_component_changes_nothing(self):
        arr = make_ula(8, 0.5)
        ch = _channel([1.1, 0.0, 0.7 - 0.2j], [0.3, -0.5, 0.9], [20e-9, 50e-9, 80e-9])
        for w in (mrc_weights(ch, arr),
                  single_direction_weights(arr, _direction(ch, 0))):
            pre = band_average_gain(w, ch, arr, 1e9, 256) / noise_power(w, 1.0)
            post = band_average_gain(w, remove_component(ch, 1), arr, 1e9, 256) / noise_power(w, 1.0)
            assert post == pytest.approx(pre, rel=1e-12)


def _pair_gain(arr, ch, m, h):
    from mrcbeam import component_array_factor
    return component_array_factor(arr, _direction(ch, m), _direction(ch, h))


class TestDeterminism:
    def test_rerun_is_identical(self):
        cfg = ExperimentConfig(n_elements=4, m_values=(2, 4), trials=40, seed=11,
                               freq_points=64)
        a = run_snr_sweep(cfg)
        b = run_snr_sweep(cfg)
        assert a.columns == b.columns

    def test_worker_count_does_not_change_results(self):
        base = ExperimentConfig(n_elements=4, m_values=(2, 3), trials=600, seed=12,
                                freq_points=64)
        parallel = ExperimentConfig(n_elements=4, m_values=(2, 3), trials=600, seed=12,
                                    freq_points=64, workers=4)
        a = run_effectiveness_sweep(base)
        b = run_effectiveness_sweep(parallel)
        assert a.columns == b.columns
        snr = ExperimentConfig(n_elements=4, m_values=(2, 3), trials=300, seed=12,
                               freq_points=64)
        assert (run_snr_sweep(snr).columns
                == run_snr_sweep(dataclasses.replace(snr, workers=2)).columns)
        c = run_blockage_experiment(
            ExperimentConfig(n_elements=4, m_values=(4,), trials=600, seed=12,
                             freq_points=64))
        d = run_blockage_experiment(
            ExperimentConfig(n_elements=4, m_values=(4,), trials=600, seed=12,
                             freq_points=64, workers=3))
        assert c.samples == d.samples
