import copy
import json
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import mrcbeam.channel
from mrcbeam import (ChannelRealization, ExperimentConfig, FieldOfView, channel_from_json,
                     channel_to_json, make_ula, per_antenna_response, remove_component,
                     run_blockage_experiment, run_effectiveness_sweep, sample_channel)
from mrcbeam.channel import _dirichlet, band_power, even_grid, tone_sum


def _channel(alphas, thetas=0.0, delays=0.0):
    """Channel of paths in the x-y plane at broadside angles ``thetas`` (radians)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    thetas = np.broadcast_to(np.asarray(thetas, dtype=float), alphas.shape)
    vectors = np.stack([np.sin(thetas), np.cos(thetas), np.zeros_like(thetas)], axis=-1)
    return ChannelRealization(alphas, vectors, np.broadcast_to(delays, alphas.shape))


def _paths(ch, index):
    """The channel of the paths of ``ch`` at ``index``, a list of positions."""
    return ChannelRealization(ch.amplitudes()[index], ch.direction_matrix()[index],
                              ch.delays()[index])


class TestSampling:
    def test_argument_validation(self):
        fov = FieldOfView.from_degrees(180)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_channel(0, fov, 100e-9, rng)
        with pytest.raises(ValueError):
            sample_channel(3, fov, 0.0, rng)
        with pytest.raises(ValueError):
            sample_channel(3, fov, float("inf"), rng)

    def test_amplitude_moments(self):
        # one big draw stands in for many single-path channels
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(100_000, fov, 100e-9, np.random.default_rng(42))
        a = ch.amplitudes()
        n = a.size
        assert abs(a.mean()) <= 3 / np.sqrt(2 * n)  # complex mean, var 1/n per draw
        p2 = np.abs(a) ** 2
        assert abs(p2.mean() - 1.0) <= 3 * p2.std(ddof=1) / np.sqrt(n)
        p4 = np.abs(a) ** 4
        assert abs(p4.mean() - 2.0) <= 3 * p4.std(ddof=1) / np.sqrt(n)

    def test_delays_within_bound(self):
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(10_000, fov, 100e-9, np.random.default_rng(1))
        d = ch.delays()
        assert d.min() >= 0.0 and d.max() <= 100e-9

    def test_draw_order_directions_amplitudes_delays(self):
        fov = FieldOfView.from_degrees(120)
        rng = np.random.default_rng(11)
        ch = sample_channel(5, fov, 80e-9, rng)
        direct = np.random.default_rng(11)
        thetas = fov.sample_angles(direct, 5)
        alphas = (direct.standard_normal(5) + 1j * direct.standard_normal(5)) / np.sqrt(2.0)
        delays = direct.uniform(0.0, 80e-9, 5)
        assert ch.direction_matrix().tobytes() == fov.direction_at(thetas).tobytes()
        assert ch.amplitudes().tobytes() == alphas.tobytes()
        assert ch.delays().tobytes() == delays.tobytes()
        assert rng.bit_generator.state == direct.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 7, 20, 101])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_one_normal_draw_equals_two_calls(self, m, seed):
        # the real and imaginary parts come from one call; the draws and the
        # generator state afterwards are those of one call per part
        fov = FieldOfView.from_degrees(180)
        rng, direct = np.random.default_rng(seed), np.random.default_rng(seed)
        ch = sample_channel(m, fov, 100e-9, rng)
        fov.sample_angles(direct, m)
        re, im = direct.standard_normal(m), direct.standard_normal(m)
        delays = direct.uniform(0.0, 100e-9, m)
        assert ch.amplitudes().tobytes() == ((re + 1j * im) / np.sqrt(2.0)).tobytes()
        assert ch.delays().tobytes() == delays.tobytes()
        assert rng.bit_generator.state == direct.bit_generator.state
        assert rng.standard_normal(3).tobytes() == direct.standard_normal(3).tobytes()

    def test_equals_constructor_build_without_revalidating(self, monkeypatch):
        fov = FieldOfView.from_degrees(120)
        rng = np.random.default_rng(12)
        thetas = fov.sample_angles(rng, 6)
        alphas = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2.0)
        expected = ChannelRealization(alphas, fov.direction_at(thetas),
                                      rng.uniform(0.0, 80e-9, 6))

        def forbidden(*args):
            raise AssertionError("freshly drawn arrays were validated again")

        monkeypatch.setattr(ChannelRealization, "__init__", forbidden)
        drawn = sample_channel(6, fov, 80e-9, np.random.default_rng(12))
        for get in ("amplitudes", "direction_matrix", "delays"):
            a, b = getattr(drawn, get)(), getattr(expected, get)()
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    def test_directions_inside_fov(self):
        fov = FieldOfView.from_degrees(120)
        ch = sample_channel(5000, fov, 1e-9, np.random.default_rng(2))
        cosines = ch.direction_matrix()[:, 1]                 # against broadside, +y
        assert cosines.min() >= np.cos(fov.half_angle) - 1e-12


class TestConstructor:
    _A = np.array([1.0 + 0.5j, -0.3j])
    _V = np.array([[0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])
    _D = np.array([0.0, 20e-9])

    @pytest.mark.parametrize("amplitudes,vectors,delays", [
        (np.empty(0), np.empty((0, 3)), np.empty(0)),
        (_A, _V[:1], _D),
        (_A, _V[:, :2], _D),
        (_A, _V, _D[:1]),
        (_A[:, None], _V, _D),
        (_A, [[0.0, 1.0, 0.0], [np.nan, 1.0, 0.0]], _D),
        (_A, [[0.0, 1.0, 0.0], [0.6, 0.8, 1e-5]], _D),
        (_A, _V, [0.0, -1e-12]),
        (_A, _V, [0.0, np.nan]),
        ([1.0, np.inf], _V, _D),
        ([1.0, complex(0.0, np.nan)], _V, _D),
    ], ids=["no-paths", "too-few-vectors", "two-column-vectors", "too-few-delays",
            "2d-amplitudes", "nan-vector", "non-unit-vector", "negative-delay", "nan-delay",
            "inf-amplitude", "nan-amplitude"])
    def test_rejects_invalid_arrays(self, amplitudes, vectors, delays):
        with pytest.raises(ValueError):
            ChannelRealization(amplitudes, vectors, delays)

    def test_arrays_are_read_only_copies(self):
        amplitudes, vectors, delays = self._A.copy(), self._V.copy(), self._D.copy()
        built = ChannelRealization(amplitudes, vectors, delays)
        amplitudes[0] = vectors[0, 0] = delays[0] = 7.0
        assert built.amplitudes()[0] == self._A[0] and built.delays()[0] == 0.0
        assert built.direction_matrix()[0, 0] == 0.0
        sampled = sample_channel(3, FieldOfView.from_degrees(180), 1e-9,
                                 np.random.default_rng(0))
        rebuilt = ChannelRealization(sampled.amplitudes(), sampled.direction_matrix(),
                                     sampled.delays())
        for ch in (built, sampled, rebuilt,
                   remove_component(sampled, 1), copy.deepcopy(sampled),
                   pickle.loads(pickle.dumps(sampled))):
            for arr in (ch.amplitudes(), ch.direction_matrix(), ch.delays()):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_own_arrays_round_trip_is_bit_identical(self):
        ch = sample_channel(6, FieldOfView.from_degrees(180), 100e-9,
                            np.random.default_rng(8))
        again = ChannelRealization(ch.amplitudes(), ch.direction_matrix(), ch.delays())
        for get in ("amplitudes", "direction_matrix", "delays"):
            a, b = getattr(ch, get)(), getattr(again, get)()
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_trial_loop_builds_no_per_path_objects(monkeypatch):
    # the effectiveness experiment draws a block's channels as raw arrays: no channel
    # object, so no per-trial sample_channel call either
    def no_channel(*args, **kwargs):
        raise AssertionError("a ChannelRealization was built")

    monkeypatch.setattr(ChannelRealization, "_keep", no_channel)
    with pytest.raises(AssertionError):
        sample_channel(2, FieldOfView.from_degrees(180), 1e-9, np.random.default_rng(0))
    run_effectiveness_sweep(ExperimentConfig(n_elements=4, m_values=(1, 3), trials=300))
    # so does the blockage experiment, also where its kernel is built in slices
    run_blockage_experiment(ExperimentConfig(n_elements=4, m_values=(64,), trials=300))


class TestToneSum:
    """The factored evenly-spaced grid against the direct tones e^{-j 2 pi f tau}."""

    @staticmethod
    def _channel(m):
        return sample_channel(m, FieldOfView.from_degrees(180), 100e-9,
                              np.random.default_rng(30))

    @staticmethod
    def _gains(shape, seed=31):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def _direct(gains, ch, f):
        return gains @ np.exp(-2j * np.pi * np.outer(ch.delays(), f))

    @staticmethod
    def _bound(gains, ch, f):
        """8 eps (1 + largest phase) sum |gains|, per output row."""
        max_phase = 2 * np.pi * ch.delays().max() * np.abs(f).max()
        total = np.abs(gains).sum(axis=-1)[..., None]
        return 8 * np.finfo(float).eps * (1 + max_phase) * total

    @pytest.mark.parametrize("n", [2, 3, 1024, 1025, 2047])
    @pytest.mark.parametrize("shape", [(6,), (4, 6)])
    def test_even_grid_matches_direct_tones(self, n, shape):
        ch, gains = self._channel(6), self._gains(shape)
        f = np.linspace(-5e8, 5e8, n)
        got = tone_sum(gains, ch, even_grid(-5e8, 5e8, n))
        assert got.shape == shape[:-1] + (n,)
        assert (np.abs(got - self._direct(gains, ch, f)) <= self._bound(gains, ch, f)).all()

    def test_large_phase_within_bound(self):
        # delays up to 10 us over a 5 GHz band: phases up to 1.6e5 rad
        drawn, gains = self._channel(8), self._gains((8,))
        ch = ChannelRealization(drawn.amplitudes(), drawn.direction_matrix(),
                                np.linspace(0.0, 10e-6, 8))
        f = np.linspace(-2.5e9, 2.5e9, 1024)
        assert (np.abs(tone_sum(gains, ch, even_grid(-2.5e9, 2.5e9, 1024))
                       - self._direct(gains, ch, f))
                <= self._bound(gains, ch, f)).all()

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_narrow_band_long_grid_within_bound(self, seed):
        # a 1 kHz band over 65536 points: the phase steps are tiny, so tones built by
        # repeated multiplication would gather rounding from every step
        ch = sample_channel(8, FieldOfView.from_degrees(180), 100e-9,
                            np.random.default_rng(seed))
        gains, f = self._gains((8,), seed), np.linspace(-500.0, 500.0, 65536)
        assert (np.abs(tone_sum(gains, ch, even_grid(-500.0, 500.0, 65536))
                       - self._direct(gains, ch, f))
                <= self._bound(gains, ch, f)).all()

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_zero_bandwidth_is_center_response(self, lo, hi):
        ch, gains = self._channel(5), self._gains((3, 5))
        center = tone_sum(gains, ch, 0.0)
        np.testing.assert_allclose(tone_sum(gains, ch, even_grid(lo, hi, 16)),
                                   np.repeat(center[:, None], 16, 1),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("f", [np.array([-5e8, -1e8, 2e8, 5e8]), np.array([3e8]),
                                   np.linspace(-5e8, 5e8, 1024), -np.zeros(16)])
    def test_uneven_or_single_point_grid_is_direct(self, f):
        # a plain array is summed directly even when it is evenly spaced
        ch, gains = self._channel(5), self._gains((3, 5))
        assert tone_sum(gains, ch, f).tobytes() == self._direct(gains, ch, f).tobytes()


class TestBandPower:
    """The closed-form band mean against direct means over ``np.linspace`` grids."""

    BANDWIDTH = 1e9

    @pytest.mark.parametrize("n", [777, 1000, 1023, 1024])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_kernel_at_multiples_of_the_tone_spacing(self, n, k):
        # at delay differences k / step, sin(pi u) in floats is not 0 and n pi u rounds:
        # sin(n x) / (n sin x) evaluated as written is off by up to 2.2 there
        step = self.BANDWIDTH / (n - 1)
        dtau = k / step
        f = np.linspace(-self.BANDWIDTH / 2, self.BANDWIDTH / 2, n)
        direct = np.mean(np.exp(-2j * np.pi * f * dtau)).real
        assert _dirichlet(n, np.array([step * dtau]))[0] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 777, 1024])
    def test_band_power_matches_long_double_sum(self, n):
        # coincident delays, delays k / step apart and random ones, for two gain rows
        step = self.BANDWIDTH / (n - 1)
        rng = np.random.default_rng(n)
        delays = np.concatenate([[50e-9, 50e-9, 0.0], np.arange(1, 4) / step,
                                 rng.uniform(0, 100e-9, 4)])
        gains = rng.standard_normal((2, delays.size)) + 1j * rng.standard_normal((2, delays.size))
        half = np.longdouble(self.BANDWIDTH) / 2
        phases = (-2 * np.arccos(np.longdouble(-1))
                  * np.outer(delays, np.linspace(-half, half, n)))
        response = gains @ (np.cos(phases) + 1j * np.sin(phases))
        direct = np.mean(np.abs(response) ** 2, axis=-1).astype(float)
        got = band_power(gains[None], delays[None], self.BANDWIDTH, n)
        assert got.shape == (1, 2)
        np.testing.assert_allclose(got[0], direct, rtol=1e-12, atol=0)

    def test_zero_bandwidth_is_center_power(self):
        rng = np.random.default_rng(3)
        gains = rng.standard_normal((4, 2, 6)) + 1j * rng.standard_normal((4, 2, 6))
        got = band_power(gains, rng.uniform(0, 1e-7, (4, 6)), 0.0, 16)
        np.testing.assert_allclose(got, np.abs(gains.sum(-1)) ** 2, rtol=1e-13)

    @pytest.mark.parametrize("kernel_slice", [1, 5 * 37 * 3, 5 * 37 * 36])
    def test_slices_of_rows_give_the_same_mean(self, monkeypatch, kernel_slice):
        # one row, three rows or all but the last row of K per slice, against one slice
        rng = np.random.default_rng(4)
        gains = rng.standard_normal((5, 2, 37)) + 1j * rng.standard_normal((5, 2, 37))
        delays = rng.uniform(0, 1e-7, (5, 37))
        whole = band_power(gains, delays, self.BANDWIDTH, 1024)
        monkeypatch.setattr(mrcbeam.channel, "_KERNEL_SLICE", kernel_slice)
        sliced = band_power(gains, delays, self.BANDWIDTH, 1024)
        np.testing.assert_allclose(sliced, whole, rtol=1e-13, atol=0)

    def test_kernel_memory_is_bounded_at_many_paths(self):
        # K of 2 channels of 2048 paths would take 64 MiB at once, and its
        # evaluation several times that
        rng = np.random.default_rng(5)
        gains = rng.standard_normal((2, 2, 2048)) + 1j * rng.standard_normal((2, 2, 2048))
        delays = rng.uniform(0, 1e-7, (2, 2048))
        tracemalloc.start()
        try:
            band_power(gains, delays, self.BANDWIDTH, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestEvenGrid:
    """The band grid value that `band_average_gain` hands to `tone_sum`."""

    @pytest.mark.parametrize("n", [2, 3, 1024])
    @pytest.mark.parametrize("bandwidth", [1e9, 3.7e6, 0.0])
    def test_length_and_built_once(self, bandwidth, n):
        grid = even_grid(-bandwidth / 2, bandwidth / 2, n)
        assert len(grid) == n
        assert even_grid(-bandwidth / 2, bandwidth / 2, n) is grid

    def test_zero_ends_keep_their_sign(self):
        # -0.0 == 0.0, so zero grids would share one cache entry if signs were ignored
        assert even_grid(0.0, -0.0, 16) is not even_grid(0.0, 0.0, 16)

    def test_nan_inside_cached_endpoints_rejected(self):
        f = np.linspace(-5e8, 5e8, 1024)
        f[500] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tone_sum(np.ones(6), TestToneSum._channel(6), f)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (-np.inf, 0.0), (0.0, np.inf),
                                        (-np.inf, np.inf)])
    def test_non_finite_ends_rejected_without_a_grid(self, lo, hi):
        cached = mrcbeam.channel._cached_grid.cache_info()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                even_grid(lo, hi, 16)
            with pytest.raises(ValueError, match="finite"):
                tone_sum(np.ones(6), TestToneSum._channel(6), np.array([lo, 0.0, 0.5, hi]))
        assert mrcbeam.channel._cached_grid.cache_info() == cached

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 1), (0.0, 1.0, 0), (0.0, 1.0, -3),
                                           (-1e308, 1e308, 16)])
    def test_short_grid_or_infinite_span_rejected_without_a_grid(self, lo, hi, n):
        cached = mrcbeam.channel._cached_grid.cache_info()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2 points"):
                even_grid(lo, hi, n)
        assert mrcbeam.channel._cached_grid.cache_info() == cached


class TestResponse:
    def test_single_path_center_frequency(self):
        ch = _channel(0.7 - 0.2j, 0.4, 55e-9)
        resp = per_antenna_response(ch, make_ula(1, 0.5), 0.0)
        np.testing.assert_allclose(resp, [0.7 - 0.2j], atol=1e-15)

    def test_center_frequency_ignores_delays(self):
        arr = make_ula(4, 0.5)
        m = np.arange(3)
        ra = per_antenna_response(_channel(1j ** m, 0.1 * m, 10e-9 * m), arr, 0.0)
        rb = per_antenna_response(_channel(1j ** m, 0.1 * m, 90e-9 - 7e-9 * m), arr, 0.0)
        np.testing.assert_allclose(ra, rb, atol=1e-15)

    def test_two_path_two_element_hand_expansion(self):
        # expand the 4 terms alpha_m * e^{j phase_nm} * e^{-j 2 pi f tau_m} by hand
        d = 0.5
        arr = make_ula(2, d)
        a1, th1, t1 = 0.8 + 0.3j, 0.5, 20e-9
        a2, th2, t2 = -0.1 + 1.1j, -0.9, 73e-9
        f = 10e6
        ch = _channel([a1, a2], [th1, th2], [t1, t2])
        got = per_antenna_response(ch, arr, f)
        rot1 = np.exp(-2j * np.pi * f * t1)
        rot2 = np.exp(-2j * np.pi * f * t2)
        expected = np.array([
            a1 * rot1 + a2 * rot2,
            a1 * np.exp(1j * 2 * np.pi * d * np.sin(th1)) * rot1
            + a2 * np.exp(1j * 2 * np.pi * d * np.sin(th2)) * rot2,
        ])
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_linearity_over_components(self):
        arr = make_ula(5, 0.5)
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(6, fov, 100e-9, np.random.default_rng(3))
        f = 237e6
        total = per_antenna_response(ch, arr, f)
        parts = sum(per_antenna_response(_paths(ch, [m]), arr, f) for m in range(ch.m_paths))
        np.testing.assert_allclose(total, parts, atol=1e-12)

    @pytest.mark.parametrize("f", [np.zeros((2, 3)), np.inf, [0.0, np.nan]])
    def test_bad_frequency_rejected(self, f):
        ch = _channel(1.0, 0.2, 10e-9)
        with pytest.raises(ValueError):
            per_antenna_response(ch, make_ula(2, 0.5), f)

    def test_vector_frequency_shape(self):
        arr = make_ula(3, 0.5)
        ch = _channel(1.0, 0.2, 10e-9)
        freqs = np.linspace(-5e8, 5e8, 17)
        resp = per_antenna_response(ch, arr, freqs)
        assert resp.shape == (3, 17)
        np.testing.assert_allclose(resp[:, 8], per_antenna_response(ch, arr, freqs[8]),
                                   atol=1e-14)


class TestRemoveComponent:
    def test_two_paths_keeps_other(self):
        ch = _channel([1.0, 2.0], [0.1, -0.3])
        for index, other in ((1, 0), (0, 1)):
            kept = remove_component(ch, index)
            for get in ("amplitudes", "direction_matrix", "delays"):
                assert getattr(kept, get)().tobytes() == getattr(ch, get)()[[other]].tobytes()

    def test_response_additivity(self):
        arr = make_ula(4, 0.5)
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(5, fov, 100e-9, np.random.default_rng(4))
        for f in (0.0, 123e6, -3.3e8):
            for idx in range(ch.m_paths):
                removed = per_antenna_response(remove_component(ch, idx), arr, f)
                alone = per_antenna_response(_paths(ch, [idx]), arr, f)
                full = per_antenna_response(ch, arr, f)
                np.testing.assert_allclose(removed, full - alone, atol=1e-12)

    def test_remove_then_readd_roundtrip(self):
        arr = make_ula(4, 0.5)
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(4, fov, 100e-9, np.random.default_rng(5))
        removed = remove_component(ch, 2)
        again = ChannelRealization(np.append(removed.amplitudes(), ch.amplitudes()[2]),
                                   np.vstack([removed.direction_matrix(),
                                              ch.direction_matrix()[2]]),
                                   np.append(removed.delays(), ch.delays()[2]))
        f = 77e6
        np.testing.assert_allclose(per_antenna_response(again, arr, f),
                                   per_antenna_response(ch, arr, f), atol=1e-12)

    def test_errors(self):
        ch1 = _channel(1.0)
        with pytest.raises(ValueError):
            remove_component(ch1, 0)
        ch2 = _channel([1.0, 2.0])
        with pytest.raises(ValueError):
            remove_component(ch2, 2)
        with pytest.raises(ValueError):
            remove_component(ch2, -1)
        for index in (1.5, True):
            with pytest.raises(ValueError, match="index must be an integer"):
                remove_component(ch2, index)
        assert remove_component(ch2, np.int64(1)).m_paths == 1

    def test_equals_constructor_build_without_revalidating(self, monkeypatch):
        ch = sample_channel(5, FieldOfView.from_degrees(180), 100e-9,
                            np.random.default_rng(6))
        expected = _paths(ch, [0, 1, 2, 4])

        def forbidden(*args):
            raise AssertionError("a subset of a valid channel was validated again")

        monkeypatch.setattr(ChannelRealization, "__init__", forbidden)
        blocked = remove_component(ch, 3)
        for get in ("amplitudes", "direction_matrix", "delays"):
            a, b = getattr(blocked, get)(), getattr(expected, get)()
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


class TestJsonSchema:
    def test_round_trip(self):
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(5, fov, 100e-9, np.random.default_rng(6))
        rec = json.loads(json.dumps(channel_to_json(ch)))
        back = channel_from_json(rec)
        np.testing.assert_allclose(back.amplitudes(), ch.amplitudes(), atol=1e-15)
        np.testing.assert_allclose(back.delays(), ch.delays(), rtol=1e-12)
        np.testing.assert_allclose(back.direction_matrix(), ch.direction_matrix(),
                                   atol=1e-12)

    def test_record_fields(self):
        ch = _channel(0.5 + 0.25j, 0.3, 42e-9)
        rec = channel_to_json(ch)
        entry = rec["components"][0]
        assert set(entry) == {"re", "im", "kx", "ky", "kz", "delay_ns"}
        assert entry["re"] == 0.5 and entry["im"] == 0.25
        assert entry["delay_ns"] == pytest.approx(42.0)
