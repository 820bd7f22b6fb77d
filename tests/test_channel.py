import copy
import json
import pickle

import numpy as np
import pytest

import mrcbeam.channel
from mrcbeam import (ChannelRealization, Direction, ExperimentConfig, FieldOfView,
                     MultipathComponent, channel_from_json, channel_to_json,
                     make_ula, per_antenna_response, remove_component,
                     run_blockage_experiment, run_effectiveness_sweep, run_snr_sweep,
                     sample_channel)
from mrcbeam.channel import tone_sum


def _component(alpha, theta=0.0, delay=0.0):
    return MultipathComponent(alpha, Direction.from_broadside_angle(theta), delay)


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

    def test_directions_inside_fov(self):
        fov = FieldOfView.from_degrees(120)
        ch = sample_channel(5000, fov, 1e-9, np.random.default_rng(2))
        cosines = ch.direction_matrix() @ fov.boresight.vector
        assert cosines.min() >= np.cos(fov.half_angle) - 1e-12


class TestFromArrays:
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
            ChannelRealization.from_arrays(amplitudes, vectors, delays)

    def test_components_path_rejects_non_finite_amplitude(self):
        d = Direction.from_broadside_angle(0.2)
        with pytest.raises(ValueError):
            ChannelRealization((MultipathComponent(complex("nan"), d, 0.0),))
        with pytest.raises(ValueError):
            ChannelRealization(())

    def test_arrays_are_read_only_copies(self):
        amplitudes, vectors, delays = self._A.copy(), self._V.copy(), self._D.copy()
        built = ChannelRealization.from_arrays(amplitudes, vectors, delays)
        amplitudes[0] = vectors[0, 0] = delays[0] = 7.0
        assert built.amplitudes()[0] == self._A[0] and built.delays()[0] == 0.0
        assert built.direction_matrix()[0, 0] == 0.0
        sampled = sample_channel(3, FieldOfView.from_degrees(180), 1e-9,
                                 np.random.default_rng(0))
        for ch in (built, sampled, ChannelRealization(sampled.components),
                   remove_component(sampled, 1), copy.deepcopy(sampled),
                   pickle.loads(pickle.dumps(sampled))):
            for arr in (ch.amplitudes(), ch.direction_matrix(), ch.delays()):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_components_round_trip_is_bit_identical(self):
        ch = sample_channel(6, FieldOfView.from_degrees(180), 100e-9,
                            np.random.default_rng(8))
        again = ChannelRealization(ch.components)
        for get in ("amplitudes", "direction_matrix", "delays"):
            a, b = getattr(ch, get)(), getattr(again, get)()
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_component_equality_by_value(self):
        assert _component(1.0 + 1j, 0.3, 5e-9) == _component(1.0 + 1j, 0.3, 5e-9)
        assert _component(1.0 + 1j, 0.3, 5e-9) != _component(1.0 + 1j, 0.4, 5e-9)
        assert _component(1.0 + 1j, 0.3, 5e-9) != _component(1.0, 0.3, 5e-9)
        assert _component(1.0 + 1j, 0.3, 5e-9) != _component(1.0 + 1j, 0.3, 6e-9)


def test_trial_loop_builds_no_per_path_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-path MultipathComponent was built")

    monkeypatch.setattr(mrcbeam.channel, "MultipathComponent", forbidden)
    with pytest.raises(AssertionError):
        sample_channel(2, FieldOfView.from_degrees(180), 1e-9,
                       np.random.default_rng(0)).components
    cfg = ExperimentConfig(n_elements=4, m_values=(3,), trials=3, freq_points=8, seed=2)
    run_effectiveness_sweep(cfg)
    run_snr_sweep(cfg)
    run_blockage_experiment(cfg)


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
        got = tone_sum(gains, ch, f)
        assert got.shape == shape[:-1] + (n,)
        assert (np.abs(got - self._direct(gains, ch, f)) <= self._bound(gains, ch, f)).all()

    def test_large_phase_within_bound(self):
        # delays up to 10 us over a 5 GHz band: phases up to 1.6e5 rad
        drawn, gains = self._channel(8), self._gains((8,))
        ch = ChannelRealization.from_arrays(drawn.amplitudes(), drawn.direction_matrix(),
                                            np.linspace(0.0, 10e-6, 8))
        f = np.linspace(-2.5e9, 2.5e9, 1024)
        assert (np.abs(tone_sum(gains, ch, f) - self._direct(gains, ch, f))
                <= self._bound(gains, ch, f)).all()

    @pytest.mark.parametrize("f", [np.linspace(0.0, 0.0, 16), np.linspace(-0.0, 0.0, 16),
                                   -np.zeros(16)])
    def test_zero_bandwidth_is_center_response(self, f):
        ch, gains = self._channel(5), self._gains((3, 5))
        center = tone_sum(gains, ch, 0.0)
        np.testing.assert_allclose(tone_sum(gains, ch, f), np.repeat(center[:, None], 16, 1),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("f", [np.array([-5e8, -1e8, 2e8, 5e8]), np.array([3e8])])
    def test_uneven_or_single_point_grid_is_direct(self, f):
        ch, gains = self._channel(5), self._gains((3, 5))
        assert tone_sum(gains, ch, f).tobytes() == self._direct(gains, ch, f).tobytes()


class TestResponse:
    def test_single_path_center_frequency(self):
        ch = ChannelRealization((_component(0.7 - 0.2j, 0.4, 55e-9),))
        resp = per_antenna_response(ch, make_ula(1, 0.5), 0.0)
        np.testing.assert_allclose(resp, [0.7 - 0.2j], atol=1e-15)

    def test_center_frequency_ignores_delays(self):
        arr = make_ula(4, 0.5)
        comps_a = tuple(_component(1j ** m, 0.1 * m, 10e-9 * m) for m in range(3))
        comps_b = tuple(_component(1j ** m, 0.1 * m, 90e-9 - 7e-9 * m) for m in range(3))
        ra = per_antenna_response(ChannelRealization(comps_a), arr, 0.0)
        rb = per_antenna_response(ChannelRealization(comps_b), arr, 0.0)
        np.testing.assert_allclose(ra, rb, atol=1e-15)

    def test_two_path_two_element_hand_expansion(self):
        # expand the 4 terms alpha_m * e^{j phase_nm} * e^{-j 2 pi f tau_m} by hand
        d = 0.5
        arr = make_ula(2, d)
        a1, th1, t1 = 0.8 + 0.3j, 0.5, 20e-9
        a2, th2, t2 = -0.1 + 1.1j, -0.9, 73e-9
        f = 10e6
        ch = ChannelRealization((_component(a1, th1, t1), _component(a2, th2, t2)))
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
        parts = sum(per_antenna_response(ChannelRealization((c,)), arr, f)
                    for c in ch.components)
        np.testing.assert_allclose(total, parts, atol=1e-12)

    @pytest.mark.parametrize("f", [np.zeros((2, 3)), np.inf, [0.0, np.nan]])
    def test_bad_frequency_rejected(self, f):
        ch = ChannelRealization((_component(1.0, 0.2, 10e-9),))
        with pytest.raises(ValueError):
            per_antenna_response(ch, make_ula(2, 0.5), f)

    def test_vector_frequency_shape(self):
        arr = make_ula(3, 0.5)
        ch = ChannelRealization((_component(1.0, 0.2, 10e-9),))
        freqs = np.linspace(-5e8, 5e8, 17)
        resp = per_antenna_response(ch, arr, freqs)
        assert resp.shape == (3, 17)
        np.testing.assert_allclose(resp[:, 8], per_antenna_response(ch, arr, freqs[8]),
                                   atol=1e-14)


class TestRemoveComponent:
    def test_two_paths_keeps_other(self):
        c0, c1 = _component(1.0, 0.1), _component(2.0, -0.3)
        ch = ChannelRealization((c0, c1))
        assert remove_component(ch, 1).components == (c0,)
        assert remove_component(ch, 0).components == (c1,)

    def test_response_additivity(self):
        arr = make_ula(4, 0.5)
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(5, fov, 100e-9, np.random.default_rng(4))
        for f in (0.0, 123e6, -3.3e8):
            for idx in range(ch.m_paths):
                removed = per_antenna_response(remove_component(ch, idx), arr, f)
                alone = per_antenna_response(
                    ChannelRealization((ch.components[idx],)), arr, f)
                full = per_antenna_response(ch, arr, f)
                np.testing.assert_allclose(removed, full - alone, atol=1e-12)

    def test_remove_then_readd_roundtrip(self):
        arr = make_ula(4, 0.5)
        fov = FieldOfView.from_degrees(180)
        ch = sample_channel(4, fov, 100e-9, np.random.default_rng(5))
        again = ChannelRealization(remove_component(ch, 2).components + (ch.components[2],))
        f = 77e6
        np.testing.assert_allclose(per_antenna_response(again, arr, f),
                                   per_antenna_response(ch, arr, f), atol=1e-12)

    def test_errors(self):
        ch1 = ChannelRealization((_component(1.0),))
        with pytest.raises(ValueError):
            remove_component(ch1, 0)
        ch2 = ChannelRealization((_component(1.0), _component(2.0)))
        with pytest.raises(ValueError):
            remove_component(ch2, 2)
        with pytest.raises(ValueError):
            remove_component(ch2, -1)
        for index in (1.5, True):
            with pytest.raises(TypeError):
                remove_component(ch2, index)
        assert remove_component(ch2, np.int64(1)).m_paths == 1

    def test_equals_from_arrays_build_without_revalidating(self, monkeypatch):
        ch = sample_channel(5, FieldOfView.from_degrees(180), 100e-9,
                            np.random.default_rng(6))
        kept = np.arange(5) != 3
        expected = ChannelRealization.from_arrays(ch.amplitudes()[kept],
                                                  ch.direction_matrix()[kept],
                                                  ch.delays()[kept])

        def forbidden(*args):
            raise AssertionError("a subset of a valid channel was validated again")

        monkeypatch.setattr(ChannelRealization, "_store", forbidden)
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
        ch = ChannelRealization((_component(0.5 + 0.25j, 0.3, 42e-9),))
        rec = channel_to_json(ch)
        entry = rec["components"][0]
        assert set(entry) == {"re", "im", "kx", "ky", "kz", "delay_ns"}
        assert entry["re"] == 0.5 and entry["im"] == 0.25
        assert entry["delay_ns"] == pytest.approx(42.0)
