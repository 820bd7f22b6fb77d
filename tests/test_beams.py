import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import oracle
import mrcbeam.beams
import mrcbeam.channel
from mrcbeam import (AntennaArray, ChannelRealization, FieldOfView,
                     array_factor, band_average_gain,
                     classify_effectiveness, combined_response,
                     component_array_factor, decompose, estimate_array_parameter,
                     exact_array_parameter, interference_term,
                     make_ula, mrc_weights, noise_power, normalize, pair_gain_matrix,
                     pattern_gain_db, per_antenna_response, phase_matrix, remove_component,
                     sample_channel, single_direction_weights, steering_matrix,
                     strongest_component)
from mrcbeam.beams import cross_beam_interference, design_beams
from mrcbeam.channel import even_grid

FOV180 = FieldOfView.from_degrees(180)
BROADSIDE = np.array([0.0, 1.0, 0.0])


def _channel(alphas, thetas=0.0, delays=0.0):
    """Channel of paths in the x-y plane at broadside angles ``thetas`` (radians)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    thetas = np.broadcast_to(np.asarray(thetas, dtype=float), alphas.shape)
    vectors = np.stack([np.sin(thetas), np.cos(thetas), np.zeros_like(thetas)], axis=-1)
    return ChannelRealization(alphas, vectors, np.broadcast_to(delays, alphas.shape))


def _direction(ch, m):
    """Arrival direction of path m."""
    return ch.direction_matrix()[m]


def _random_channel(m, seed):
    return sample_channel(m, FOV180, 100e-9, np.random.default_rng(seed))


# Four-path example channel; the fourth amplitude is left free so its
# effectiveness can be flipped. Probed on a 3x3 half-wavelength planar
# grid, the aggregate interference at path 4 is |X_4| ~ 0.2576, so the
# path is ineffective at amplitude 0.15 and effective at 0.6.
EXAMPLE_DIRECTIONS = [
    (-1.0, 0.0, 0.0),
    (1 / np.sqrt(3), -1 / np.sqrt(3), -1 / np.sqrt(3)),
    (-1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)),
    (-1 / np.sqrt(3), -np.sqrt(2.0 / 3.0), 0.0),
]
PLANAR_3X3 = AntennaArray(
    0.5 * np.array([[i, j, 0.0] for i in range(3) for j in range(3)]))


def example_channel(alpha4):
    vectors = [normalize(k) for k in EXAMPLE_DIRECTIONS]
    return ChannelRealization([0.5, 1.0, 1.5, alpha4], vectors, np.zeros(4))


class TestMrcWeights:
    def test_single_path_single_element_conjugates(self):
        ch = _channel(2.0 + 0.0j)
        w = mrc_weights(ch, make_ula(1, 0.5))
        np.testing.assert_allclose(w, [2.0 - 0.0j], atol=1e-15)

    def test_single_path_collinear_with_steering(self):
        arr = make_ula(6, 0.5)
        alpha = 0.4 - 1.2j
        ch = _channel(alpha, 0.7, 30e-9)
        w = mrc_weights(ch, arr)
        w_point = single_direction_weights(arr, _direction(ch, 0))
        np.testing.assert_allclose(w, np.conj(alpha) * w_point, atol=1e-14)

    def test_termwise_reconstruction(self):
        arr = make_ula(5, 0.5)
        ch = _random_channel(7, seed=10)
        expected = np.zeros(5, dtype=complex)
        for m, a in enumerate(ch.amplitudes()):
            column = steering_matrix(arr, _direction(ch, m)[None])[:, 0]
            expected += np.conj(a) * np.conj(column)
        expected /= arr.n_elements
        np.testing.assert_allclose(mrc_weights(ch, arr), expected, atol=1e-12)


class TestSingleDirectionWeights:
    def test_single_element(self):
        w = single_direction_weights(make_ula(1, 0.5), BROADSIDE)
        np.testing.assert_allclose(w, [1.0 + 0j], atol=1e-15)

    def test_squared_norm_is_inverse_n(self):
        for n in (1, 2, 8, 32):
            w = single_direction_weights(make_ula(n, 0.5),
                                         FOV180.direction_at(0.3))
            assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0 / n, rel=1e-12)

    def test_unity_gain_at_own_direction(self):
        arr = make_ula(8, 0.5)
        k = FOV180.direction_at(-0.6)
        w = single_direction_weights(arr, k)
        assert array_factor(w, arr, k) == pytest.approx(1.0, abs=1e-12)


class TestStrongestComponent:
    def test_picks_largest_amplitude(self):
        ch = _channel([0.5, 1.5, 1.0], 0.1 * np.arange(3))
        assert strongest_component(ch) == 1

    def test_single_component(self):
        assert strongest_component(_channel(0.1)) == 0

    def test_tie_goes_to_lowest_index(self):
        ch = _channel([1.0, 1j], [0.0, 0.5])
        assert strongest_component(ch) == 0


class TestArrayFactor:
    def test_mrc_single_path_gain_is_conjugate_amplitude(self):
        arr = make_ula(8, 0.5)
        alpha = 1.1 - 0.4j
        ch = _channel(alpha, 0.25)
        w = mrc_weights(ch, arr)
        got = array_factor(w, arr, _direction(ch, 0))
        assert got == pytest.approx(np.conj(alpha), abs=1e-12)

    def test_gain_splits_into_amplitude_plus_interference(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(6, seed=11)
        w = mrc_weights(ch, arr)
        for h, a in enumerate(ch.amplitudes()):
            total = array_factor(w, arr, _direction(ch, h))
            expected = np.conj(a) + interference_term(ch, arr, h)
            assert total == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        w = single_direction_weights(make_ula(4, 0.5), BROADSIDE)
        with pytest.raises(ValueError):
            array_factor(w, make_ula(5, 0.5), BROADSIDE)


class TestComponentArrayFactor:
    def test_unity_at_own_direction(self):
        arr = make_ula(8, 0.5)
        k = FOV180.direction_at(0.9)
        assert component_array_factor(arr, k, k) == pytest.approx(1.0, abs=1e-12)

    def test_single_element_isotropic(self):
        arr = make_ula(1, 0.5)
        rng = np.random.default_rng(12)
        for _ in range(10):
            r = normalize(rng.normal(size=3))
            assert component_array_factor(arr, BROADSIDE, r) == pytest.approx(1.0, abs=1e-12)

    def test_two_element_null_at_endfire(self):
        # (1 + e^{j pi}) / 2 = 0
        arr = make_ula(2, 0.5)
        got = component_array_factor(arr, BROADSIDE, np.array([1.0, 0, 0]))
        assert abs(got) == pytest.approx(0.0, abs=1e-12)

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(13)
        arr = AntennaArray(rng.normal(size=(6, 3)))
        for _ in range(50):
            km = normalize(rng.normal(size=3))
            r = normalize(rng.normal(size=3))
            assert abs(component_array_factor(arr, km, r)) <= 1 + 1e-12


class TestDecomposition:
    def test_single_path_single_term(self):
        arr = make_ula(4, 0.5)
        ch = _channel(0.3 + 0.6j, 0.2)
        gains = decompose(ch, arr, BROADSIDE)
        assert gains.shape == (1,) and gains.dtype == complex
        assert gains[0] == pytest.approx(
            component_array_factor(arr, _direction(ch, 0), BROADSIDE), abs=1e-12)

    def test_gains_are_the_sub_beam_gains(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(6, seed=13)
        r = FOV180.direction_at(0.3)
        gains = decompose(ch, arr, r)
        assert gains.shape == (6,) and gains.dtype == complex
        for m, gain in enumerate(gains):
            assert gain == pytest.approx(component_array_factor(arr, _direction(ch, m), r),
                                         abs=1e-12)

    def test_sum_matches_full_array_factor(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(6, seed=14)
        w = mrc_weights(ch, arr)
        rng = np.random.default_rng(15)
        conj_a = np.conj(ch.amplitudes())
        for _ in range(100):
            r = FOV180.direction_at(rng.uniform(-np.pi / 2, np.pi / 2))
            assert conj_a @ decompose(ch, arr, r) == pytest.approx(array_factor(w, arr, r),
                                                                   abs=1e-12)

    def test_example_channel_terms_peak_at_own_direction(self):
        ch = example_channel(0.6)
        mags = np.abs([decompose(ch, PLANAR_3X3, _direction(ch, h)) for h in range(4)]).T
        assert (np.argmax(mags, axis=1) == np.arange(4)).all()


class TestInterferenceTerm:
    def test_single_path_is_zero(self):
        ch = _channel(1.0)
        assert interference_term(ch, make_ula(8, 0.5), 0) == 0

    def test_matches_explicit_pairwise_sum(self):
        # oracle: loop the definition sum_{m != h} conj(alpha_m) F_m(k_h)
        arr = PLANAR_3X3
        ch = example_channel(0.15)
        for h in range(4):
            expected = 0j
            for m in range(4):
                if m != h:
                    expected += np.conj(ch.amplitudes()[m]) * component_array_factor(
                        arr, _direction(ch, m), _direction(ch, h))
            assert interference_term(ch, arr, h) == pytest.approx(expected, abs=1e-12)

    def test_example_channel_interference_level(self):
        # frozen for this array geometry; independent of the free amplitude
        got = abs(interference_term(example_channel(0.15), PLANAR_3X3, 3))
        assert got == pytest.approx(0.2575511, abs=1e-6)
        assert got == pytest.approx(abs(interference_term(example_channel(0.6),
                                                          PLANAR_3X3, 3)), abs=1e-12)

    def test_identity_against_array_factor(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(9, seed=16)
        w = mrc_weights(ch, arr)
        for h, a in enumerate(ch.amplitudes()):
            expected = array_factor(w, arr, _direction(ch, h)) - np.conj(a)
            assert interference_term(ch, arr, h) == pytest.approx(expected, abs=1e-12)

    def test_index_out_of_range(self):
        ch = _random_channel(3, seed=17)
        with pytest.raises(ValueError):
            interference_term(ch, make_ula(4, 0.5), 3)


class TestClassifyEffectiveness:
    def test_single_path_always_effective(self):
        mask = classify_effectiveness(_channel(0.01), make_ula(8, 0.5))
        assert mask.dtype == bool and mask.tolist() == [True]

    def test_example_channel_flip(self):
        assert not classify_effectiveness(example_channel(0.15), PLANAR_3X3)[3]
        assert classify_effectiveness(example_channel(0.6), PLANAR_3X3)[3]

    def test_mask_consistent_with_interference_term(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(8, seed=18)
        mask = classify_effectiveness(ch, arr)
        assert mask.shape == (8,) and mask.dtype == bool
        for h, a in enumerate(ch.amplitudes()):
            assert mask[h] == (abs(a) >= abs(interference_term(ch, arr, h)))


class TestCrossBeamInterference:
    """The batched interference over stacked channels behind the per-path API."""

    @staticmethod
    def _stack(channels):
        return (np.array([ch.amplitudes() for ch in channels]),
                np.array([ch.direction_matrix() for ch in channels]))

    def test_stack_gives_the_flags_of_single_calls(self):
        arr = make_ula(8, 0.5)
        channels = [_random_channel(7, seed) for seed in range(40, 52)]
        amplitudes, vectors = self._stack(channels)
        interference = cross_beam_interference(amplitudes, steering_matrix(arr, vectors))
        flags = np.abs(amplitudes) >= np.abs(interference)
        for ch, row in zip(channels, flags):
            assert row.tolist() == classify_effectiveness(ch, arr).tolist()
        assert 0 < flags.sum() < flags.size       # both outcomes occur

    def test_matches_pair_gain_oracle(self):
        arr = PLANAR_3X3
        for ch in (example_channel(0.15), _random_channel(9, seed=53)):
            conj_a = np.conj(ch.amplitudes())
            oracle = conj_a @ pair_gain_matrix(arr, ch.direction_matrix()) - conj_a
            for h in range(ch.m_paths):
                assert abs(interference_term(ch, arr, h) - oracle[h]) <= 1e-12

    def test_single_path_channels_are_effective(self):
        arr = make_ula(8, 0.5)
        amplitudes, vectors = self._stack([_random_channel(1, seed) for seed in range(54, 64)])
        interference = cross_beam_interference(amplitudes, steering_matrix(arr, vectors))
        assert (np.abs(amplitudes) >= np.abs(interference)).all()

    def test_phase_matrix_on_a_stack(self):
        arr = PLANAR_3X3
        _, vectors = self._stack([_random_channel(5, seed) for seed in range(64, 68)])
        stacked = phase_matrix(arr, vectors)
        assert stacked.shape == (4, 9, 5)
        for vecs, phases in zip(vectors, stacked):
            np.testing.assert_allclose(phases, phase_matrix(arr, vecs), rtol=0, atol=1e-12)


class TestDesignBeams:
    """Both beams of stacked channels against one `mrc_weights` and one
    `single_direction_weights` call per channel."""

    @pytest.mark.parametrize("n, m", [(8, 7), (5, 1)])
    def test_stack_gives_the_weights_of_single_calls(self, n, m):
        arr = make_ula(n, 0.5)
        channels = [_random_channel(m, seed) for seed in range(70, 82)]
        amplitudes, vectors = TestCrossBeamInterference._stack(channels)
        coeffs, noise = design_beams(amplitudes, steering_matrix(arr, vectors))
        assert coeffs.shape == (len(channels), 2, n) and noise.shape == (len(channels), 2)
        for ch, (c_mrc, c_single), p in zip(channels, coeffs, noise):
            strongest = ch.direction_matrix()[strongest_component(ch)]
            for c, w, power in ((c_mrc, mrc_weights(ch, arr), p[0]),
                                (c_single, single_direction_weights(arr, strongest), p[1])):
                np.testing.assert_allclose(c, w, rtol=0, atol=1e-15)
                assert power == pytest.approx(noise_power(w, 1.0), rel=1e-15)

    def test_tie_goes_to_the_lowest_index(self):
        arr = make_ula(6, 0.5)
        drawn = _random_channel(4, seed=82)
        amplitudes = np.array([[0.5, 1j, -1.0, 0.3]])            # |a_1| == |a_2|
        coeffs, _ = design_beams(amplitudes, steering_matrix(arr, drawn.direction_matrix()[None]))
        tied = ChannelRealization(amplitudes[0], drawn.direction_matrix(), drawn.delays())
        assert strongest_component(tied) == 1
        steer = single_direction_weights(arr, drawn.direction_matrix()[1])
        np.testing.assert_allclose(coeffs[0, 1], steer, rtol=0, atol=1e-15)


class TestCombinedResponse:
    def test_mrc_center_frequency_is_total_power(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(5, seed=19)
        w = mrc_weights(ch, arr)
        got = combined_response(w, ch, arr, 0.0)
        h0 = per_antenna_response(ch, arr, 0.0)
        assert got.imag == pytest.approx(0.0, abs=1e-12)
        assert got.real == pytest.approx(np.sum(np.abs(h0) ** 2) / 8, rel=1e-12)

    def test_matches_weighted_per_antenna_sum(self):
        arr = make_ula(6, 0.5)
        ch = _random_channel(4, seed=20)
        w = mrc_weights(ch, arr)
        for f in (0.0, 88e6, -4.4e8):
            expected = w @ per_antenna_response(ch, arr, f)
            assert combined_response(w, ch, arr, f) == pytest.approx(expected, abs=1e-12)

    def test_blockage_subtracts_one_component(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(6, seed=21)
        w = mrc_weights(ch, arr)
        f = 2.2e8
        for idx in range(ch.m_paths):
            alone = ChannelRealization(ch.amplitudes()[[idx]], ch.direction_matrix()[[idx]],
                                       ch.delays()[[idx]])
            expected = (combined_response(w, ch, arr, f)
                        - combined_response(w, alone, arr, f))
            got = combined_response(w, remove_component(ch, idx), arr, f)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_single_beam_single_path_constant_modulus(self):
        arr = make_ula(8, 0.5)
        alpha, tau = 0.9 + 0.5j, 40e-9
        ch = _channel(alpha, 0.33, tau)
        w = single_direction_weights(arr, _direction(ch, 0))
        for f in np.linspace(-5e8, 5e8, 7):
            got = combined_response(w, ch, arr, f)
            assert got == pytest.approx(alpha * np.exp(-2j * np.pi * f * tau), abs=1e-12)
            assert abs(got) == pytest.approx(abs(alpha), rel=1e-12)


def _assert_within_the_power_bound(n, spacing, vecs):
    """Entry n of ``make_ula(n, spacing)``'s phasors, built as z^n, is within
    n (2.6 eps + 1.5 eps_L |phi|) of e^{j n phi}, phi = 2 pi d k_x, in long double.

    Derived to first order in eps, with u = eps / 2: a complex product of float64s is
    within sqrt(5) u relative; z^{2f} squares z^f, so z^f is within (f - 1) sqrt(5) u
    of z^f exactly multiplied, and row n, a product of the powers of two of n's bits,
    within n sqrt(5) u. z itself is cos and sin of phi rounded to float64 (one unit in
    the last place each), turned by the rest of the long-double phi in one more rounding
    per component: within sqrt(2) eps of e^{j phi'}, phi' the long-double phi, itself
    within 3 eps_L / 2 |phi| of phi. z^n multiplies z's error by n."""
    eps, eps_l = np.finfo(float).eps, np.finfo(np.longdouble).eps
    phi = np.abs(2 * np.pi * spacing * vecs[..., None, :, 0])
    bound = np.arange(n)[:, None] * (2.6 * eps + 1.5 * eps_l * phi)
    err = np.abs(steering_matrix(make_ula(n, spacing), vecs)
                 - oracle.line_phasors(n, spacing, vecs))
    assert np.all(err <= bound)
    assert np.all(err[..., 0, :] == 0)


class TestSteeringMatrix:
    def test_every_phasor_is_built_from_beams_phase_matrix(self, monkeypatch):
        # the per-antenna response and both array-parameter forms steer through
        # steering_matrix, whose phases come from the name beams.phase_matrix
        calls = []

        def counted(*args):
            calls.append(1)
            return phase_matrix(*args)

        monkeypatch.setattr(mrcbeam.beams, "phase_matrix", counted)
        grid = AntennaArray([[0.5 * i, 0.0, 0.5 * k] for i in range(2) for k in range(2)])
        for run in (lambda: per_antenna_response(_random_channel(3, seed=4), grid, 1e8),
                    lambda: estimate_array_parameter(grid, FOV180, 10, np.random.default_rng(1)),
                    lambda: exact_array_parameter(grid, FOV180)):
            calls.clear()
            run()
            assert calls

    def test_matches_the_complex_exponential(self):
        # a line array's phasors, built by powers, against the exponential in long double
        # within their rounding bound; any other array's, cos + j sin of phase_matrix,
        # against np.exp of the same phases
        vecs = FOV180.direction_at(np.linspace(-1.5, 1.5, 101))
        _assert_within_the_power_bound(64, 0.5, vecs)
        np.testing.assert_allclose(steering_matrix(PLANAR_3X3, vecs),
                                   np.exp(1j * phase_matrix(PLANAR_3X3, vecs)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,spacing", [(1024, 0.5), (4096, 0.5), (1024, 2.0)])
    def test_large_line_arrays_within_the_power_bound(self, n, spacing):
        vecs = FOV180.direction_at(np.linspace(-1.5, 1.5, 64))
        _assert_within_the_power_bound(n, spacing, vecs)

    def test_single_element_is_all_ones(self):
        vecs = FOV180.direction_at(np.linspace(-1.5, 1.5, 101))
        assert np.array_equal(steering_matrix(make_ula(1, 0.5), vecs), np.ones((1, 101)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 16, 17])
    def test_every_row_of_a_stack_is_its_power(self, n):
        # stacked (T, M, 3) directions at sizes around powers of two
        vecs = FOV180.direction_at(np.random.default_rng(n).uniform(-1.5, 1.5, (4, 3)))
        _assert_within_the_power_bound(n, 1.0, vecs)

    def test_per_antenna_response_lives_in_beams(self):
        assert mrcbeam.per_antenna_response is mrcbeam.beams.per_antenna_response
        assert not hasattr(mrcbeam.channel, "per_antenna_response")


class TestCombinedResponseGrid:
    _F, _FREQS = even_grid(-5e8, 5e8, 33), np.linspace(-5e8, 5e8, 33)

    @staticmethod
    def _direct(w, ch, arr, f):
        """The response with the delay tones built directly from the grid."""
        tone = (w @ np.exp(1j * phase_matrix(arr, ch.direction_matrix()))
                * ch.amplitudes())
        return tone @ np.exp(-2j * np.pi * np.outer(ch.delays(), f))

    def test_both_beams_match_direct_tones(self):
        # the factored grid sum rounds differently from the direct tones; its
        # error stays within 8 eps (1 + largest phase) sum |gain|
        arr = make_ula(8, 0.5)
        ch = _random_channel(6, seed=22)
        beams = (mrc_weights(ch, arr),
                 single_direction_weights(arr, _direction(ch, strongest_component(ch))))
        max_phase = 2 * np.pi * ch.delays().max() * np.abs(self._FREQS).max()
        for w in beams:
            gains = (w @ np.exp(1j * phase_matrix(arr, ch.direction_matrix()))
                     * ch.amplitudes())
            bound = 8 * np.finfo(float).eps * (1 + max_phase) * np.abs(gains).sum()
            np.testing.assert_allclose(combined_response(w, ch, arr, self._F),
                                       self._direct(w, ch, arr, self._FREQS), rtol=0,
                                       atol=bound)

    def test_scalar_frequency_unchanged(self):
        arr = make_ula(4, 0.5)
        ch = _random_channel(5, seed=23)
        w = mrc_weights(ch, arr)
        for f in (0.0, -0.0, 1.3e8):
            tone = w @ steering_matrix(arr, ch.direction_matrix()) * ch.amplitudes()
            assert combined_response(w, ch, arr, f) == complex(
                tone @ np.exp(-2j * np.pi * f * ch.delays()))

    @pytest.mark.parametrize("f", [np.zeros((2, 3)), np.inf, [0.0, np.nan]])
    def test_bad_frequency_rejected(self, f):
        arr = make_ula(4, 0.5)
        ch = _random_channel(3, seed=25)
        with pytest.raises(ValueError):
            combined_response(mrc_weights(ch, arr), ch, arr, f)

    def test_copied_channel_gives_same_response(self):
        arr = make_ula(4, 0.5)
        ch = _random_channel(5, seed=24)
        w = mrc_weights(ch, arr)
        expected = combined_response(w, ch, arr, self._F).tobytes()
        for other in (copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))):
            assert combined_response(w, other, arr, self._F).tobytes() == expected


class TestNoisePower:
    def test_single_direction_beam(self):
        for n in (1, 4, 16):
            w = single_direction_weights(make_ula(n, 0.5), BROADSIDE)
            assert noise_power(w, 2.0) == pytest.approx(4.0 / n, rel=1e-12)

    def test_zero_weights(self):
        w = np.zeros(4, dtype=complex)
        assert noise_power(w, 1.0) == 0.0
        assert noise_power(w, 1e-200) == 0.0      # 0 is their power at any sigma0

    def test_negative_sigma_rejected(self):
        w = single_direction_weights(make_ula(2, 0.5), BROADSIDE)
        with pytest.raises(ValueError):
            noise_power(w, -1.0)

    @pytest.mark.parametrize("sigma0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma0):
        w = single_direction_weights(make_ula(2, 0.5), BROADSIDE)
        with pytest.raises(ValueError, match="sigma0"):
            noise_power(w, sigma0)

    @pytest.mark.parametrize("sigma0", [1e200, 1e-200, 5e-324, 0.0, np.float64(1e200)])
    def test_sigma_without_finite_nonzero_power_rejected(self, sigma0):
        w = single_direction_weights(make_ula(2, 0.5), BROADSIDE)
        with pytest.raises(ValueError, match="sigma0"):
            noise_power(w, sigma0)

    @pytest.mark.parametrize("sigma0", [0.7, 1.0, 3.3])
    def test_value_is_sigma_squared_times_weight_power(self, sigma0):
        arr = make_ula(5, 0.5)
        ch = _channel([0.3 + 1.1j, -0.8j], [0.2, -0.9])
        w = mrc_weights(ch, arr)
        expected = float(sigma0 ** 2 * np.vdot(w, w).real)
        assert noise_power(w, sigma0) == expected

    def test_mrc_expectation_scales_with_path_count(self):
        m, n, trials = 4, 8, 10_000
        rng = np.random.default_rng(22)
        arr = make_ula(n, 0.5)
        values = np.empty(trials)
        for t in range(trials):
            ch = sample_channel(m, FOV180, 100e-9, rng)
            values[t] = noise_power(mrc_weights(ch, arr), 1.0)
        stderr = values.std(ddof=1) / np.sqrt(trials)
        assert abs(values.mean() - m / n) <= 3 * stderr


class TestOptimalityAndScale:
    def test_mrc_maximizes_center_frequency_snr(self):
        rng = np.random.default_rng(23)
        for n, m in ((2, 3), (8, 6), (16, 2)):
            arr = make_ula(n, 0.5)
            ch = sample_channel(m, FOV180, 100e-9, rng)
            h0 = per_antenna_response(ch, arr, 0.0)
            best = np.sum(np.abs(h0) ** 2)
            w = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
            ratios = np.abs(w @ h0) ** 2 / np.sum(np.abs(w) ** 2, axis=1)
            assert np.all(ratios <= best * (1 + 1e-9))
            w_mrc = mrc_weights(ch, arr)
            achieved = (abs(combined_response(w_mrc, ch, arr, 0.0)) ** 2
                        / noise_power(w_mrc, 1.0))
            assert achieved == pytest.approx(best, rel=1e-9)

    def test_weight_scaling_leaves_snr_unchanged(self):
        arr = make_ula(8, 0.5)
        ch = _random_channel(5, seed=24)
        w = mrc_weights(ch, arr)
        scaled = w * (3.3 - 1.7j)
        for f in (0.0, 1.5e8):
            snr_a = abs(combined_response(w, ch, arr, f)) ** 2 / noise_power(w, 1.0)
            snr_b = abs(combined_response(scaled, ch, arr, f)) ** 2 / noise_power(scaled, 1.0)
            assert snr_b == pytest.approx(snr_a, rel=1e-12)

    def test_single_path_mrc_equals_pointed_beam(self):
        arr = make_ula(8, 0.5)
        ch = _channel(0.7 - 1.1j, 0.45, 60e-9)
        w_mrc = mrc_weights(ch, arr)
        w_point = single_direction_weights(arr, _direction(ch, 0))
        for f in np.linspace(-5e8, 5e8, 9):
            snr_a = abs(combined_response(w_mrc, ch, arr, f)) ** 2 / noise_power(w_mrc, 1.0)
            snr_b = abs(combined_response(w_point, ch, arr, f)) ** 2 / noise_power(w_point, 1.0)
            assert snr_a == pytest.approx(snr_b, rel=1e-12)


class TestPatternExport:
    def test_pointed_beam_peaks_at_steering_angle(self):
        arr = make_ula(16, 0.5)
        w = single_direction_weights(arr, FOV180.direction_at(np.radians(20)))
        thetas = np.arange(-90.0, 90.5, 0.5)
        gains = pattern_gain_db(w, arr, thetas)
        assert np.all(np.isfinite(gains))
        assert abs(thetas[np.argmax(gains)] - 20.0) <= 1.0

    def test_nulls_are_clamped_finite(self):
        arr = make_ula(2, 0.5)
        w = single_direction_weights(arr, BROADSIDE)
        gains = pattern_gain_db(w, arr, np.array([90.0]))  # exact pattern null
        assert np.isfinite(gains).all()

    def test_example_channel_lobe_appears_when_effective(self):
        # the beam sprouts a lobe toward path 4 once its amplitude clears
        # the interference level
        k4 = EXAMPLE_DIRECTIONS[3]
        theta4 = np.degrees(np.arctan2(k4[0], k4[1]))  # broadside-plane azimuth
        thetas = np.array([theta4])
        w_weak = mrc_weights(example_channel(0.15), PLANAR_3X3)
        w_strong = mrc_weights(example_channel(0.6), PLANAR_3X3)
        weak_db = pattern_gain_db(w_weak, PLANAR_3X3, thetas)[0]
        strong_db = pattern_gain_db(w_strong, PLANAR_3X3, thetas)[0]
        assert strong_db > weak_db + 3.0

    # At N = 4096 the (N, K) phases and phasors alone were 1.77 GB; in slices of 2^15 // N = 8
    # angles a call holds one slice's 0.75 MiB and the O(K) angle arrays, under 2.5 MB. At
    # N = 8 the radians and the result are 2 float arrays of length K; building the (K, 3)
    # directions and every gain whole took 8.06 of them.
    @pytest.mark.parametrize("n,k,limit", [(4096, 18_001, 4 << 20),
                                           (8, (1 << 18) + 1, 4 * 8 << 18)],
                             ids=["n4096", "n8"])
    def test_many_angles_at_many_elements_in_bounded_memory(self, n, k, limit):
        arr, thetas = make_ula(n, 0.5), np.linspace(-90.0, 90.0, k)
        w = np.full(arr.n_elements, 1.0 / arr.n_elements, dtype=complex)
        pattern_gain_db(w, arr, thetas[:2])
        tracemalloc.start()
        try:
            gains = pattern_gain_db(w, arr, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
        # uniform weights give 0 dB at broadside, the grid's middle point
        assert gains.shape == thetas.shape and gains[k // 2] == pytest.approx(0.0, abs=1e-12)

    def test_angle_slices_agree_with_one_matrix(self, monkeypatch):
        # 361 angles in slices of 8 leave a one-angle last slice, whose product rounds
        # apart from the same column of a whole matrix's
        arr, thetas = make_ula(4096, 0.5), np.arange(-90.0, 90.5, 0.5)
        w = mrc_weights(_random_channel(6, seed=9), arr)
        sliced = pattern_gain_db(w, arr, thetas)
        monkeypatch.setattr(mrcbeam.channel, "_KERNEL_SLICE", 1 << 40)
        np.testing.assert_allclose(sliced, pattern_gain_db(w, arr, thetas), rtol=0, atol=1e-12)

    def test_angle_array_shape_is_kept(self):
        arr, w = make_ula(4, 0.5), np.ones(4)
        assert pattern_gain_db(w, arr, []).shape == (0,)
        assert pattern_gain_db(w, arr, 5.0).shape == (1,)
        grid = pattern_gain_db(w, arr, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(grid.ravel(), pattern_gain_db(w, arr, [1.0, 2.0, 3.0, 4.0]))

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angles_rejected_without_a_warning(self, angle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                FOV180.direction_at([0.1, angle])
            with pytest.raises(ValueError, match="finite"):
                pattern_gain_db(np.ones(4), make_ula(4, 0.5), [10.0, angle])



# every function that takes beam weights, called on a 4-element array and a 3-path channel
_ARR4, _CH3 = make_ula(4, 0.5), _random_channel(3, seed=26)
WEIGHT_CALLS = {
    "array_factor": lambda w: array_factor(w, _ARR4, BROADSIDE),
    "combined_response": lambda w: combined_response(w, _CH3, _ARR4, 1.3e8),
    "band_average_gain": lambda w: band_average_gain(w, _CH3, _ARR4, 1e9, 16),
    "noise_power": lambda w: noise_power(w, 1.0),
    "pattern_gain_db": lambda w: pattern_gain_db(w, _ARR4, [-30.0, 10.0]),
}


class TestWeightVector:
    @pytest.mark.parametrize("name", WEIGHT_CALLS)
    def test_bad_vectors_rejected(self, name):
        bad = [np.ones((2, 4), dtype=complex), np.zeros(0, dtype=complex)]
        if name != "noise_power":                # the only one that does not know N
            bad.append(np.ones(3, dtype=complex))
        for w in bad:
            with pytest.raises(ValueError, match="weight"):
                WEIGHT_CALLS[name](w)

    @pytest.mark.parametrize("name", WEIGHT_CALLS)
    def test_real_list_equals_its_complex_copy(self, name):
        real = [0.5, -1.0, 0.25, 2.0]
        np.testing.assert_array_equal(WEIGHT_CALLS[name](real),
                                      WEIGHT_CALLS[name](np.array(real, dtype=complex)))


# every function that takes a direction, called with ``k`` where a direction goes
DIRECTION_CALLS = {
    "ChannelRealization": lambda k: ChannelRealization([1.0], [k], [0.0]).direction_matrix(),
    "array_factor": lambda k: array_factor(np.ones(4), _ARR4, k),
    "single_direction_weights": lambda k: single_direction_weights(_ARR4, k),
    "component_array_factor k_m": lambda k: component_array_factor(_ARR4, k, BROADSIDE),
    "component_array_factor r": lambda k: component_array_factor(_ARR4, BROADSIDE, k),
    "decompose": lambda k: decompose(_CH3, _ARR4, k),
}
_BAD_DIRECTIONS = {
    "two-components": np.ones(2) / np.sqrt(2.0),
    "stacked": BROADSIDE[None],
    "nan": [np.nan, 1.0, 0.0],
    "inf": [np.inf, 0.0, 0.0],
    "not-unit": [1.0, 1.0, 0.0],
    "huge": [1e308, 1e308, 0.0],          # its norm overflows: refused before it is taken
}


class TestDirectionCheck:
    @pytest.mark.parametrize("name", DIRECTION_CALLS)
    @pytest.mark.parametrize("bad", _BAD_DIRECTIONS)
    def test_bad_directions_rejected_without_a_warning(self, name, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                DIRECTION_CALLS[name](_BAD_DIRECTIONS[bad])

    @pytest.mark.parametrize("name", DIRECTION_CALLS)
    def test_list_equals_its_array(self, name):
        k = [0.6, 0.8, 0.0]
        np.testing.assert_array_equal(DIRECTION_CALLS[name](k), DIRECTION_CALLS[name](np.array(k)))
