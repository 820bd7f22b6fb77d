import warnings

import numpy as np
import pytest

from mrcbeam import AntennaArray, FieldOfView, make_ula, normalize, phase_matrix, steering_matrix
from mrcbeam.geometry import as_directions

FOV180 = FieldOfView.from_degrees(180)
BROADSIDE = np.array([0.0, 1.0, 0.0])


def _steering_column(array, k):
    """The (N,) plane-wave phasors of one (3,) direction."""
    return steering_matrix(array, k[None])[:, 0]


class TestAsDirections:
    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            as_directions(np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("vectors", [BROADSIDE, np.ones((2, 4)) / 2])
    def test_stack_rejects_wrong_shape(self, vectors):
        with pytest.raises(ValueError, match="shape"):
            as_directions(vectors, ndim=2)


class TestNormalize:
    def test_normalizes(self):
        np.testing.assert_allclose(normalize([3.0, 4.0, 0.0]), [0.6, 0.8, 0.0], atol=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("vec, unit", [
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),              # its norm underflows to 0
        ([5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]),              # subnormal
        ([1e308, 1e308, 0.0], [2 ** -0.5, 2 ** -0.5, 0.0]),  # its squared norm overflows
        ([-1e308, 3e307, -1e-300], [-0.957826285221151, 0.287347885566345, 0.0]),
    ])
    def test_normalizes_any_finite_nonzero_vector(self, vec, unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = normalize(vec)
        np.testing.assert_allclose(k, unit, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("vec", [[0.0, -0.0, 0.0], [np.nan, 1.0, 0.0],
                                     [np.inf, 0.0, 0.0], [1e308, -np.inf, 0.0]])
    def test_rejects_zero_or_non_finite_without_a_warning(self, vec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero or non-finite"):
                normalize(vec)

    def test_keeps_the_plain_quotient(self):
        # the power-of-two scale is exact, so ordinary vectors give vec / |vec| bit for bit
        rng = np.random.default_rng(3)
        for vec in rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
            assert normalize(vec).tobytes() == (vec / np.linalg.norm(vec)).tobytes()


class TestMakeUla:
    def test_single_element_at_origin(self):
        arr = make_ula(1, 0.5)
        assert arr.n_elements == 1
        np.testing.assert_array_equal(arr.positions, [[0.0, 0.0, 0.0]])

    def test_two_elements(self):
        arr = make_ula(2, 0.5)
        np.testing.assert_array_equal(arr.positions, [[0, 0, 0], [0.5, 0, 0]])

    def test_eight_elements_collinear(self):
        arr = make_ula(8, 0.5)
        assert arr.n_elements == 8
        np.testing.assert_array_equal(arr.positions[:, 1:], np.zeros((8, 2)))
        np.testing.assert_allclose(np.diff(arr.positions[:, 0]), 0.5)

    @pytest.mark.parametrize("n,spacing", [(0, 0.5), (-1, 0.5), (4, 0.0), (4, -0.1),
                                           (4, np.inf), (4, np.nan), (4, 1e308),
                                           (4, 1e307), (4097, 0.5), (10**15, 0.5)])
    def test_invalid_arguments(self, n, spacing):
        with pytest.raises(ValueError):
            make_ula(n, spacing)

    def test_non_finite_positions_rejected(self):
        with pytest.raises(ValueError):
            AntennaArray(np.array([[np.nan, 0.0, 0.0]]))


class TestElementPhase:
    """Per-element plane-wave phases, as computed by `phase_matrix`."""

    def test_origin_element_is_zero(self):
        arr = make_ula(4, 0.5)
        phases = phase_matrix(arr, np.array([FOV180.direction_at(0.3), BROADSIDE]))
        assert phases.shape == (4, 2)
        np.testing.assert_array_equal(phases[0], [0.0, 0.0])

    def test_half_wavelength_endfire(self):
        arr = make_ula(2, 0.5)
        assert phase_matrix(arr, np.array([[1.0, 0, 0]]))[1, 0] == pytest.approx(np.pi)

    def test_matches_dot_product_oracle_over_angle_grid(self):
        # oracle: 2*pi*n*d*sin(theta) for a ULA probed in the broadside plane
        d = 0.5
        arr = make_ula(6, d)
        thetas = np.linspace(-np.pi / 2, np.pi / 2, 41)
        vecs = FOV180.direction_at(thetas)
        expected = 2 * np.pi * d * np.outer(np.arange(6), np.sin(thetas))
        np.testing.assert_allclose(phase_matrix(arr, vecs), expected, rtol=0, atol=1e-12)

    def test_phase_differences_translation_invariant(self):
        rng = np.random.default_rng(7)
        arr = AntennaArray(rng.normal(size=(5, 3)))
        shifted = AntennaArray(arr.positions + rng.normal(size=3))
        vecs = np.array([normalize(rng.normal(size=3)) for _ in range(4)])
        np.testing.assert_allclose(np.diff(phase_matrix(arr, vecs), axis=0),
                                   np.diff(phase_matrix(shifted, vecs), axis=0), atol=1e-12)


class TestSteeringColumn:
    """`steering_matrix` of one direction."""

    def test_single_element(self):
        np.testing.assert_array_equal(_steering_column(make_ula(1, 0.5), BROADSIDE), [1.0 + 0j])

    def test_two_element_endfire(self):
        sv = _steering_column(make_ula(2, 0.5), np.array([1.0, 0, 0]))
        np.testing.assert_allclose(sv, [1.0, -1.0], atol=1e-12)

    def test_broadside_all_ones(self):
        sv = _steering_column(make_ula(8, 0.5), BROADSIDE)
        np.testing.assert_allclose(sv, np.ones(8), atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        arr = AntennaArray(rng.normal(size=(7, 3)))
        for _ in range(20):
            sv = _steering_column(arr, normalize(rng.normal(size=3)))
            np.testing.assert_allclose(np.abs(sv), 1.0, atol=1e-12)


class TestFieldOfView:
    def test_rejects_half_angle_above_90deg(self):
        with pytest.raises(ValueError):
            FieldOfView(np.pi / 2 + 0.01)

    def test_from_degrees(self):
        assert FieldOfView.from_degrees(120).half_angle == pytest.approx(np.pi / 3)

    def test_from_degrees_directions_unchanged_to_the_byte(self):
        # cos(theta) [0, 1, 0] + sin(theta) [1, 0, 0], with the signs of zero that sum gives
        fov = FieldOfView.from_degrees(120)
        theta = np.concatenate([np.random.default_rng(3).uniform(-np.pi / 3, np.pi / 3, 50),
                                [np.pi / 2, -np.pi / 2, -0.0, 0.0]])
        raw = (np.multiply.outer(np.cos(theta), [0.0, 1.0, 0.0])
               + np.multiply.outer(np.sin(theta), [1.0, 0.0, 0.0]))
        assert fov.direction_at(theta).tobytes() == raw.tobytes()
        for t, row in zip(theta, raw):
            assert fov.direction_at(t).shape == (3,)
            assert fov.direction_at(t).tobytes() == row.tobytes()

    def test_broadside_angle_parametrization(self):
        k = FOV180.direction_at(np.pi / 6)
        assert isinstance(k, np.ndarray) and k.shape == (3,)
        np.testing.assert_allclose(k, [0.5, np.sqrt(3) / 2, 0.0], atol=1e-15)

    def test_hash_matches_equality(self):
        fov = FieldOfView.from_degrees(120)
        assert fov == FieldOfView.from_degrees(120) and fov != FieldOfView.from_degrees(60)
        assert hash(fov) == hash(FieldOfView.from_degrees(120))
        assert {fov: 1}[FieldOfView.from_degrees(120)] == 1

    def test_direction_at_produces_unit_vectors(self):
        fov = FieldOfView.from_degrees(180)
        vecs = fov.direction_at(np.linspace(-np.pi / 2, np.pi / 2, 11))
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)


class TestSampleDirection:
    """Direction draws: `FieldOfView.direction_at` of `FieldOfView.sample_angles`."""

    def test_zero_half_angle_gives_boresight(self):
        fov = FieldOfView(0.0)
        vecs = fov.direction_at(fov.sample_angles(np.random.default_rng(0), 5))
        np.testing.assert_allclose(vecs, np.tile(BROADSIDE, (5, 1)), atol=1e-15)

    def test_support_bound_60deg(self):
        fov = FieldOfView(np.pi / 3)
        vecs = fov.direction_at(fov.sample_angles(np.random.default_rng(1), 2000))
        assert np.all(vecs @ BROADSIDE >= np.cos(np.pi / 3) - 1e-12)

    def test_mean_angle_consistent_with_uniform_law(self):
        fov = FieldOfView(np.pi / 2)
        rng = np.random.default_rng(11)
        angles = fov.sample_angles(rng, 100_000)
        stderr = (np.pi / 2) / np.sqrt(3) / np.sqrt(angles.size)
        assert abs(angles.mean()) <= 3 * stderr
        # uniform in angle, not in its sine: compare second moments
        assert np.var(angles) == pytest.approx((np.pi / 2) ** 2 / 3, rel=0.02)
