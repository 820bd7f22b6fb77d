import numpy as np
import pytest

from mrcbeam import (AntennaArray, Direction, FieldOfView, broadside, make_ula,
                     phase_matrix, sample_channel, steering_vector)


class TestDirection:
    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            Direction(np.array([1.0, 1.0, 0.0]))

    def test_from_vector_normalizes(self):
        d = Direction.from_vector([3.0, 4.0, 0.0])
        np.testing.assert_allclose(d.vector, [0.6, 0.8, 0.0], atol=1e-15)

    def test_from_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            Direction.from_vector([0.0, 0.0, 0.0])

    def test_broadside_angle_parametrization(self):
        d = Direction.from_broadside_angle(np.pi / 6)
        np.testing.assert_allclose(d.vector, [0.5, np.sqrt(3) / 2, 0.0], atol=1e-15)

    def test_equality_by_value(self):
        d = Direction.from_broadside_angle(0.1)
        assert d == Direction.from_broadside_angle(0.1)
        assert d != Direction.from_broadside_angle(0.2)
        assert d.__eq__(tuple(d.vector)) is NotImplemented
        assert d != tuple(d.vector) and d != "broadside"

    def test_hash_matches_equality(self):
        d = Direction.from_broadside_angle(0.1)
        assert hash(d) == hash(Direction.from_broadside_angle(0.1))
        zero, negative_zero = Direction([0.0, 1.0, 0.0]), Direction([-0.0, 1.0, 0.0])
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert len({d, Direction.from_broadside_angle(0.1), zero, negative_zero}) == 2
        fov = FieldOfView.from_degrees(120)
        assert hash(fov) == hash(FieldOfView.from_degrees(120))
        assert {fov: 1}[FieldOfView.from_degrees(120)] == 1


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
                                           (4, 1e307)])
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
        phases = phase_matrix(arr, np.array([Direction.from_broadside_angle(0.3).vector,
                                             broadside().vector]))
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
        vecs = np.array([Direction.from_broadside_angle(t).vector for t in thetas])
        expected = 2 * np.pi * d * np.outer(np.arange(6), np.sin(thetas))
        np.testing.assert_allclose(phase_matrix(arr, vecs), expected, rtol=0, atol=1e-12)

    def test_phase_differences_translation_invariant(self):
        rng = np.random.default_rng(7)
        arr = AntennaArray(rng.normal(size=(5, 3)))
        shifted = AntennaArray(arr.positions + rng.normal(size=3))
        vecs = np.array([Direction.from_vector(rng.normal(size=3)).vector for _ in range(4)])
        np.testing.assert_allclose(np.diff(phase_matrix(arr, vecs), axis=0),
                                   np.diff(phase_matrix(shifted, vecs), axis=0), atol=1e-12)


class TestSteeringVector:
    def test_single_element(self):
        np.testing.assert_array_equal(steering_vector(make_ula(1, 0.5), broadside()), [1.0 + 0j])

    def test_two_element_endfire(self):
        sv = steering_vector(make_ula(2, 0.5), Direction(np.array([1.0, 0, 0])))
        np.testing.assert_allclose(sv, [1.0, -1.0], atol=1e-12)

    def test_broadside_all_ones(self):
        sv = steering_vector(make_ula(8, 0.5), broadside())
        np.testing.assert_allclose(sv, np.ones(8), atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        arr = AntennaArray(rng.normal(size=(7, 3)))
        for _ in range(20):
            sv = steering_vector(arr, Direction.from_vector(rng.normal(size=3)))
            np.testing.assert_allclose(np.abs(sv), 1.0, atol=1e-12)


class TestFieldOfView:
    def test_rejects_half_angle_above_90deg(self):
        with pytest.raises(ValueError):
            FieldOfView(np.pi / 2 + 0.01)

    def test_rejects_non_orthogonal_plane_axis(self):
        with pytest.raises(ValueError):
            FieldOfView(1.0, boresight=broadside(), plane_axis=broadside())

    def test_from_degrees(self):
        assert FieldOfView.from_degrees(120).half_angle == pytest.approx(np.pi / 3)

    def test_from_degrees_axes_and_directions_unchanged(self):
        fov = FieldOfView.from_degrees(120)
        np.testing.assert_array_equal(fov.plane_axis.vector, [1.0, 0.0, 0.0])
        theta = np.random.default_rng(3).uniform(-np.pi / 3, np.pi / 3, 50)
        raw = (np.multiply.outer(np.cos(theta), [0.0, 1.0, 0.0])
               + np.multiply.outer(np.sin(theta), [1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(fov.direction_at(theta), raw)

    def test_nearly_orthogonal_axis_gives_valid_channels(self):
        # accepted at |boresight . axis| <= 1e-9, then orthonormalized
        fov = FieldOfView(np.pi / 2, plane_axis=Direction.from_vector([1.0, 5e-10, 0.0]))
        assert abs(fov.plane_axis.vector @ fov.boresight.vector) <= 1e-15
        rng = np.random.default_rng(12)
        for _ in range(1000):
            sample_channel(20, fov, 100e-9, rng)

    def test_direction_at_produces_unit_vectors(self):
        fov = FieldOfView.from_degrees(180)
        vecs = fov.direction_at(np.linspace(-np.pi / 2, np.pi / 2, 11))
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)


class TestSampleDirection:
    """Direction draws: `FieldOfView.direction_at` of `FieldOfView.sample_angles`."""

    def test_zero_half_angle_gives_boresight(self):
        fov = FieldOfView(0.0)
        vecs = fov.direction_at(fov.sample_angles(np.random.default_rng(0), 5))
        np.testing.assert_allclose(vecs, np.tile(broadside().vector, (5, 1)), atol=1e-15)

    def test_support_bound_60deg(self):
        fov = FieldOfView(np.pi / 3)
        vecs = fov.direction_at(fov.sample_angles(np.random.default_rng(1), 2000))
        assert np.all(vecs @ fov.boresight.vector >= np.cos(np.pi / 3) - 1e-12)

    def test_mean_angle_consistent_with_uniform_law(self):
        fov = FieldOfView(np.pi / 2)
        rng = np.random.default_rng(11)
        angles = fov.sample_angles(rng, 100_000)
        stderr = (np.pi / 2) / np.sqrt(3) / np.sqrt(angles.size)
        assert abs(angles.mean()) <= 3 * stderr
        # uniform in angle, not in its sine: compare second moments
        assert np.var(angles) == pytest.approx((np.pi / 2) ** 2 / 3, rel=0.02)
