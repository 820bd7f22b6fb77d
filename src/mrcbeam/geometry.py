"""Antenna array geometry: element positions, arrival directions, plane-wave phases.

Positions are expressed in units of the carrier wavelength, so a single
geometry serves any carrier frequency and no wavelength parameter appears
in the phase computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-12
MAX_ELEMENTS = 4096    # largest `make_ula` array: refused before anything is allocated


@dataclass(frozen=True)
class Direction:
    """Unit propagation vector of a plane wave (or a probe direction)."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"direction must be a 3-vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("direction components must be finite")
        if abs(np.linalg.norm(vec) - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction must have unit norm, got {np.linalg.norm(vec)}")
        object.__setattr__(self, "vector", vec)

    def __eq__(self, other):
        if not isinstance(other, Direction):
            return NotImplemented
        return np.array_equal(self.vector, other.vector)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, so vectors equal under __eq__ hash equal
        return hash((self.vector + 0.0).tobytes())

    @classmethod
    def from_vector(cls, vec) -> "Direction":
        """Normalize any finite nonzero 3-vector into a Direction."""
        vec = np.asarray(vec, dtype=float)
        peak = np.abs(vec).max(initial=0.0)
        if not 0.0 < peak < np.inf:                 # also rejects NaN
            raise ValueError("cannot normalize a zero or non-finite vector")
        # a power-of-two scale is exact and keeps the norm from over- or underflowing
        vec = np.ldexp(vec, -np.frexp(peak)[1])
        return cls(vec / np.linalg.norm(vec))

    @classmethod
    def from_broadside_angle(cls, theta: float) -> "Direction":
        """Direction in the x-y plane at angle ``theta`` (radians) from +y.

        Positive angles lean toward +x, the axis of `make_ula` arrays.
        """
        return cls(np.array([np.sin(theta), np.cos(theta), 0.0]))


def broadside() -> Direction:
    """+y, the boresight of a `make_ula` array."""
    return Direction(np.array([0.0, 1.0, 0.0]))


def _array_axis() -> Direction:
    return Direction(np.array([1.0, 0.0, 0.0]))


@dataclass(frozen=True)
class AntennaArray:
    """A set of antenna element positions, in wavelength units."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must be an (N, 3) array with N >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("element positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class FieldOfView:
    """Angular sector arrival directions are drawn from.

    Directions lie in the plane spanned by ``boresight`` and ``plane_axis``,
    at an angle from boresight no larger than ``half_angle``. The sampling
    measure is uniform in the geometric angle, not in its sine.
    """

    half_angle: float
    boresight: Direction = field(default_factory=broadside)
    plane_axis: Direction = field(default_factory=_array_axis)

    def __post_init__(self):
        if not 0.0 <= self.half_angle <= np.pi / 2:
            raise ValueError(f"half_angle must be in [0, pi/2], got {self.half_angle}")
        b, a = self.boresight.vector, self.plane_axis.vector
        if abs(np.dot(b, a)) > 1e-9:
            raise ValueError("plane_axis must be orthogonal to boresight")
        # Orthonormalize the accepted axis, so that every direction drawn
        # from the sector is a unit vector to within Direction's tolerance.
        # Exactly orthogonal axes come out unchanged, bit for bit.
        a = a - np.dot(b, a) * b
        object.__setattr__(self, "plane_axis", Direction(a / np.linalg.norm(a)))

    @classmethod
    def from_degrees(cls, fov_deg: float) -> "FieldOfView":
        """Build from a total opening angle in degrees (e.g. 180 -> +/-90)."""
        return cls(half_angle=np.radians(fov_deg) / 2.0)

    def direction_at(self, theta) -> Direction | np.ndarray:
        """Direction(s) at angle ``theta`` (radians) from boresight.

        Scalar ``theta`` returns a Direction; an array of shape S returns the
        raw (*S, 3) array of unit vectors.
        """
        theta = np.asarray(theta, dtype=float)[..., None]
        vecs = np.cos(theta) * self.boresight.vector + np.sin(theta) * self.plane_axis.vector
        if vecs.ndim == 1:
            return Direction(vecs)
        return vecs

    def sample_angles(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` arrival angles, uniform on [-half_angle, +half_angle]."""
        return rng.uniform(-self.half_angle, self.half_angle, size)


def make_ula(n_elements: int, spacing_wavelengths: float) -> AntennaArray:
    """Uniform linear array along x with the given element spacing.

    Element i sits at (i * spacing, 0, 0); broadside is +y. At most
    `MAX_ELEMENTS` elements.
    """
    if not 1 <= n_elements <= MAX_ELEMENTS:
        raise ValueError(f"n_elements must be in [1, {MAX_ELEMENTS}], got {n_elements}")
    spacing = float(spacing_wavelengths)
    if not 0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing_wavelengths}")
    # the phases 2 pi p.k reach 2 pi times the aperture, which must stay finite
    if not math.isfinite(2.0 * math.pi * spacing * (int(n_elements) - 1)):
        raise ValueError(f"array aperture {spacing_wavelengths} * {n_elements - 1} "
                         f"wavelengths is too large")
    pos = np.zeros((n_elements, 3))
    pos[:, 0] = np.arange(n_elements) * spacing
    return AntennaArray(pos)


def phase_matrix(array: AntennaArray, unit_vectors: np.ndarray) -> np.ndarray:
    """Plane-wave phases for a batch of unit vectors.

    Parameters
    ----------
    array : AntennaArray
    unit_vectors : (..., M, 3) array of unit direction vectors

    Returns
    -------
    (..., N, M) array, entry [..., n, m] the phase at element n from direction m.
    """
    return 2.0 * np.pi * (array.positions @ np.asarray(unit_vectors, dtype=float).swapaxes(-1, -2))


def steering_vector(array: AntennaArray, k: Direction) -> np.ndarray:
    """Per-element phasors e^{j phase} for a plane wave from ``k``; length N."""
    return np.exp(1j * 2.0 * np.pi * (array.positions @ k.vector))
