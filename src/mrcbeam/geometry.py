"""Antenna array geometry: element positions, arrival directions, plane-wave phases.

Positions are expressed in units of the carrier wavelength, so a single
geometry serves any carrier frequency and no wavelength parameter appears
in the phase computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-12
MAX_ELEMENTS = 4096    # largest `make_ula` array: refused before anything is allocated
_UNIT_X, _UNIT_Y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])


def as_directions(vectors, ndim: int = 1) -> np.ndarray:
    """``vectors`` as an ``ndim``-D float array of 3-vectors along its last axis, refused
    unless every one is finite with unit norm; one (3,) direction at the default."""
    vec = np.array(vectors, dtype=float)
    if vec.ndim != ndim or vec.shape[-1] != 3:
        raise ValueError(f"expected {ndim}-D directions of 3 components, got shape {vec.shape}")
    # no component of a unit vector exceeds 1; refusing one first keeps the norm from
    # overflowing, and also refuses NaN and inf
    if not (np.abs(vec) <= 1.0 + _UNIT_TOL).all():
        raise ValueError("direction components must be finite and at most 1 in magnitude")
    norms = np.linalg.norm(vec, axis=-1)
    if not (np.abs(norms - 1.0) <= _UNIT_TOL).all():
        raise ValueError(f"directions must be unit vectors, got norms {norms}")
    return vec


def normalize(vec) -> np.ndarray:
    """Any finite nonzero 3-vector scaled to a unit (3,) direction."""
    vec = np.asarray(vec, dtype=float)
    peak = np.abs(vec).max(initial=0.0)
    if not 0.0 < peak < np.inf:                 # also rejects NaN
        raise ValueError("cannot normalize a zero or non-finite vector")
    # a power-of-two scale is exact and keeps the norm from over- or underflowing
    vec = np.ldexp(vec, -np.frexp(peak)[1])
    return as_directions(vec / np.linalg.norm(vec))


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

    The direction at angle theta is (sin theta, cos theta, 0): in the x-y plane,
    theta from +y, normal to a `make_ula` array, toward +x, its axis, with |theta|
    no larger than ``half_angle``. The sampling measure is uniform in the
    geometric angle, not in its sine.
    """

    half_angle: float

    def __post_init__(self):
        if not 0.0 <= self.half_angle <= np.pi / 2:
            raise ValueError(f"half_angle must be in [0, pi/2], got {self.half_angle}")

    @classmethod
    def from_degrees(cls, fov_deg: float) -> "FieldOfView":
        """Build from a total opening angle in degrees (e.g. 180 -> +/-90)."""
        return cls(half_angle=np.radians(fov_deg) / 2.0)

    def direction_at(self, theta) -> np.ndarray:
        """Unit vectors (*S, 3) at finite angles ``theta`` (radians) of shape S; (3,) for a
        scalar. Angles beyond +/- ``half_angle`` are accepted: any in the plane can be probed."""
        theta = np.asarray(theta, dtype=float)[..., None]
        if not np.isfinite(theta).all():
            raise ValueError("angles must be finite")
        # the sum, not a stack of (sin, cos, 0), gives every zero the sign draws have had
        return np.cos(theta) * _UNIT_Y + np.sin(theta) * _UNIT_X

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

