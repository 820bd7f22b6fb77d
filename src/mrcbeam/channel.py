"""Multipath channel realizations and their per-antenna frequency response.

A channel is a finite set of plane waves, each with a complex amplitude,
a unit arrival direction and a propagation delay. Frequencies are baseband
offsets from the band center; the combining weights are designed at f = 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import _UNIT_TOL, AntennaArray, Direction, FieldOfView, phase_matrix

_JSON_FIELDS = ("re", "im", "kx", "ky", "kz", "delay_ns")


@dataclass(frozen=True)
class MultipathComponent:
    """One plane wave: complex amplitude, arrival direction, delay in seconds."""

    alpha: complex
    direction: Direction
    delay: float

    def __post_init__(self):
        if not self.delay >= 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


class ChannelRealization:
    """M plane waves held as three read-only arrays; index order is stable.

    ``amplitudes()`` is (M,) complex, ``direction_matrix()`` (M, 3) unit
    arrival vectors and ``delays()`` (M,) seconds. Build one with
    `from_arrays`, or from a sequence of `MultipathComponent`; both go
    through the same validation.
    """

    __slots__ = ("_amplitudes", "_vectors", "_delays")

    def __init__(self, components):
        comps = tuple(components)
        self._store(np.array([c.alpha for c in comps], dtype=complex),
                    np.array([c.direction.vector for c in comps], dtype=float).reshape(-1, 3),
                    np.array([c.delay for c in comps], dtype=float))

    @classmethod
    def from_arrays(cls, amplitudes, vectors, delays) -> "ChannelRealization":
        """Channel from (M,) complex amplitudes, (M, 3) unit vectors and (M,) delays.

        The arrays are copied, so later writes to the arguments do not
        reach the channel.
        """
        channel = cls.__new__(cls)
        channel._store(np.array(amplitudes, dtype=complex), np.array(vectors, dtype=float),
                       np.array(delays, dtype=float))
        return channel

    def _store(self, amplitudes: np.ndarray, vectors: np.ndarray, delays: np.ndarray) -> None:
        """Validate freshly copied arrays, freeze them and keep them."""
        if (amplitudes.ndim != 1 or vectors.shape != (amplitudes.size, 3)
                or delays.shape != amplitudes.shape):
            raise ValueError(f"expected (M,) amplitudes, (M, 3) vectors and (M,) delays, got "
                             f"{amplitudes.shape}, {vectors.shape} and {delays.shape}")
        if amplitudes.size < 1:
            raise ValueError("a channel needs at least one component")
        if not np.isfinite(amplitudes).all():
            raise ValueError("amplitudes must be finite")
        norms = np.linalg.norm(vectors, axis=1)
        if not (np.abs(norms - 1.0) <= _UNIT_TOL).all():   # also rejects NaN and inf
            raise ValueError(f"directions must be finite unit vectors, got norms {norms}")
        if not delays.min() >= 0.0:                         # also rejects NaN
            raise ValueError(f"delays must be >= 0, got {delays}")
        self._keep(amplitudes, vectors, delays)

    def _keep(self, amplitudes: np.ndarray, vectors: np.ndarray, delays: np.ndarray) -> None:
        """Freeze and keep valid arrays that no one else holds."""
        for arr in (amplitudes, vectors, delays):
            arr.setflags(write=False)
        self._amplitudes, self._vectors, self._delays = amplitudes, vectors, delays

    def __reduce__(self):
        # pickling and copying rebuild through the same validation
        return type(self).from_arrays, (self._amplitudes, self._vectors, self._delays)

    @property
    def m_paths(self) -> int:
        return self._amplitudes.size

    @property
    def components(self) -> tuple[MultipathComponent, ...]:
        """Per-path view, built anew on every access."""
        return tuple(MultipathComponent(complex(a), Direction(v), float(d))
                     for a, v, d in zip(self._amplitudes, self._vectors, self._delays))

    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def direction_matrix(self) -> np.ndarray:
        """(M, 3) matrix of unit arrival vectors, in component order."""
        return self._vectors

    def delays(self) -> np.ndarray:
        return self._delays


def sample_channel(m_paths: int, fov: FieldOfView, delay_max: float,
                   rng: np.random.Generator) -> ChannelRealization:
    """Draw a random channel: directions, then amplitudes, then delays.

    Amplitudes are circularly-symmetric complex normal with unit variance
    (independent real/imaginary parts of variance 1/2), delays uniform on
    [0, delay_max] seconds, directions uniform in angle within the field
    of view; all mutually independent.
    """
    if m_paths < 1:
        raise ValueError(f"m_paths must be >= 1, got {m_paths}")
    if not 0 < delay_max < math.inf:
        raise ValueError(f"delay_max must be positive and finite, got {delay_max}")
    thetas = fov.sample_angles(rng, m_paths)
    alphas = (rng.standard_normal(m_paths) + 1j * rng.standard_normal(m_paths)) / np.sqrt(2.0)
    delays = rng.uniform(0.0, delay_max, m_paths)
    return ChannelRealization.from_arrays(alphas, fov.direction_at(thetas), delays)


def per_antenna_response(channel: ChannelRealization, array: AntennaArray, f) -> np.ndarray:
    """Channel frequency response at every element, for baseband frequency ``f``.

    Entry n is sum_m alpha_m * e^{j phase_{n,m}} * e^{-j 2 pi f tau_m}.
    ``f`` may be a scalar (returns shape (N,)) or a 1-D array of F
    frequencies (returns shape (N, F)).
    """
    phases = phase_matrix(array, channel.direction_matrix())   # (N, M)
    return tone_sum(np.exp(1j * phases) * channel.amplitudes(), channel, f)


def tone_sum(gains: np.ndarray, channel: ChannelRealization, f):
    """Sum of the channel's delayed tones: sum_m gains[..., m] * e^{-j 2 pi f tau_m}.

    ``f`` may be a finite scalar, which drops the frequency axis, or a 1-D
    array of F finite frequencies, which appends one of length F. An evenly
    spaced grid f_k = f_0 + k d factors each tone exactly: with k = a B + b,
    B = ceil(sqrt(F)) and A = ceil(F / B) it is
    e^{-j 2 pi tau (f_0 + a B d)} e^{-j 2 pi tau b d}, so the sum is one
    (A, M) @ (M, B) product over M (A + B) tones instead of M F. Any other
    grid builds the (M, F) tones directly.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim > 1 or not np.isfinite(f).all():
        raise ValueError(f"frequencies must be finite and at most 1-D, got shape {f.shape}")
    delays = channel.delays()
    if f.ndim == 0:
        return gains @ np.exp(-2j * np.pi * float(f) * delays)
    n = f.size
    if n < 2 or not np.array_equal(np.linspace(f[0], f[-1], n), f):
        return gains @ np.exp(-2j * np.pi * np.outer(delays, f))
    cols = math.isqrt(n - 1) + 1                          # ceil(sqrt(n))
    rows = -(-n // cols)
    step = (f[-1] - f[0]) / (n - 1)   # as linspace spaces it; f[1] - f[0] is off by rounding
    coarse = np.exp(-2j * np.pi * np.outer(delays, f[0] + step * (cols * np.arange(rows))))
    fine = np.exp(-2j * np.pi * np.outer(delays, step * np.arange(cols)))
    out = np.swapaxes(gains[..., :, None] * coarse, -1, -2) @ fine   # (..., A, B)
    return out.reshape(*out.shape[:-2], rows * cols)[..., :n]


def remove_component(channel: ChannelRealization, index: int) -> ChannelRealization:
    """Channel with component ``index`` deleted, e.g. a blocked path.

    Requires at least two components: removing the only path would leave
    an empty channel. ``index`` must be an integer; booleans are refused.
    """
    if isinstance(index, (bool, np.bool_)):
        raise TypeError(f"component index must be an integer, got {index!r}")
    index = operator.index(index)
    if channel.m_paths < 2:
        raise ValueError("cannot remove a component from a single-path channel")
    if not 0 <= index < channel.m_paths:
        raise ValueError(f"component index {index} out of range for M={channel.m_paths}")
    kept = np.arange(channel.m_paths) != index
    blocked = ChannelRealization.__new__(ChannelRealization)
    # masked copies of a validated channel's arrays are valid: no re-check
    blocked._keep(channel.amplitudes()[kept], channel.direction_matrix()[kept],
                  channel.delays()[kept])
    return blocked


def channel_to_json(channel: ChannelRealization) -> dict:
    """JSON-serializable record: {components: [{re, im, kx, ky, kz, delay_ns}]}."""
    return {"components": [
        {"re": float(a.real), "im": float(a.imag),
         "kx": float(kx), "ky": float(ky), "kz": float(kz), "delay_ns": float(d * 1e9)}
        for a, (kx, ky, kz), d in zip(channel.amplitudes(), channel.direction_matrix(),
                                      channel.delays())]}


def channel_from_json(record) -> ChannelRealization:
    """Inverse of `channel_to_json`; raises ValueError on any schema error."""
    entries = record.get("components") if isinstance(record, dict) else None
    if not isinstance(entries, list):
        raise ValueError("channel JSON must be an object with a 'components' list")
    comps = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"channel component {i} must be an object")
        re, im, kx, ky, kz, delay_ns = (_finite_field(entry, key, i) for key in _JSON_FIELDS)
        comps.append(MultipathComponent(complex(re, im), Direction.from_vector([kx, ky, kz]),
                                        delay_ns * 1e-9))
    return ChannelRealization(tuple(comps))


def _finite_field(entry: dict, key: str, i: int):
    value = entry.get(key)
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"channel component {i}: {key!r} must be a finite number, "
                         f"got {value!r}")
    return value
