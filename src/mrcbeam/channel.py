"""Multipath channel realizations and their delayed-tone sums over a band.

A channel is a finite set of plane waves, each with a complex amplitude,
a unit arrival direction and a propagation delay. Frequencies are baseband
offsets from the band center; the combining weights are designed at f = 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# phase_matrix is not called here; imported only for perfbench/tracing.py to wrap.
from .geometry import FieldOfView, _integer, as_directions, normalize, phase_matrix

_JSON_FIELDS = ("re", "im", "kx", "ky", "kz", "delay_ns")
_SQRT2 = np.sqrt(2.0)
# entries of phasors or kernel that one slice of a bounded-memory stage holds at once
# (`_slices`): 256 KiB of doubles, cache-sized. The one memory budget of every such stage.
_KERNEL_SLICE = 1 << 15


def _slices(count: int, entries: int) -> list[slice]:
    """Slices of ``count`` items in order, each of at least one and at most
    `_KERNEL_SLICE` // ``entries`` items, for a stage that holds ``entries`` values per
    item."""
    step = max(1, _KERNEL_SLICE // entries)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


class ChannelRealization:
    """M plane waves held as three read-only arrays; index order is stable.

    ``amplitudes()`` is (M,) complex, ``direction_matrix()`` (M, 3) unit
    arrival vectors and ``delays()`` (M,) seconds. The constructor copies its
    arguments, so later writes to them do not reach the channel, and refuses
    wrong shapes, no paths, non-finite amplitudes, non-unit vectors and
    negative delays.
    """

    __slots__ = ("_amplitudes", "_vectors", "_delays")

    def __init__(self, amplitudes, vectors, delays):
        amplitudes = np.array(amplitudes, dtype=complex)
        vectors, delays = np.array(vectors, dtype=float), np.array(delays, dtype=float)
        if (amplitudes.ndim != 1 or vectors.shape != (amplitudes.size, 3)
                or delays.shape != amplitudes.shape):
            raise ValueError(f"expected (M,) amplitudes, (M, 3) vectors and (M,) delays, got "
                             f"{amplitudes.shape}, {vectors.shape} and {delays.shape}")
        if amplitudes.size < 1:
            raise ValueError("a channel needs at least one component")
        if not np.isfinite(amplitudes).all():
            raise ValueError("amplitudes must be finite")
        as_directions(vectors, ndim=2)
        if not delays.min() >= 0.0:                         # also rejects NaN
            raise ValueError(f"delays must be >= 0, got {delays}")
        self._keep(amplitudes, vectors, delays)

    def _keep(self, amplitudes: np.ndarray, vectors: np.ndarray,
              delays: np.ndarray) -> "ChannelRealization":
        """Freeze and keep valid arrays that no one else holds; returns the channel."""
        for arr in (amplitudes, vectors, delays):
            arr.setflags(write=False)
        self._amplitudes, self._vectors, self._delays = amplitudes, vectors, delays
        return self

    def __reduce__(self):
        # pickling and copying rebuild through the constructor's validation
        return type(self), (self._amplitudes, self._vectors, self._delays)

    @property
    def m_paths(self) -> int:
        return self._amplitudes.size

    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def direction_matrix(self) -> np.ndarray:
        """(M, 3) matrix of unit arrival vectors, in component order."""
        return self._vectors

    def delays(self) -> np.ndarray:
        return self._delays


def sample_channel(m_paths: int, fov: FieldOfView, delay_max: float, rng):
    """Draw a random channel from one stream, or one channel per stream of a block.

    Each stream draws its M directions, then its amplitudes, then its delays.
    Amplitudes are circularly-symmetric complex normal with unit variance
    (independent real/imaginary parts of variance 1/2), delays uniform on
    [0, delay_max] seconds, directions uniform in angle within the field
    of view; all mutually independent.

    One Generator ``rng`` gives a `ChannelRealization`. A sequence of T
    Generators gives the raw (T, M) complex amplitudes, (T, M, 3) unit arrival
    vectors and (T, M) delays, row t exactly what stream t alone would draw.
    """
    m_paths = _integer("m_paths", m_paths)
    if m_paths < 1:
        raise ValueError(f"m_paths must be >= 1, got {m_paths}")
    if not 0 < delay_max < math.inf:
        raise ValueError(f"delay_max must be positive and finite, got {delay_max}")
    if isinstance(rng, np.random.Generator):
        draws = np.empty(m_paths), np.empty(2 * m_paths), np.empty(m_paths)
        _draw_paths(rng, *draws)
        # fresh draws from a checked field of view and delay range are valid: no re-check
        return ChannelRealization.__new__(ChannelRealization)._keep(
            *_paths_from_draws(fov, delay_max, *draws))
    rngs = tuple(rng)
    angles, delays = np.empty((2, len(rngs), m_paths))
    normals = np.empty((len(rngs), 2 * m_paths))
    for stream, *rows in zip(rngs, angles, normals, delays):
        _draw_paths(stream, *rows)
    return _paths_from_draws(fov, delay_max, angles, normals, delays)


def _draw_paths(rng: np.random.Generator, angles: np.ndarray, normals: np.ndarray,
                delays: np.ndarray) -> None:
    """One stream's draws, in order, into its rows: M uniforms for the angles, 2M
    normals (the real parts, then the imaginary ones), M uniforms for the delays."""
    rng.random(out=angles)
    rng.standard_normal(out=normals)
    rng.random(out=delays)


def _paths_from_draws(fov: FieldOfView, delay_max: float, angles: np.ndarray,
                      normals: np.ndarray, delays: np.ndarray):
    """Amplitudes, unit vectors and delays of `_draw_paths` rows of any leading shape.

    The uniforms take ``Generator.uniform``'s map low + (high - low) u, so the
    angles and delays are bit for bit what ``uniform(-h, h)`` and
    ``uniform(0, delay_max)`` draw.
    """
    h, m = fov.half_angle, angles.shape[-1]
    angles *= h - -h
    angles += -h
    delays *= delay_max
    amplitudes = np.empty(angles.shape, dtype=complex)
    amplitudes.real, amplitudes.imag = normals[..., :m], normals[..., m:]
    amplitudes /= _SQRT2
    return amplitudes, fov.direction_at(angles), delays


class EvenGrid:
    """F evenly spaced frequencies f_k = f_0 + k d, held as the tone phases of a
    three-level split; build one with `even_grid`.

    With k = (a C + b) C + c, C = ceil(cbrt(F / 2)) and A = ceil(F / C^2), each
    tone factors exactly into
    e^{-j 2 pi tau (f_0 + a C^2 d)} e^{-j 2 pi tau b C d} e^{-j 2 pi tau c d}:
    M (A + 2 C) factors, about 3 cbrt(F) per path, from one real cos and one sin
    over a contiguous (M, A + 2 C) phase array. The sum is then one
    (A, M) @ (M, C^2) product. ``len`` is F.
    """

    __slots__ = ("_n", "_sizes", "_phases")

    def __init__(self, lo: float, hi: float, n: int):
        fine = 1
        while 2 * fine ** 3 < n:
            fine += 1
        coarse = -(-n // fine ** 2)
        step = (hi - lo) / (n - 1)   # as linspace spaces it; f[1] - f[0] is off by rounding
        offsets = np.concatenate([lo + step * (fine ** 2 * np.arange(coarse)),
                                  step * (fine * np.arange(fine)), step * np.arange(fine)])
        self._n, self._sizes, self._phases = n, (coarse, fine), -2.0 * np.pi * offsets
        self._phases.setflags(write=False)

    def __len__(self) -> int:
        return self._n

    def tone_sum(self, gains: np.ndarray, delays: np.ndarray) -> np.ndarray:
        coarse, fine = self._sizes
        phases = delays[:, None] * self._phases                       # (M, A + 2 C)
        tones = np.empty(phases.shape, dtype=complex)
        np.cos(phases, out=tones.real)
        np.sin(phases, out=tones.imag)
        left = gains[..., :, None] * tones[:, :coarse]                # (..., M, A)
        right = tones[:, coarse:-fine, None] * tones[:, None, -fine:]  # (M, C, C)
        out = left.swapaxes(-1, -2) @ right.reshape(-1, fine ** 2)
        return out.reshape(gains.shape[:-1] + (-1,))[..., :self._n]


def even_grid(lo: float, hi: float, n: int) -> EvenGrid:
    """The grid ``np.linspace(lo, hi, n)`` as an `EvenGrid`, for a finite span and n >= 2;
    built once per distinct grid, and a zero end keeps its sign."""
    lo, hi, n = float(lo), float(hi), _integer("n", n)
    if not math.isfinite(hi - lo) or n < 2:      # also rejects non-finite ends
        raise ValueError(f"an even grid needs a finite span and >= 2 points, got {lo}, {hi}, {n}")
    # the signs keep -0.0 and 0.0 apart, which compare and hash equal
    return _cached_grid(lo, hi, n, math.copysign(1.0, lo), math.copysign(1.0, hi))


@functools.lru_cache(maxsize=8)
def _cached_grid(lo: float, hi: float, n: int, *signs: float) -> EvenGrid:
    return EvenGrid(lo, hi, n)


def tone_sum(gains: np.ndarray, channel: ChannelRealization, f):
    """Sum of the channel's delayed tones: sum_m gains[..., m] * e^{-j 2 pi f tau_m}.

    ``f`` may be an `EvenGrid` of F frequencies or a 1-D array of F finite
    frequencies, either of which appends a frequency axis of length F, or a
    finite scalar, which drops it. An `EvenGrid` is summed by its split, which
    agrees with the direct sum to within 8 eps (1 + largest phase) sum |gains|;
    scalars and arrays, evenly spaced or not, build the (M, F) tones directly.
    """
    if isinstance(f, EvenGrid):
        return f.tone_sum(gains, channel.delays())
    f = np.asarray(f, dtype=float)
    if f.ndim > 1 or not np.isfinite(f).all():
        raise ValueError(f"frequencies must be finite and at most 1-D, got shape {f.shape}")
    if f.ndim == 0:
        return gains @ np.exp(-2j * np.pi * float(f) * channel.delays())
    return gains @ np.exp(-2j * np.pi * np.outer(channel.delays(), f))


def band_power(gains: np.ndarray, delays: np.ndarray, bandwidth: float, n: int) -> np.ndarray:
    """Mean of |sum_m gains[..., b, m] e^{-j 2 pi f tau_m}|^2 over the band grid
    ``np.linspace(-bandwidth/2, bandwidth/2, n)``, in closed form.

    ``gains`` is (..., B, M) and ``delays`` (..., M) seconds; returns (..., B). The
    mean is Re(g K g^H) with the grid's real Dirichlet kernel
    K[m, m'] = sin(n x) / (n sin x), x = pi (bandwidth / (n - 1)) (tau_m - tau_m'):
    M (M - 1) / 2 kernel entries per channel, which all B rows share, where a sum
    over the grid takes M n tones per row. K is built a `_slices` slice of rows at a
    time, each row M entries over all channels, so memory stays bounded at any M.
    """
    m = delays.shape[-1]
    step = bandwidth / (n - 1)
    cross = 0.0
    for part in _slices(m, delays[..., 0].size * m):
        top, h = part.start, part.stop - part.start
        rows, cols = np.triu_indices(h, 1, m - top)   # K above the diagonal; K is symmetric
        upper = np.zeros(delays.shape[:-1] + (h, m - top))
        upper[..., rows, cols] = _dirichlet(
            n, step * (delays[..., top + rows] - delays[..., top + cols]))
        # g K g^H = sum_m |g_m|^2 + 2 sum_{m < m'} K[m, m'] Re(g_m conj(g_m'))
        cross = cross + sum(((g[..., part] @ upper) * g[..., top:]).sum(-1)
                            for g in (gains.real, gains.imag))
    return (gains.real ** 2 + gains.imag ** 2).sum(-1) + 2.0 * cross


def _dirichlet(n: int, u: np.ndarray) -> np.ndarray:
    """sin(n pi u) / (n sin(pi u)): the mean of e^{-j 2 pi u (i - (n - 1) / 2)} over i < n.

    Evaluated on u's offset r from the nearest integer k as
    (-1)^(k (n - 1)) sin(n pi r) / (n sin(pi r)), and (-1)^(k (n - 1)) where
    sin(pi r) is 0: at u = k, sin(pi u) in floating point is not 0 and n pi u rounds.
    """
    k = np.rint(u)
    r = u - k
    r *= np.pi
    den = np.sin(r)
    den *= n
    r *= n
    out = np.divide(np.sin(r), den, out=np.ones_like(r), where=den != 0)
    if n % 2 == 0:
        out *= 1.0 - 2.0 * np.abs(k - 2.0 * np.rint(0.5 * k))   # (-1)^k, exact for any float k
    return out


def remove_component(channel: ChannelRealization, index: int) -> ChannelRealization:
    """Channel with component ``index`` deleted, e.g. a blocked path.

    Requires at least two components: removing the only path would leave
    an empty channel.
    """
    index = _integer("index", index)
    if channel.m_paths < 2:
        raise ValueError("cannot remove a component from a single-path channel")
    if not 0 <= index < channel.m_paths:
        raise ValueError(f"component index {index} out of range for M={channel.m_paths}")
    kept = np.arange(channel.m_paths) != index
    # masked copies of a validated channel's arrays are valid: no re-check
    return ChannelRealization.__new__(ChannelRealization)._keep(
        channel.amplitudes()[kept], channel.direction_matrix()[kept], channel.delays()[kept])


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
    amplitudes, vectors, delays = (np.empty(len(entries), dtype=complex),
                                   np.empty((len(entries), 3)), np.empty(len(entries)))
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"channel component {i} must be an object")
        re, im, kx, ky, kz, delay_ns = (_finite_field(entry, key, i) for key in _JSON_FIELDS)
        try:
            vectors[i] = normalize([kx, ky, kz])
        except ValueError as exc:
            raise ValueError(f"channel component {i}: {exc}") from None
        if delay_ns < 0:
            raise ValueError(f"channel component {i}: 'delay_ns' must be >= 0, got {delay_ns!r}")
        amplitudes[i], delays[i] = complex(re, im), delay_ns * 1e-9
    return ChannelRealization(amplitudes, vectors, delays)


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
