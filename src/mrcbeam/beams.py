"""Beam weights, array factors, per-path decomposition and path effectiveness.

A beam is its (N,) complex coefficient vector, one weight per element. The
conjugate-combining beam weights each element by the conjugate of its
center-frequency channel coefficient. Over a plane-wave channel that beam
splits into one sub-beam per path, which is what the decomposition and the
effectiveness classification below make explicit.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, _slices, tone_sum
from .geometry import AntennaArray, FieldOfView, _integer, as_directions, phase_matrix

_GAIN_FLOOR = 1e-30          # power gain `pattern_gain_db` clamps pattern nulls to
_TWO_PI = 2 * (np.longdouble(np.pi) + np.longdouble(1.2246467991473532e-16))   # pi - fl(pi)
_POWER_SPACING = 2.0 ** 20   # widest line spacing, in wavelengths, steered by powers


def mrc_weights(channel: ChannelRealization, array: AntennaArray) -> np.ndarray:
    """Conjugate-combining weights designed at f = 0: conj(H_n(0)) / N.

    Deliberately not unit-normalized; every SNR divides by `noise_power`,
    so overall scale cancels.
    """
    return design_beams(channel.amplitudes(),
                        steering_matrix(array, channel.direction_matrix()))[0][0]


def single_direction_weights(array: AntennaArray, k: np.ndarray) -> np.ndarray:
    """Conjugate-steering weights toward one (3,) direction: e^{-j phase} / N."""
    return np.conj(steering_matrix(array, as_directions(k)[None])[:, 0]) / array.n_elements


def strongest_component(channel: ChannelRealization) -> int:
    """Index of the largest-amplitude path; ties go to the lowest index."""
    return int(np.argmax(np.abs(channel.amplitudes())))


def _weight_vector(weights: np.ndarray, array: AntennaArray | None = None) -> np.ndarray:
    """``weights`` as a complex vector, refused unless 1-D, non-empty and, given
    an ``array``, one weight per element."""
    w = np.asarray(weights, dtype=complex)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty 1-D complex vector")
    if array is not None and w.size != array.n_elements:
        raise ValueError(f"weight length {w.size} does not match {array.n_elements} elements")
    return w


def array_factor(weights: np.ndarray, array: AntennaArray, r: np.ndarray) -> complex:
    """Complex gain of the weighted array toward the (3,) probe direction ``r``."""
    return complex(_weight_vector(weights, array)
                   @ steering_matrix(array, as_directions(r)[None])[:, 0])


def pair_gain_matrix(array: AntennaArray, unit_vectors: np.ndarray) -> np.ndarray:
    """All sub-beam gains between direction pairs: G[m, h] toward direction h.

    G = S^H S / N for the steering matrix S; the diagonal is exactly 1.
    """
    s = steering_matrix(array, unit_vectors)
    return s.conj().T @ s / array.n_elements


def component_array_factor(array: AntennaArray, k_m: np.ndarray, r: np.ndarray) -> complex:
    """Normalized sub-beam gain: (1/N) sum_n e^{-j phase_{n,k_m}} e^{j phase_{n,r}}.

    Has unit modulus maximum, attained exactly at r = k_m.
    """
    return complex(pair_gain_matrix(array, np.stack([as_directions(k_m),
                                                     as_directions(r)]))[0, 1])


def decompose(channel: ChannelRealization, array: AntennaArray, r: np.ndarray) -> np.ndarray:
    """(M,) sub-beam gains toward the (3,) direction ``r``: path m's beam, pointed at its
    own direction, has gain G[m] there. The combining beam's array factor at ``r`` is the
    sum of the M sub-beams weighted by the conjugate amplitudes, conj(a) @ G."""
    g = pair_gain_matrix(array, np.vstack([channel.direction_matrix(), as_directions(r)]))
    return g[:-1, -1]


def steering_matrix(array: AntennaArray, unit_vectors: np.ndarray) -> np.ndarray:
    """(..., N, M) plane-wave phasors e^{j phase} of (..., M, 3) unit vectors: the one
    place mrcbeam builds them.

    On a line array of N >= 2 elements at spacing |d| <= 2^20 wavelengths
    (`AntennaArray.ula_spacing`), row n is z^n, z = e^{j phi}, phi = 2 pi d k_x, from one
    cos and one sin per direction: rows [f, 2f) are rows [0, f) times z^f, and z^{2f} is
    z^f squared, so the N rows take log2 N complex products. With cos and sin within one
    unit in the last place, entry n is within n (2.6 eps + 1.5 eps_L |phi|) of
    e^{j n phi}, eps_L being np.longdouble's eps: sqrt(5) eps / 2 per product, and
    sqrt(2) eps + 1.5 eps_L |phi| for z. Any other array, one element or a wider spacing
    takes cos + j sin of `phase_matrix`, into one complex array with no complex
    temporary; on the builds tried this is bit for bit the complex ``np.exp`` of j times
    the phase.
    """
    vectors = np.asarray(unit_vectors, dtype=float)
    spacing, n = array.ula_spacing, array.n_elements
    if spacing is None or n < 2 or abs(spacing) > _POWER_SPACING:
        phases = phase_matrix(array, vectors)
        out = np.empty(phases.shape, dtype=complex)
        np.cos(phases, out=out.real)
        np.sin(phases, out=out.imag)
        return out
    phase = (_TWO_PI * spacing) * vectors[..., 0].astype(np.longdouble)
    coarse = phase.astype(float)
    out = np.empty(phase.shape[:-1] + (n,) + phase.shape[-1:], dtype=complex)
    out[..., 0, :] = 1.0
    power = out[..., 1, :]
    np.cos(coarse, out=power.real)
    np.sin(coarse, out=power.imag)
    # z^n multiplies an error in z's phase by n, and phi rounded to float64 is off by up
    # to 1.5 eps |phi|. Turning z by the rest r of the long-double phi, which float64
    # drops, leaves z within one rounding of cos and sin: at |d| <= 2^20, r is below 1e-9
    # and 1 + j r is e^{j r} to 1e-18.
    power += power * (1j * (phase - coarse).astype(float))
    power = power[..., None, :].copy()                          # z^f, f = 1, 2, 4, ...
    for f in (1 << k for k in range(1, (n - 1).bit_length())):
        power *= power
        np.multiply(out[..., :min(f, n - f), :], power, out=out[..., f:2 * f, :])
    return out


def cross_beam_interference(amplitudes: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """`interference_term` of every path of stacked channels with (..., M) amplitudes and
    (..., N, M) `steering_matrix` S of their path directions, the inputs of `design_beams`.

    The combining beam's array factor toward each path minus the path's own term conj(a):
    w S - conj(a) for its `design_beams` weights w = conj(S a) / N, O(N M) per channel.
    """
    weights = design_beams(amplitudes, steering)[0][..., 0, :]
    return (weights[..., None, :] @ steering)[..., 0, :] - np.conj(amplitudes)


def design_beams(amplitudes: np.ndarray, steering: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both beams of stacked channels with (..., M) amplitudes and (..., N, M)
    `steering_matrix` S of their path directions.

    Returns (..., 2, N) coefficients, `mrc_weights` then `single_direction_weights`
    toward `strongest_component`, and their (..., 2) `noise_power` at unit sigma0.
    """
    h0 = (steering @ amplitudes[..., :, None])[..., 0]
    strongest = np.argmax(np.abs(amplitudes), axis=-1)          # ties: lowest index
    steer = np.take_along_axis(steering, strongest[..., None, None], axis=-1)[..., 0]
    coeffs = np.conj(np.stack([h0, steer], axis=-2)) / steering.shape[-2]
    return coeffs, np.einsum("...n,...n->...", coeffs, coeffs.conj()).real


def interference_term(channel: ChannelRealization, array: AntennaArray, h: int) -> complex:
    """Aggregate cross-beam gain at path h's direction from all other paths.

    The full array factor at that direction is conj(alpha_h) plus this term.
    """
    h = _integer("h", h)
    if not 0 <= h < channel.m_paths:
        raise ValueError(f"component index {h} out of range for M={channel.m_paths}")
    return complex(cross_beam_interference(
        channel.amplitudes(), steering_matrix(array, channel.direction_matrix()))[h])


def classify_effectiveness(channel: ChannelRealization, array: AntennaArray) -> np.ndarray:
    """(M,) bool mask of the effective paths under the combining beam: path h is effective
    when its amplitude is at least its `interference_term` in magnitude (ties count)."""
    a = channel.amplitudes()
    return np.abs(a) >= np.abs(cross_beam_interference(
        a, steering_matrix(array, channel.direction_matrix())))


def combined_response(weights: np.ndarray, channel: ChannelRealization,
                      array: AntennaArray, f) -> complex | np.ndarray:
    """Beam output for the channel at baseband frequency ``f``.

    Equals sum_n w_n H_n(f); computed per path as a sum of delayed tones,
    which is algebraically identical. Scalar ``f`` returns a complex
    scalar; a 1-D array, or a `channel.even_grid` band grid, returns one
    value per frequency.
    """
    w = _weight_vector(weights, array)
    tone = (w @ steering_matrix(array, channel.direction_matrix())) * channel.amplitudes()
    out = tone_sum(tone, channel, f)
    return out if out.ndim else complex(out)


def per_antenna_response(channel: ChannelRealization, array: AntennaArray, f) -> np.ndarray:
    """Channel frequency response at every element, for baseband frequency ``f``.

    Entry n is sum_m alpha_m * e^{j phase_{n,m}} * e^{-j 2 pi f tau_m}.
    ``f`` may be a scalar (returns shape (N,)) or a 1-D array of F
    frequencies (returns shape (N, F)).
    """
    steering = steering_matrix(array, channel.direction_matrix())     # (N, M)
    return tone_sum(steering * channel.amplitudes(), channel, f)


def noise_power(weights: np.ndarray, sigma0: float) -> float:
    """Output noise variance for per-antenna noise std ``sigma0`` >= 0; refuses a sigma0
    for which it is not finite, or is 0 while the weights are not."""
    w = _weight_vector(weights)
    gain = float(np.vdot(w, w).real)
    try:
        power = float(sigma0) ** 2 * gain
    except OverflowError:                         # sigma0^2 overflows
        power = np.inf
    if not (sigma0 >= 0 and power < np.inf) or (power == 0 and gain != 0):   # also NaN
        raise ValueError(f"sigma0 must be >= 0 with a finite, nonzero noise power, got {sigma0}")
    return power


def pattern_gain_db(weights: np.ndarray, array: AntennaArray, theta_deg: np.ndarray) -> np.ndarray:
    """Power gain |F|^2 in dB over broadside-plane probe angles (degrees).

    Probes lie in the x-y plane at ``theta_deg`` from +y broadside, as `FieldOfView.direction_at`
    places them. Gains below `_GAIN_FLOOR` (true pattern nulls) are clamped so output stays finite.
    A `channel._slices` slice of angles at a time, N phasors each, is steered and written into
    the result, so for K angles the only O(K) arrays held are the radians and the result.
    """
    theta = np.radians(np.atleast_1d(theta_deg))
    plane, w = FieldOfView(np.pi / 2), _weight_vector(weights, array)
    out = np.empty(theta.shape)
    for part in _slices(out.size, array.n_elements):
        gain = np.abs(w @ steering_matrix(array, plane.direction_at(theta.flat[part]))) ** 2
        out.flat[part] = 10.0 * np.log10(np.maximum(gain, _GAIN_FLOOR))
    return out
