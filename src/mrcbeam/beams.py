"""Beam weights, array factors, per-path decomposition and path effectiveness.

A beam is its (N,) complex coefficient vector, one weight per element. The
conjugate-combining beam weights each element by the conjugate of its
center-frequency channel coefficient. Over a plane-wave channel that beam
splits into one sub-beam per path, which is what the decomposition and the
effectiveness classification below make explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, tone_sum
from .geometry import AntennaArray, Direction, phase_matrix, steering_vector


@dataclass(frozen=True)
class DecompositionTerm:
    """One path's contribution to the array factor at the probe direction."""

    component: int
    weight: complex          # conjugated path amplitude
    pattern_gain: complex    # sub-beam array factor at the probe


@dataclass(frozen=True)
class Decomposition:
    """Array factor split into per-path terms; their sum is the full factor."""

    terms: tuple[DecompositionTerm, ...]
    probe: Direction

    def total(self) -> complex:
        return sum((t.weight * t.pattern_gain for t in self.terms), 0j)


@dataclass(frozen=True)
class EffectivenessReport:
    """Per-path amplitude vs. aggregate cross-beam interference at its direction.

    A path is effective when its amplitude is at least as large as the
    interference magnitude (ties count as effective).
    """

    amplitudes: np.ndarray
    interference: np.ndarray
    effective: np.ndarray

    @property
    def n_effective(self) -> int:
        return int(np.count_nonzero(self.effective))

    @property
    def fraction_ineffective(self) -> float:
        return (self.effective.size - self.n_effective) / self.effective.size


def mrc_weights(channel: ChannelRealization, array: AntennaArray) -> np.ndarray:
    """Conjugate-combining weights designed at f = 0: conj(H_n(0)) / N.

    Deliberately not unit-normalized; every SNR divides by `noise_power`,
    so overall scale cancels.
    """
    _, h0 = _center_response(array, channel.amplitudes(), channel.direction_matrix())
    return np.conj(h0) / array.n_elements


def single_direction_weights(array: AntennaArray, k: Direction) -> np.ndarray:
    """Conjugate-steering weights toward one direction: e^{-j phase} / N."""
    return np.conj(steering_vector(array, k)) / array.n_elements


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


def array_factor(weights: np.ndarray, array: AntennaArray, r: Direction) -> complex:
    """Complex gain of the weighted array toward probe direction ``r``."""
    return complex(_weight_vector(weights, array) @ steering_vector(array, r))


def pair_gain_matrix(array: AntennaArray, unit_vectors: np.ndarray) -> np.ndarray:
    """All sub-beam gains between direction pairs: G[m, h] toward direction h.

    G = S^H S / N for the steering matrix S; the diagonal is exactly 1.
    """
    s = np.exp(1j * phase_matrix(array, unit_vectors))
    return s.conj().T @ s / array.n_elements


def component_array_factor(array: AntennaArray, k_m: Direction, r: Direction) -> complex:
    """Normalized sub-beam gain: (1/N) sum_n e^{-j phase_{n,k_m}} e^{j phase_{n,r}}.

    Has unit modulus maximum, attained exactly at r = k_m.
    """
    return complex(pair_gain_matrix(array, np.array([k_m.vector, r.vector]))[0, 1])


def decompose(channel: ChannelRealization, array: AntennaArray, r: Direction) -> Decomposition:
    """Split the combining beam's array factor at ``r`` into per-path terms."""
    g = pair_gain_matrix(array, np.vstack([channel.direction_matrix(), r.vector]))
    conj_a = np.conj(channel.amplitudes())
    terms = tuple(DecompositionTerm(m, complex(conj_a[m]), complex(g[m, -1]))
                  for m in range(channel.m_paths))
    return Decomposition(terms, r)


def _center_response(array: AntennaArray, amplitudes: np.ndarray, vectors: np.ndarray):
    """Steering matrices S (..., N, M) of stacked channels, and h0 = S a (..., N)."""
    s = np.exp(1j * phase_matrix(array, vectors))
    return s, (s @ amplitudes[..., :, None])[..., 0]


def cross_beam_interference(array: AntennaArray, amplitudes: np.ndarray,
                            vectors: np.ndarray) -> np.ndarray:
    """`interference_term` of every path of a stack of (..., M) channels.

    ``vectors`` is (..., M, 3). The combining beam's array factor toward each
    path, minus the path's own term conj(a), is (h0^H S) / N - conj(a) with
    steering matrix S and h0 = S a: O(N M) per channel, no (M, M) gain matrix.
    """
    s, h0 = _center_response(array, amplitudes, vectors)
    factor = (h0.conj()[..., None, :] @ s)[..., 0, :] / array.n_elements
    return factor - np.conj(amplitudes)


def design_beams(array: AntennaArray, amplitudes: np.ndarray,
                 vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both beams of stacked channels with (..., M) amplitudes and (..., M, 3) vectors.

    Returns (..., 2, N) coefficients, `mrc_weights` then `single_direction_weights`
    toward `strongest_component`, and their (..., 2) `noise_power` at unit sigma0.
    """
    s, h0 = _center_response(array, amplitudes, vectors)
    strongest = np.argmax(np.abs(amplitudes), axis=-1)          # ties: lowest index
    steer = np.take_along_axis(s, strongest[..., None, None], axis=-1)[..., 0]
    coeffs = np.conj(np.stack([h0, steer], axis=-2)) / array.n_elements
    return coeffs, np.einsum("...n,...n->...", coeffs, coeffs.conj()).real


def interference_term(channel: ChannelRealization, array: AntennaArray, h: int) -> complex:
    """Aggregate cross-beam gain at path h's direction from all other paths.

    The full array factor at that direction is conj(alpha_h) plus this term.
    """
    if not 0 <= h < channel.m_paths:
        raise ValueError(f"component index {h} out of range for M={channel.m_paths}")
    return complex(cross_beam_interference(array, channel.amplitudes(),
                                           channel.direction_matrix())[h])


def classify_effectiveness(channel: ChannelRealization, array: AntennaArray) -> EffectivenessReport:
    """Flag every path as effective or not under the combining beam."""
    amplitudes = np.abs(channel.amplitudes())
    interference = np.abs(cross_beam_interference(array, channel.amplitudes(),
                                                  channel.direction_matrix()))
    return EffectivenessReport(amplitudes, interference, amplitudes >= interference)


def combined_response(weights: np.ndarray, channel: ChannelRealization,
                      array: AntennaArray, f) -> complex | np.ndarray:
    """Beam output for the channel at baseband frequency ``f``.

    Equals sum_n w_n H_n(f); computed per path as a sum of delayed tones,
    which is algebraically identical. Scalar ``f`` returns a complex
    scalar; a 1-D array, or a `channel.even_grid` band grid, returns one
    value per frequency.
    """
    w = _weight_vector(weights, array)
    phases = phase_matrix(array, channel.direction_matrix())
    tone = (w @ np.exp(1j * phases)) * channel.amplitudes()  # (M,)
    out = tone_sum(tone, channel, f)
    return out if out.ndim else complex(out)


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


def pattern_gain_db(weights: np.ndarray, array: AntennaArray,
                    theta_deg: np.ndarray, floor: float = 1e-30) -> np.ndarray:
    """Power gain |F|^2 in dB over broadside-plane probe angles (degrees).

    Probes lie in the x-y plane at ``theta_deg`` from +y broadside. Gains
    below ``floor`` (true pattern nulls) are clamped so output stays finite.
    """
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    vecs = np.column_stack([np.sin(theta), np.cos(theta), np.zeros_like(theta)])
    factors = _weight_vector(weights, array) @ np.exp(1j * phase_matrix(array, vecs))
    power = np.maximum(np.abs(factors) ** 2, floor)
    return 10.0 * np.log10(power)
