"""Closed-form predictions driven by a single geometry constant.

The array parameter s is the expected squared sub-beam gain between two
independent random arrival directions. Everything else is algebra in s:
the probability that a path is drowned out by cross-beam interference,
the usable path count, and band-averaged SNR for the combining beam and
for a beam steered at the strongest path only. s is computed exactly by
quadrature (`exact_array_parameter`) or estimated by Monte Carlo
(`estimate_array_parameter`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .beams import steering_matrix
from .channel import _slices
# phase_matrix is not called here; imported only for perfbench/tracing.py to wrap.
from .geometry import AntennaArray, FieldOfView, phase_matrix

EULER_GAMMA = float(np.euler_gamma)

_ESTIMATE_CHUNK = 1 << 15
MAX_SAMPLES = 1 << 30        # most direction pairs of one estimate: refused before any draw

# Composite Gauss-Legendre rule of `exact_array_parameter`: 32-node panels,
# each spanning at most 32 radians of the integrand's phase. A panel still
# integrates 64 radians to rounding and fails at 80, so this leaves a
# factor of two.
_PANEL_NODES = 32
_PANEL_PHASE = 32.0
_MAX_PANELS = 1 << 14        # bounds the work: about 0.5M nodes
_PANEL_BLOCK = 128           # panels evaluated at once, which bounds the memory
_CONFIRM_REL = 1e-13


@dataclass(frozen=True)
class ArrayParameterEstimate:
    """Monte Carlo estimate of the array parameter with its standard error."""

    s: float
    samples: int
    stderr: float


def estimate_array_parameter(array: AntennaArray, fov: FieldOfView, samples: int,
                             rng: np.random.Generator) -> ArrayParameterEstimate:
    """Estimate s = E[|pair gain|^2] over independent direction pairs.

    Draws ``samples`` pairs from the field of view and averages the squared
    cross-beam gain. Work proceeds in fixed-size chunks accumulated in
    order, so results do not depend on how the call is scheduled.

    Parameters
    ----------
    array : AntennaArray
    fov : FieldOfView
    samples : number of direction pairs, in [1, MAX_SAMPLES]
    rng : per-caller random stream

    Returns
    -------
    ArrayParameterEstimate with the mean, sample count and standard error.
    """
    samples = _integer("samples", samples)
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [1, {MAX_SAMPLES}], got {samples}")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        count = min(_ESTIMATE_CHUNK, samples - done)
        theta = fov.sample_angles(rng, 2 * count)
        vecs = fov.direction_at(theta)
        gain = np.empty(count)
        # a chunk's pairs fill its gains a slice at a time, N phasors per side of a pair
        for part in _slices(count, array.n_elements):
            probe = steering_matrix(array, vecs[part])                        # (N, pairs)
            other = steering_matrix(array, vecs[count:][part])
            gain[part] = np.abs(np.sum(np.conj(other) * probe, axis=0)) ** 2
        gain /= array.n_elements ** 2
        total += float(np.sum(gain))
        total_sq += float(np.sum(gain ** 2))
        done += count
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean ** 2, 0.0) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = math.inf
    return ArrayParameterEstimate(mean, samples, stderr)


def exact_array_parameter(array: AntennaArray, fov: FieldOfView) -> float:
    """The array parameter s by quadrature, exact to rounding.

    s = N^-2 sum_{n,n'} |phi(p_n - p_n')|^2, where
    phi(d) = E_theta[e^{j 2 pi d.k(theta)}] is the mean plane-wave phasor
    between two elements over the field of view. phi comes for every pair
    at once from one composite Gauss-Legendre rule in theta, whose panel
    count grows with the array's extent; the result is confirmed against
    twice as many panels. Deterministic: no random stream is involved.

    Raises ValueError when the array is too wide for the rule, or if the
    two panel counts disagree beyond 1e-13 relative.
    """
    if array.n_elements == 1 or fov.half_angle == 0.0:
        return 1.0          # a single element or a single direction: every pair gain is 1
    extent = math.hypot(*np.ptp(array.positions, axis=0))   # >= largest separation
    need = 2.0 * np.pi * extent * 2.0 * fov.half_angle / _PANEL_PHASE
    if not need <= _MAX_PANELS:
        raise ValueError(f"array extent of {extent:g} wavelengths is too wide for the "
                         f"exact array parameter")
    panels = max(1, math.ceil(need))
    spacing = _ula_spacing(array)
    if spacing is None:
        s, finer = (_array_parameter_by_panels(array, fov, p) for p in (panels, 2 * panels))
    else:
        s, finer = (_array_parameter_by_lags(array.n_elements, spacing, fov, p)
                    for p in (panels, 2 * panels))
    if not abs(s - finer) <= _CONFIRM_REL * finer:
        raise ValueError(f"array parameter quadrature did not converge: {s!r} at {panels} "
                         f"panels, {finer!r} at {2 * panels}")
    return s


def _panel_nodes(fov: FieldOfView, panels: int):
    """Nodes theta and weights w of ``panels`` equal 32-node Gauss-Legendre panels over
    the field of view, `_PANEL_BLOCK` panels at a time; w is the uniform angle density's."""
    nodes, weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
    width = 2.0 * fov.half_angle / panels
    weights = weights / (2 * panels)
    for lo in range(0, panels, _PANEL_BLOCK):
        starts = -fov.half_angle + width * np.arange(lo, min(lo + _PANEL_BLOCK, panels))
        yield (np.add.outer(starts, width * (nodes + 1.0) / 2.0).ravel(),
               np.tile(weights, starts.size))


def _array_parameter_by_panels(array: AntennaArray, fov: FieldOfView, panels: int) -> float:
    """s from ``panels`` equal 32-node Gauss-Legendre panels over the field of view.

    Accumulates Phi = (A * w) @ A^H block by block, A being the (N, Q)
    plane-wave phasors at the nodes and w the node weights of the uniform
    angle density: O(N^2 Q) for any array.
    """
    n = array.n_elements
    phi = np.zeros((n, n), dtype=complex)
    for theta, w in _panel_nodes(fov, panels):
        a = steering_matrix(array, fov.direction_at(theta))             # (N, Q)
        phi += (a * w) @ a.conj().T
    return float(np.sum(phi.real ** 2 + phi.imag ** 2)) / n ** 2


def _ula_spacing(array: AntennaArray) -> float | None:
    """The spacing d when element n sits exactly at (n d, 0, 0), as `make_ula` puts it;
    None for any other array."""
    pos = array.positions
    spacing = pos[1, 0] if array.n_elements > 1 else 0.0
    if not pos[:, 1:].any() and np.array_equal(pos[:, 0], np.arange(array.n_elements) * spacing):
        return float(spacing)
    return None


def _array_parameter_by_lags(n: int, spacing: float, fov: FieldOfView, panels: int) -> float:
    """`_array_parameter_by_panels` for a line of N elements at (n d, 0, 0), in O(N Q).

    phi between two elements depends only on their lag l, and the nodes are symmetric
    about broadside, so phi_l is the cosine moment c_l = sum_q w_q cos(2 pi l d sin theta_q)
    and s = N^-2 [N c_0^2 + 2 sum_{l >= 1} (N - l) c_l^2]. With l = a B + b, B = ceil(sqrt N),
    every c_l comes from two real (A, Q) @ (Q, B) products, cos cos - sin sin.
    """
    fine = math.isqrt(n - 1) + 1
    coarse_lags = np.arange(0, n, fine) * spacing                   # a B d, (A,)
    fine_lags = np.arange(fine) * spacing                           # b d, (B,)
    moments = np.zeros((coarse_lags.size, fine))
    for theta, w in _panel_nodes(fov, panels):
        kx = np.sin(theta)
        coarse = 2.0 * np.pi * np.multiply.outer(coarse_lags, kx)     # (A, Q)
        fine_phase = 2.0 * np.pi * np.multiply.outer(fine_lags, kx)   # (B, Q)
        moments += ((np.cos(coarse) * w) @ np.cos(fine_phase).T
                    - (np.sin(coarse) * w) @ np.sin(fine_phase).T)
    c = moments.ravel()[:n]
    return float(n * c[0] ** 2 + 2.0 * np.sum((n - np.arange(1, n)) * c[1:] ** 2)) / n ** 2


def conditional_ineffectiveness(z: float, m_paths: int, s: float) -> float:
    """Probability a path of amplitude ``z`` is drowned by interference.

    Under the Gaussian approximation of the aggregate cross-beam term,
    this is exp(-z^2 / ((M-1) s)); identically 0 for a single path.
    """
    if not z >= 0:                                      # also refuses NaN
        raise ValueError(f"amplitude must be >= 0, got {z}")
    x = _interference_power(m_paths, s)
    if x == 0.0:                                        # a single path, or s = 0
        return 1.0 if m_paths > 1 and z == 0.0 else 0.0
    return float(np.exp(-z * z / x))


def ineffectiveness_probability(m_paths: int, s: float) -> float:
    """Probability a random path is ineffective: (M-1)s / (1 + (M-1)s)."""
    x = _interference_power(m_paths, s)
    return x / (1.0 + x)


def effective_count(m_paths: int, s: float) -> float:
    """Expected number of effective paths: M / (1 + (M-1)s), in [1, M]."""
    return m_paths / (1.0 + _interference_power(m_paths, s))


def snr_mrc_theory(n_elements: int, m_paths: int, s: float, sigma0: float) -> float:
    """Band-averaged SNR (linear) of the combining beam.

    Ratio of expected signal power to expected noise power:
    (N / sigma0^2) * (2 + (M-1) s). Known to read 3 dB high at M = 1,
    where the true narrowband gain is N.
    """
    return _per_noise(n_elements, sigma0, 2.0 + _interference_power(m_paths, s))


def snr_single_theory(n_elements: int, m_paths: int, s: float, sigma0: float) -> float:
    """Band-averaged SNR (linear) of a beam steered at the strongest path.

    The strongest of M unit-mean exponential path powers has mean H_M, taken
    in its asymptotic form ln(M) + gamma.
    """
    x = _interference_power(m_paths, s)
    return _per_noise(n_elements, sigma0, math.log(m_paths) + EULER_GAMMA + x)


def snr_ratio_theory(m_paths: int, s: float) -> float:
    """Single-beam to combining-beam SNR ratio; tends to 1 as M grows.

    (ln M + gamma + (M-1)s) / (2 + (M-1)s), independent of array size
    and noise level.
    """
    x = _interference_power(m_paths, s)
    return (math.log(m_paths) + EULER_GAMMA + x) / (2.0 + x)


def harmonic_number(m: int) -> float:
    """H_m = sum_{k=1}^{m} 1/k, for an integer m >= 1."""
    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def to_db(linear: float) -> float:
    """Linear power ratio to decibels."""
    return float(10.0 * np.log10(linear))


def _integer(name: str, value) -> int:
    """``value`` as a Python int; refuses a bool, a float or any other non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)                # numpy integers too
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _interference_power(m_paths: int, s: float) -> float:
    """(M-1)s, the one quantity every closed form is algebra in; refuses an M that is not
    an integer >= 1, and an array parameter s that is negative or makes (M-1)s not finite.
    s is not capped at 1: a Monte Carlo estimate at N = 1 can round to just above it."""
    m_paths = _integer("m_paths", m_paths)
    if m_paths < 1:
        raise ValueError(f"m_paths must be >= 1, got {m_paths}")
    x = (m_paths - 1) * float(s)                        # a float: no numpy overflow warning
    if not (0.0 <= s and x < math.inf):                 # also refuses NaN, and inf at M = 1
        raise ValueError(f"array parameter must be >= 0 with (M-1)s finite, got {s}")
    return x


def _per_noise(n_elements: int, sigma0: float, gain: float) -> float:
    """(N / sigma0^2) * gain; refuses an N that is not an integer >= 1, a sigma0 that is
    not positive or leaves N / sigma0^2 not finite and positive, and a gain for which the
    SNR overflows."""
    n_elements = _integer("n_elements", n_elements)
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    try:
        per_noise = float(n_elements) / float(sigma0) ** 2     # floats: no numpy warnings
    except (OverflowError, ZeroDivisionError):          # sigma0^2 overflows or is 0
        per_noise = math.nan
    if not (sigma0 > 0 and 0.0 < per_noise < math.inf):
        raise ValueError(f"sigma0 must be positive with N / sigma0^2 finite and positive, "
                         f"got {sigma0}")
    snr = per_noise * float(gain)
    if not snr < math.inf:
        raise ValueError(f"SNR overflows: N / sigma0^2 = {per_noise:g} times gain {gain:g}")
    return snr
