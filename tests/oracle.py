"""An oracle for the three Monte Carlo experiments that shares no code with their kernels.

Each trial's channel is drawn as the experiments draw it, from `trial_rng` and
`sample_channel`, whose draws other tests pin. Everything after the draws is computed
here from the definitions alone, one trial at a time, in np.longdouble:

- element n of the line array sits at n d along x, and the phasor of direction k at
  element n is cos(2 pi p_n . k) + j sin(2 pi p_n . k);
- the combining beam's weights are conj(H(0)) / N, with H_n(0) = sum_m a_m S[n, m];
  the single beam's are conj(S[:, h]) / N toward the largest |a_h| (ties: lowest h);
- path h is effective when |a_h| >= |F(k_h) - conj(a_h)|, F the combining beam's
  array factor;
- a band SNR is the mean over the tones of ``np.linspace(-B/2, B/2, F)`` of
  |sum_n w_n H_n(f)|^2, H_n(f) = sum_m a_m S[n, m] e^{-j 2 pi f tau_m}, over the noise
  power sum_n |w_n|^2 at unit sigma0;
- blockage designs both beams on the drawn channel, then sets the amplitude of the
  path index its stream draws next to 0.
"""

from __future__ import annotations

import numpy as np

from mrcbeam import ExperimentConfig, sample_channel, trial_rng

LD, CLD = np.longdouble, np.clongdouble
TWO_PI = 2 * np.arccos(LD(-1))
NS, MS, FS = (1, 2, 3, 8, 33, 64), (1, 2, 7, 40), (2, 3, 1024)
MARGIN = 1e-10         # effectiveness decided closer than this, relative, may go either way


def _phasors(phases: np.ndarray) -> np.ndarray:
    return np.cos(phases) + 1j * np.sin(phases)


def line_phasors(n: int, spacing: float, vectors: np.ndarray) -> np.ndarray:
    """(..., N, M) phasors cos(2 pi p_n . k) + j sin(2 pi p_n . k) of (..., M, 3) unit
    vectors at a line of ``n`` elements, element n at (n d, 0, 0), in np.clongdouble."""
    kx = np.asarray(vectors)[..., None, :, 0].astype(LD)                  # (..., 1, M)
    return _phasors(TWO_PI * (np.arange(n, dtype=LD) * LD(spacing))[:, None] * kx)


class Trial:
    """One trial of a configuration, at its only path count: the quantities of all three
    experiments."""

    def __init__(self, cfg: ExperimentConfig, t: int):
        (m,) = cfg.m_values
        rng = trial_rng(cfg.seed, (m, t))
        channel = sample_channel(m, cfg.fov(), cfg.delay_max_s, rng)
        self.blocked = int(rng.integers(m))                 # the blockage draw comes next
        n = cfg.n_elements
        steering = line_phasors(n, cfg.spacing_wavelengths, channel.direction_matrix())
        self.a = channel.amplitudes().astype(CLD)
        strongest = int(np.argmax(np.abs(self.a)))
        self.weights = np.stack([(steering @ self.a).conj(), steering[:, strongest].conj()]) / n
        self.beam_gains = self.weights @ steering            # (2, M): each beam toward each path
        half = LD(cfg.bandwidth_hz) / 2
        freqs = np.linspace(-half, half, cfg.freq_points)
        self.tones = _phasors(-TWO_PI * np.outer(channel.delays().astype(LD), freqs))  # (M, F)

    def effectiveness(self) -> tuple[int, int]:
        """(paths effective by more than `MARGIN`, paths within it)."""
        amp = np.abs(self.a)
        interference = np.abs(self.beam_gains[0] - self.a.conj())
        close = np.abs(amp - interference) <= MARGIN * np.maximum(amp, interference)
        return int(np.count_nonzero((amp >= interference) & ~close)), int(np.count_nonzero(close))

    def band_snrs(self, blocked: bool = False) -> np.ndarray:
        """(2,) linear band SNRs of the combining and the single beam, on the drawn channel
        or with its blocked path's amplitude set to 0."""
        a = self.a.copy()
        if blocked:
            a[self.blocked] = 0
        response = (self.beam_gains * a) @ self.tones        # (2, F): each tone's output
        noise = (self.weights.real ** 2 + self.weights.imag ** 2).sum(-1)
        return (response.real ** 2 + response.imag ** 2).mean(-1) / noise


def sweep(count: int = 36, seed: int = 20240528) -> list[ExperimentConfig]:
    """``count`` seeded configurations, one path count each. Configuration i takes N from
    index i mod 6, M from (i div 6) mod 4 and F from the sum of those two indices mod 3,
    so the first 24 hold every pair of values of N, M and F. A third of the configurations
    run 257 to 300 trials, which crosses a 256-trial block, and F = 1024 runs few trials,
    its tones being the oracle's largest cost.

    Delay spreads stay at 10 and 100 ns. At F = 2 the tones are B apart, so a pair of
    paths 1 us apart at B = 1 GHz is pi B dtau = 3,100 rad out of phase, and rounding
    that phase in float64 alone moves an SNR by about 1e-12 relative: the sweep's
    blockage SNRs then reach 1.0e-12 from the oracle, and 9e-12 at 5 us."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(count):
        n, m = i % 6, i // 6 % 4
        f = FS[(n + m) % 3]
        if f == 1024:
            trials = int(rng.integers(1, 9))
        else:
            trials = int(rng.integers(257, 301) if i % 4 < 2 else rng.integers(1, 41))
        configs.append(ExperimentConfig(
            n_elements=NS[n], m_values=(MS[m],), freq_points=f, trials=trials,
            spacing_wavelengths=float(rng.choice([0.5, 1.0, 2.0])),
            fov_deg=float(rng.choice([0.0, 60.0, 180.0])),
            delay_max_ns=float(rng.choice([10.0, 100.0])),
            bandwidth_hz=float(rng.choice([2e8, 1e9])), seed=int(rng.integers(1 << 32))))
    return configs
