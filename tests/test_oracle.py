"""The three experiments' block kernels, trial by trial, against `oracle`, which shares
no code with them."""

import numpy as np
import pytest

import oracle
from mrcbeam import montecarlo

CONFIGS = oracle.sweep()


@pytest.mark.parametrize("cfg", CONFIGS, ids=[
    f"n{c.n_elements}-m{c.m_values[0]}-f{c.freq_points}-t{c.trials}" for c in CONFIGS])
def test_kernels_match_the_oracle(cfg):
    (m,) = cfg.m_values
    trials = [oracle.Trial(cfg, t) for t in range(cfg.trials)]

    def run(block_fn):
        return montecarlo._run_trials(block_fn, cfg, cfg.m_values)[m]

    fractions, counts = run(montecarlo._effectiveness_block).T
    sure, close = np.array([trial.effectiveness() for trial in trials]).T
    assert np.all((sure <= counts) & (counts <= sure + close))
    np.testing.assert_array_equal(fractions, (m - counts) / m)
    np.testing.assert_allclose(run(montecarlo._band_block),
                               [trial.band_snrs() for trial in trials], rtol=1e-12, atol=0)
    if m >= 2:
        np.testing.assert_allclose(run(montecarlo._blockage_block),
                                   [trial.band_snrs(blocked=True) for trial in trials],
                                   rtol=1e-12, atol=0)


def test_sweep_covers_every_pair_of_sizes():
    sizes = [(c.n_elements, c.m_values[0], c.freq_points) for c in CONFIGS]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        values = (oracle.NS, oracle.MS, oracle.FS)
        assert {(s[i], s[j]) for s in sizes} == {(x, y) for x in values[i] for y in values[j]}
    assert sum(c.trials > 256 for c in CONFIGS) >= 10
