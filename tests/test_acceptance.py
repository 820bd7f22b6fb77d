"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line through the capture plugin so a plain
pytest run shows the full scoreboard. Reference values are frozen from
the published curves for half-wavelength uniform line arrays; one check
is known not to hold and carries its numeric analysis inline.
"""

import concurrent.futures
import time

import numpy as np
import pytest

from mrcbeam import (ExperimentConfig, FieldOfView, array_factor,
                     component_array_factor, decompose, estimate_array_parameter,
                     interference_term, make_ula, mrc_weights, noise_power,
                     per_antenna_response, run_blockage_experiment,
                     run_effectiveness_sweep, run_snr_sweep, sample_channel,
                     snr_mrc_theory, snr_ratio_theory, snr_single_theory, to_db,
                     trial_rng)
from mrcbeam.cli import main

SEED = 1
SAMPLES = 100_000

# Published array-parameter table: rows N = 2..64, columns FOV = 180/120/60 deg
REFERENCE_TABLE = {
    (2, 180): 0.55, (2, 120): 0.50, (2, 60): 0.69,
    (4, 180): 0.30, (4, 120): 0.26, (4, 60): 0.40,
    (8, 180): 0.17, (8, 120): 0.14, (8, 60): 0.22,
    (16, 180): 0.09, (16, 120): 0.07, (16, 60): 0.12,
    (32, 180): 0.05, (32, 120): 0.04, (32, 60): 0.06,
    (64, 180): 0.03, (64, 120): 0.02, (64, 60): 0.03,
}


@pytest.fixture(scope="module")
def table_estimates():
    """One seeded estimate per table cell, with per-cell wall time."""
    estimates, durations = {}, {}
    for (n, fov_deg) in REFERENCE_TABLE:
        start = time.perf_counter()
        est = estimate_array_parameter(
            make_ula(n, 0.5), FieldOfView.from_degrees(fov_deg), SAMPLES,
            trial_rng(SEED, (n, fov_deg)))
        durations[(n, fov_deg)] = time.perf_counter() - start
        estimates[(n, fov_deg)] = est
    return estimates, durations


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok, detail=""):
        with capsys.disabled():
            tail = f"  ({detail})" if detail else ""
            print(f"[criterion {number}/8] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return _announce


def test_criterion_1_array_parameter_table(table_estimates, announce):
    estimates, durations = table_estimates
    worst = max(abs(estimates[cell].s - ref) for cell, ref in REFERENCE_TABLE.items())
    slowest = max(durations.values())
    ok = worst <= 0.02 and slowest < 10.0
    announce(1, "array parameter table (18 cells, +/-0.02, <10s each)", ok,
             f"worst |diff| {worst:.4f}, slowest cell {slowest:.2f}s")
    for cell, ref in REFERENCE_TABLE.items():
        assert abs(estimates[cell].s - ref) <= 0.02, \
            f"cell {cell}: estimate {estimates[cell].s:.4f} vs table {ref}"
    assert slowest < 10.0


def test_criterion_2_ineffectiveness_theory_spots(table_estimates, announce):
    # Expected values are x/(1+x) with x = (M-1)s at the exact array
    # parameter of a half-wavelength ULA over a 180 degree field of view,
    # s = N^-2 sum_d (N-|d|) J0(pi d)^2 = 0.1659 / 0.0912 / 0.0498 for
    # N = 8 / 16 / 32 (pinned in test_theory). The published curves read
    # 0.4459 / 0.4300 / 0.3756 here because they use s = 0.1609 / 0.0838 /
    # 0.0430; even the exact s misses those values by up to 0.035, so
    # test_theory checks the curves against their own constants instead.
    from mrcbeam import ineffectiveness_probability
    estimates, _ = table_estimates
    spots = [(8, 6, 0.4535), (16, 10, 0.4507), (32, 15, 0.4109)]
    diffs = {}
    for n, m, expected in spots:
        got = ineffectiveness_probability(m, estimates[(n, 180)].s)
        diffs[(n, m)] = abs(got - expected)
    ok = all(d <= 0.02 for d in diffs.values())
    announce(2, "ineffectiveness theory spot values (+/-0.02)", ok,
             ", ".join(f"N={n} M={m} |diff| {d:.4f}" for (n, m), d in diffs.items()))
    for (n, m), d in diffs.items():
        assert d <= 0.02, f"N={n}, M={m}: |diff| {d:.4f} exceeds 0.02"


def test_criterion_3_montecarlo_spot_marks(announce):
    spots = [
        # (n, m, quantity, reference mark, tolerance)
        (8, 8, "p_ineff_empirical", 0.4745, 0.05),
        (16, 15, "count_mean", 7.994, 0.5),
        (32, 10, "count_mean", 7.927, 0.5),
    ]
    results, times, ok = {}, {}, True
    for n, m, column, mark, tol in spots:
        cfg = ExperimentConfig(n_elements=n, m_values=(m,), trials=1000, seed=SEED)
        start = time.perf_counter()
        got = run_effectiveness_sweep(cfg).columns[column][0]
        times[(n, m)] = time.perf_counter() - start
        results[(n, m)] = (got, mark, tol)
        ok = ok and abs(got - mark) <= tol and times[(n, m)] < 60.0
    announce(3, "1000-trial effectiveness marks (+/-0.05 / +/-0.5, <60s)", ok,
             ", ".join(f"N={n} M={m} got {g:.3f} vs {mk}"
                       for (n, m), (g, mk, _) in results.items()))
    for (n, m), (got, mark, tol) in results.items():
        assert abs(got - mark) <= tol, f"N={n}, M={m}: {got:.4f} vs mark {mark}"
        assert times[(n, m)] < 60.0


def test_criterion_4_snr_theory_and_simulation(table_estimates, announce):
    estimates, _ = table_estimates
    s8 = estimates[(8, 180)].s
    s32 = estimates[(32, 180)].s
    theory = {
        "mrc N=8 M=1": (to_db(snr_mrc_theory(8, 1, s8, 1.0)), 12.041),
        "single N=8 M=1": (to_db(snr_single_theory(8, 1, s8, 1.0)), 6.644),
        "single N=8 M=20": (to_db(snr_single_theory(8, 20, s8, 1.0)), 17.317),
        "mrc N=32 M=20": (to_db(snr_mrc_theory(32, 20, s32, 1.0)), 19.760),
    }
    res8 = run_snr_sweep(ExperimentConfig(n_elements=8, m_values=(1,),
                                          trials=1000, seed=SEED))
    res16 = run_snr_sweep(ExperimentConfig(n_elements=16, m_values=(10,),
                                           trials=1000, seed=SEED))
    sim = {
        "sim mrc N=8 M=1": (res8.columns["mrc_sim_db"][0], 9.153),
        "sim single N=8 M=1": (res8.columns["single_sim_db"][0], 9.153),
        "sim mrc N=16 M=10": (res16.columns["mrc_sim_db"][0], 16.088),
    }
    ok = (all(abs(g - e) <= 0.1 for g, e in theory.values())
          and all(abs(g - e) <= 0.5 for g, e in sim.values()))
    announce(4, "SNR sweeps: theory +/-0.1 dB, simulation +/-0.5 dB", ok,
             ", ".join(f"{k} {g:.3f}/{e}" for k, (g, e) in {**theory, **sim}.items()))
    for name, (got, expected) in theory.items():
        assert abs(got - expected) <= 0.1, f"{name}: {got:.3f} dB vs {expected}"
    for name, (got, expected) in sim.items():
        assert abs(got - expected) <= 0.5, f"{name}: {got:.3f} dB vs {expected}"


def test_criterion_5_snr_ratio_convergence(announce):
    gap = abs(snr_ratio_theory(10 ** 5, 0.17) - 1.0)
    ok = gap < 0.01
    announce(5, "beam-kind SNR ratio converges to 1", ok, f"|ratio-1| {gap:.2e} at M=1e5")
    assert ok
    # and the approach is monotone over decades
    gaps = [abs(snr_ratio_theory(10 ** k, 0.17) - 1.0) for k in range(1, 6)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_criterion_6_blockage_percentiles(announce):
    # With M = 20 the blocked path is the strongest one with probability
    # 1/20, but not every such trial collapses the single beam (seed 14:
    # 68 of 1000 trials block the strongest path, yet its 5th percentile
    # is 12.94 dB), so the collapsed mass stays under 5% and the 5th
    # percentile sits in the body of the distribution. There the single
    # beam runs ~1.2 dB above the combining beam (snr_ratio_theory(20, s)
    # ~ 1.31 at N = 8); across seeds 0-23 it leads by 0.13-0.80 dB, so the
    # strict ordering asserted here does not hold. The 1-dB gap at the
    # 1st percentile is robust.
    cfg = ExperimentConfig(n_elements=8, m_values=(20,), trials=1000, seed=SEED)
    res = run_blockage_experiment(cfg)
    mrc = np.asarray(res.samples["mrc"])
    single = np.asarray(res.samples["single"])
    p5_mrc, p5_single = np.percentile(mrc, 5), np.percentile(single, 5)
    p1_mrc, p1_single = np.percentile(mrc, 1), np.percentile(single, 1)
    clause_a = p5_mrc > p5_single
    clause_b = p1_single <= p1_mrc - 1.0
    announce(6, "blockage robustness percentiles", clause_a and clause_b,
             f"5th pct mrc {p5_mrc:.2f} vs single {p5_single:.2f} dB; "
             f"1st pct mrc {p1_mrc:.2f} vs single {p1_single:.2f} dB")
    assert clause_b, "1st-percentile gap below 1 dB"
    assert clause_a, (f"5th percentile: mrc {p5_mrc:.2f} dB does not exceed "
                      f"single {p5_single:.2f} dB")


def test_criterion_7_identity_suite(announce):
    fov = FieldOfView.from_degrees(180)
    rtol = 1e-9
    checked = 0
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 8, 32):
        array = make_ula(n, 0.5)
        for m in (1, 2, 6, 20):
            for _ in range(100):
                channel = sample_channel(m, fov, 100e-9, rng)
                weights = mrc_weights(channel, array)
                conj_a = np.conj(channel.amplitudes())

                # full factor equals the sum of its per-path terms
                probe = fov.direction_at(rng.uniform(-np.pi / 2, np.pi / 2))
                full = array_factor(weights, array, probe)
                split = conj_a @ decompose(channel, array, probe)
                err = abs(full - split) / max(1.0, abs(full))
                worst = max(worst, err)
                assert err <= rtol

                # gain toward each path is its amplitude plus interference
                for h, k in enumerate(channel.direction_matrix()):
                    lhs = array_factor(weights, array, k)
                    rhs = conj_a[h] + interference_term(channel, array, h)
                    err = abs(lhs - rhs) / max(1.0, abs(rhs))
                    worst = max(worst, err)
                    assert err <= rtol

                # sub-beams peak at their own path with unit gain
                k0 = channel.direction_matrix()[0]
                assert abs(component_array_factor(array, k0, k0) - 1.0) <= rtol
                assert abs(component_array_factor(array, k0, probe)) <= 1.0 + rtol

                # no weight vector beats conjugate combining at band center
                h0 = per_antenna_response(channel, array, 0.0)
                best = np.sum(np.abs(h0) ** 2)
                w = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
                ratios = np.abs(w @ h0) ** 2 / np.sum(np.abs(w) ** 2, axis=1)
                assert np.all(ratios <= best * (1.0 + rtol))
                mrc_snr = (abs(weights @ h0) ** 2
                           / noise_power(weights, 1.0))
                assert mrc_snr == pytest.approx(best, rel=rtol)
                checked += 1
    announce(7, "identity suite at 1e-9 relative", True,
             f"{checked} channels, worst identity error {worst:.2e}")


def test_criterion_8_determinism_across_workers(tmp_path, announce, monkeypatch):
    runs = {}
    base = ["snr-sweep", "--elements", "4", "--m-min", "2", "--m-max", "3",
            "--trials", "48", "--freq-points", "64", "--seed", "13"]
    blockage = ["blockage-cdf", "--elements", "4", "--m-paths", "4",
                "--trials", "48", "--freq-points", "64", "--seed", "13"]
    # with this many paths the blockage kernel runs in trial slices of two
    wide = ["blockage-cdf", "--elements", "4", "--m-paths", "128",
            "--trials", "48", "--freq-points", "64", "--seed", "13"]
    # the effectiveness kernel in trial slices of two: 64 elements, 127 and 128 paths
    sliced = ["ineffectiveness", "--elements", "64", "--m-min", "127", "--m-max", "128",
              "--trials", "48", "--seed", "13"]
    # eight blocks: the only case with two blocks per worker, so it runs on a real pool
    pooled = ["blockage-cdf", "--elements", "4", "--m-paths", "4",
              "--trials", "2048", "--freq-points", "64", "--seed", "13"]
    labels = ("snr_csv", "snr_json", "blk_csv", "wide_blk_csv", "sliced_eff_json",
              "pooled_blk_csv")
    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        """The real pool, recording which run started one and of what size."""

        def __init__(self, max_workers=None, **kwargs):
            pools.append((label, workers, max_workers))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    for workers in (1, 4, 16):
        for label, argv, fmt in (("snr_csv", base, "csv"),
                                 ("snr_json", base, "json"),
                                 ("blk_csv", blockage, "csv"),
                                 ("wide_blk_csv", wide, "csv"),
                                 ("sliced_eff_json", sliced, "json"),
                                 ("pooled_blk_csv", pooled, "csv")):
            for attempt in ("a", "b"):
                path = tmp_path / f"{label}_{workers}_{attempt}.{fmt}"
                code = main(argv + ["--workers", str(workers), "--format", fmt,
                                    "--output", str(path)])
                assert code == 0
                runs[(label, workers, attempt)] = path.read_bytes()
    assert pools == [("pooled_blk_csv", w, 4) for w in (4, 4, 16, 16)]
    ok = all(runs[(label, w, "a")] == runs[(label, 1, "a")]
             and runs[(label, w, "b")] == runs[(label, w, "a")]
             for label in labels for w in (1, 4, 16))
    announce(8, "byte-identical output under 1/4/16 workers", ok,
             f"{len(runs)} files compared")
    for label in labels:
        reference = runs[(label, 1, "a")]
        for workers in (1, 4, 16):
            for attempt in ("a", "b"):
                assert runs[(label, workers, attempt)] == reference, \
                    f"{label} differs at workers={workers} attempt={attempt}"
