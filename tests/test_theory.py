import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

import mrcbeam.channel
from mrcbeam import (EULER_GAMMA, AntennaArray, FieldOfView, band_average_gain,
                     conditional_ineffectiveness, effective_count,
                     estimate_array_parameter, exact_array_parameter, harmonic_number,
                     ineffectiveness_probability, interference_term, make_ula, mrc_weights,
                     remove_component, sample_channel, snr_mrc_theory, snr_ratio_theory,
                     snr_single_theory, to_db, trial_rng)
from mrcbeam import theory
from mrcbeam.channel import even_grid

FOV180 = FieldOfView.from_degrees(180)

# Reference theory curves (M = 1..15) for half-wavelength line arrays with a
# 180 degree field of view. Each line is exactly x/(1+x) with x = (M-1)*s for
# a single s, recoverable from the M = 2 point. Those constants (0.1609 /
# 0.0838 / 0.0430) sit below the exact array parameters 0.1659 / 0.0912 /
# 0.0498, so these curves pin the formula, not the geometry.
REFERENCE_PINEFF = {
    8: [0, 0.138639706289139, 0.243518130490934, 0.325628922514186,
        0.391659959786505, 0.445913348680057, 0.491282163482973,
        0.529783647940454, 0.562867325501827, 0.591601590559452,
        0.616791246981877, 0.639054075658631, 0.658872177932519,
        0.676627285016292, 0.692625586178413],
    16: [0, 0.0773367336599728, 0.143570215780615, 0.200931438667614,
         0.251091212064512, 0.295325599403655, 0.334625994787078,
         0.36977431113331, 0.401395533184458, 0.429995205485918,
         0.455986663954789, 0.479711142019143, 0.501452835617012,
         0.521450342511285, 0.539905454683801],
    32: [0, 0.041197742547798, 0.0791352897999713, 0.114184906852673,
         0.146664260816899, 0.176846076257939, 0.204965811599835,
         0.231227814102802, 0.255810293960698, 0.278869373649545,
         0.300542407075465, 0.320950717659222, 0.34020187067001,
         0.358391569689127, 0.375605247792908],
}

REFERENCE_COUNT = {
    8: [1, 1.72272058742172, 2.2694456085272, 2.69748430994326,
        3.04170020106748, 3.32451990791966, 3.56102485561919,
        3.76173081647637, 3.93419407048356, 4.08398409440548,
        4.21529628319936, 4.33135109209643, 4.43466168687725,
        4.52721800977192, 4.61061620732381],
    32: [1, 1.9176045149044, 2.76259413060009, 3.54326037258931,
         4.26667869591551, 4.93892354245237, 5.56523931880115,
         6.15017748717758, 6.69770735435372, 7.21130626350455,
         7.69403352216988, 8.14859138808934, 8.57737568128987,
         8.98251802435222, 9.36592128310637],
}

# Reference SNR curves (dB, M = 1..20) for the 8-element case; both lines
# share one s, recoverable from the M = 2 combining-beam point.
REFERENCE_SNR_MRC_8 = [
    12.0411998265592, 12.3888594776924, 12.7107393870259, 13.0104002861335,
    13.2907126041471, 13.5540241224368, 13.8022796316512, 14.0371081913019,
    14.2598879793924, 14.4717953023562, 14.6738421925294, 14.8669056407577,
    15.0517506025874, 15.229048304666, 15.3993909583787, 15.563303694988,
    15.7212543290523, 15.8736614077191, 16.0209008948075, 16.1633117584455]
REFERENCE_SNR_SINGLE_8 = [
    6.64428095775111, 10.6056149241413, 12.0611311113355, 12.946545026607,
    13.5845222543624, 14.0856620497123, 14.5003237812779, 14.8554638300514,
    15.1671276659695, 15.4456152174477, 15.6979232768723, 15.9290189363739,
    16.1425550782675, 16.3412969009762, 16.5273887248526, 16.7025276921231,
    16.8680807306377, 17.0251656195638, 17.1747085962858, 17.3174861972687]


def _reference_s(n):
    p2 = REFERENCE_PINEFF[n][1]
    return p2 / (1 - p2)


def quad_array_parameter(n, half_angle, spacing=0.5):
    """Quadrature oracle: expand |pair gain|^2 over element index offsets.

    E[|(1/N) sum_n e^{j c n (sin t1 - sin t2)}|^2] with c = 2 pi spacing
    reduces to 1/N + (2/N^2) sum_d (N-d) E[cos(c d sin t)]^2 by independence
    and symmetry of the two angles.
    """
    total = 1.0 / n
    for d in range(1, n):
        c = 2 * np.pi * spacing * d
        val, _ = integrate.quad(lambda t: np.cos(c * np.sin(t)),
                                -half_angle, half_angle, limit=300)
        mean_cos = val / (2 * half_angle)
        total += (2.0 / n ** 2) * (n - d) * mean_cos ** 2
    return total


class TestEstimateArrayParameter:
    def test_single_element_is_exactly_one(self):
        est = estimate_array_parameter(make_ula(1, 0.5), FOV180, 500,
                                       np.random.default_rng(0))
        assert est.s == 1.0
        assert est.stderr == 0.0
        assert est.samples == 500

    def test_two_element_bessel_oracle(self):
        # closed form for N = 2: 1/2 + J0(pi)^2 / 2
        oracle = 0.5 + special.j0(np.pi) ** 2 / 2
        est = estimate_array_parameter(make_ula(2, 0.5), FOV180, 200_000,
                                       np.random.default_rng(1))
        assert abs(est.s - oracle) <= 4 * est.stderr
        assert est.s == pytest.approx(0.55, abs=0.02)

    def test_eight_element_quadrature_oracle(self):
        oracle = quad_array_parameter(8, np.pi / 2)
        est = estimate_array_parameter(make_ula(8, 0.5), FOV180, 100_000,
                                       np.random.default_rng(2))
        assert abs(est.s - oracle) <= 4 * est.stderr
        assert est.s == pytest.approx(0.17, abs=0.02)

    @pytest.mark.parametrize("n,expected", [(8, 0.1659), (16, 0.0912), (32, 0.0498)])
    def test_exact_half_wavelength_constants(self, n, expected):
        # the array parameters behind acceptance criterion 2's spot values
        assert quad_array_parameter(n, np.pi / 2) == pytest.approx(expected, abs=5e-5)

    def test_narrow_fov_quadrature_oracle(self):
        fov = FieldOfView.from_degrees(60)
        oracle = quad_array_parameter(4, np.pi / 6)
        est = estimate_array_parameter(make_ula(4, 0.5), fov, 100_000,
                                       np.random.default_rng(3))
        assert abs(est.s - oracle) <= 4 * est.stderr

    def test_decreasing_in_element_count(self):
        rng = np.random.default_rng(4)
        estimates = [estimate_array_parameter(make_ula(n, 0.5), FOV180, 50_000, rng)
                     for n in (2, 4, 8, 16, 32, 64)]
        for a, b in zip(estimates, estimates[1:]):
            assert a.s - b.s > -2 * math.hypot(a.stderr, b.stderr)
            assert a.s > b.s  # margins are far wider than the noise here

    @pytest.mark.parametrize("samples", [0, theory.MAX_SAMPLES + 1])
    def test_sample_count_out_of_range_refused_before_drawing(self, samples):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="samples"):
            estimate_array_parameter(make_ula(2, 0.5), FOV180, samples, rng)
        assert rng.bit_generator.state == state

    def test_chunk_sliced_by_element_count_gives_the_same_bytes(self, monkeypatch):
        # a chunk's gains fill in column slices; the slice width changes no value
        arr, rng_seed = make_ula(8, 0.5), 6
        whole = estimate_array_parameter(arr, FOV180, 3000, np.random.default_rng(rng_seed))
        monkeypatch.setattr(mrcbeam.channel, "_KERNEL_SLICE", 8 * 7)
        sliced = estimate_array_parameter(arr, FOV180, 3000, np.random.default_rng(rng_seed))
        assert (sliced.s, sliced.stderr) == (whole.s, whole.stderr)


class TestExactArrayParameter:
    @pytest.mark.parametrize("n,fov_deg", [(8, 180), (16, 180), (32, 180), (64, 180),
                                           (4, 60)])
    def test_matches_scipy_oracle(self, n, fov_deg):
        oracle = quad_array_parameter(n, np.radians(fov_deg) / 2)
        got = exact_array_parameter(make_ula(n, 0.5), FieldOfView.from_degrees(fov_deg))
        assert got == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,spacing", [(2, 0.5), (64, 0.5), (1024, 0.5), (4096, 0.5),
                                           (300, 1.0), (16, 2.0)])
    def test_line_matches_bessel_oracle(self, n, spacing):
        # over a 180 degree field of view the lag-l moment E[cos(2 pi l d sin t)] is
        # J0(2 pi l d), so s = N^-2 [N + 2 sum_l (N - l) J0(2 pi l d)^2] in closed form
        lags = np.arange(1, n)
        oracle = (n + 2.0 * np.sum((n - lags) * special.j0(2 * np.pi * lags * spacing) ** 2))
        got = exact_array_parameter(make_ula(n, spacing), FOV180)
        assert got == pytest.approx(oracle / n ** 2, rel=1e-13, abs=0)

    def test_tabulated_rule_is_numpys_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert theory._GAUSS_NODES.tobytes() == nodes.tobytes()
        assert theory._GAUSS_WEIGHTS.tobytes() == weights.tobytes()

    def test_single_element_and_single_direction_are_exactly_one(self):
        assert exact_array_parameter(make_ula(1, 0.5), FOV180) == 1.0
        assert exact_array_parameter(make_ula(8, 0.5), FieldOfView(0.0)) == 1.0

    def test_planar_grid_matches_monte_carlo(self):
        # 3 x 3 grid in a plane through y, turned 45 degrees about y so that the
        # sector, in the x-y plane, reaches both grid axes
        c = 0.5 / np.sqrt(2.0)
        grid = AntennaArray([[c * (i + k), 0.0, c * (k - i)] for i in range(3) for k in range(3)])
        fov = FieldOfView(np.pi / 3)
        est = estimate_array_parameter(grid, fov, 200_000, np.random.default_rng(8))
        assert abs(exact_array_parameter(grid, fov) - est.s) <= 4 * est.stderr

    def test_converged_at_its_panel_count(self):
        array = make_ula(64, 0.5)
        s = exact_array_parameter(array, FOV180)
        panels = math.ceil(2 * np.pi * 31.5 * np.pi / theory._PANEL_PHASE)
        doubled = theory._array_parameter_by_lags(64, 0.5, FOV180, 2 * panels)
        assert s == theory._array_parameter_by_lags(64, 0.5, FOV180, panels)
        assert abs(s - doubled) <= 1e-13 * doubled

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 64, 256])
    @pytest.mark.parametrize("spacing", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("fov_deg", [60, 120, 180])
    def test_line_by_lags_matches_all_pairs(self, n, spacing, fov_deg):
        # the O(N Q) lag form against the O(N^2 Q) sum over every element pair
        array, fov = make_ula(n, spacing), FieldOfView.from_degrees(fov_deg)
        panels = math.ceil(2 * np.pi * (n - 1) * spacing * 2 * fov.half_angle
                           / theory._PANEL_PHASE) or 1
        pairs = theory._array_parameter_by_panels(array, fov, panels)
        lags = theory._array_parameter_by_lags(n, spacing, fov, panels)
        assert lags == pytest.approx(pairs, rel=1e-14, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 on this platform")
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_line_by_lags_matches_long_double_oracle(self, n):
        # The same float64 nodes and weights, and the same lag split l = a B + b, in long
        # double. Each float64 phase 2 pi l d sin(theta) rounds pi, sin(theta) and two
        # products, a relative error of at most 2.5 eps. A common relative phase error
        # acts as a change of spacing; at d = 1/2 over 180 degrees, s N^2 = N + 2 sum
        # (N - l) J0(pi l)^2 and J0 J1(pi l) ~ -1 / (pi^2 l), so d ln s / d ln d ~ 2 / (pi s)
        # <= 2 N / pi, as s >= 1 / N. That bounds the error by 1.6 N eps; the cos and sin
        # ulps and the sums over nodes are independent roundings, smaller still.
        ld, fov = np.longdouble, FOV180
        panels = math.ceil(2 * np.pi * (n - 1) * 0.5 * 2 * fov.half_angle
                           / theory._PANEL_PHASE)
        two_pi = 8 * np.arctan(ld(1))
        fine = math.isqrt(n - 1) + 1
        coarse_lags = np.arange(0, n, fine).astype(ld) * ld(0.5)
        fine_lags = np.arange(fine).astype(ld) * ld(0.5)
        moments = np.zeros((coarse_lags.size, fine), dtype=ld)
        for theta, w in theory._panel_nodes(fov, panels, coarse_lags.size + fine):
            kx, w = np.sin(theta.astype(ld)), w.astype(ld)
            coarse = two_pi * np.multiply.outer(coarse_lags, kx)
            fine_phase = two_pi * np.multiply.outer(fine_lags, kx)
            moments += ((np.cos(coarse) * w) @ np.cos(fine_phase).T
                        - (np.sin(coarse) * w) @ np.sin(fine_phase).T)
        c = moments.ravel()[:n]
        oracle = (n * c[0] ** 2 + 2 * np.sum((n - np.arange(1, n)) * c[1:] ** 2)) / ld(n) ** 2
        got = theory._array_parameter_by_lags(n, 0.5, fov, panels)
        assert abs(ld(got) - oracle) <= 2 * n * np.finfo(float).eps * oracle

    @pytest.mark.parametrize("n", [2, 8, 16, 32, 64])
    @pytest.mark.parametrize("fov_deg", [60, 120, 180])
    def test_small_lines_fit_in_one_slice(self, n, fov_deg, monkeypatch):
        # a slice as large as the whole rule changes no byte of s up to 64 elements
        array, fov = make_ula(n, 0.5), FieldOfView.from_degrees(fov_deg)
        sliced = exact_array_parameter(array, fov)
        monkeypatch.setattr(mrcbeam.channel, "_KERNEL_SLICE", 1 << 40)
        assert exact_array_parameter(array, fov) == sliced

    def test_pair_form_memory_is_bounded_by_the_slice_budget(self):
        # At N = 64 a slice is 16 panels of (N, 512) phasors, 2^15 of them; the form holds
        # them, their weighted copy and their conjugate. 128 panels at once took 12 MiB.
        line = make_ula(64, 0.5)
        nudged = line.positions.copy()
        nudged[-1, 0] += 1e-12
        array = AntennaArray(nudged)
        s = theory._array_parameter_by_panels(array, FOV180, 128)
        tracemalloc.start()
        try:
            assert theory._array_parameter_by_panels(array, FOV180, 128) == s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * mrcbeam.channel._KERNEL_SLICE

    def test_only_an_exact_line_takes_the_lag_form(self, monkeypatch):
        # which arrays are exact lines is tested on AntennaArray.ula_spacing
        line = make_ula(5, 0.5)
        nudged = line.positions.copy()
        nudged[-1, 0] += 1e-12
        by_lags, lines = theory._array_parameter_by_lags, []
        monkeypatch.setattr(theory, "_array_parameter_by_lags",
                            lambda *args: lines.append(args[:2]) or by_lags(*args))
        # any other array keeps the sum over every pair
        assert exact_array_parameter(AntennaArray(nudged), FOV180) == pytest.approx(
            exact_array_parameter(line, FOV180), rel=1e-9)
        assert lines == [(5, 0.5), (5, 0.5)]

    def test_too_wide_array_rejected(self):
        with pytest.raises(ValueError, match="too wide"):
            exact_array_parameter(make_ula(8, 1e6), FOV180)


class TestConditionalIneffectiveness:
    def test_zero_amplitude_is_certain(self):
        assert conditional_ineffectiveness(0.0, 5, 0.2) == 1.0

    def test_single_path_is_never_ineffective(self):
        for z in (0.0, 0.5, 10.0):
            assert conditional_ineffectiveness(z, 1, 0.2) == 0.0

    def test_unit_exponent_point(self):
        m, s = 7, 0.13
        z = math.sqrt((m - 1) * s)
        assert conditional_ineffectiveness(z, m, s) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_decreasing_in_amplitude(self):
        vals = [conditional_ineffectiveness(z, 6, 0.17) for z in np.linspace(0, 3, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            conditional_ineffectiveness(-0.1, 4, 0.2)


class TestIneffectivenessProbability:
    def test_single_path(self):
        assert ineffectiveness_probability(1, 0.5) == 0.0

    @pytest.mark.parametrize("n,m,expected", [(8, 6, 0.4459), (16, 10, 0.4300),
                                              (32, 15, 0.3756)])
    def test_reference_spot_values(self, n, m, expected):
        got = ineffectiveness_probability(m, _reference_s(n))
        assert got == pytest.approx(expected, abs=5e-5)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_reference_line_reproduces_from_single_point(self, n):
        s = _reference_s(n)
        for m, expected in zip(range(1, 16), REFERENCE_PINEFF[n]):
            assert ineffectiveness_probability(m, s) == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_bounded(self):
        vals = [ineffectiveness_probability(m, 0.17) for m in range(1, 60)]
        assert all(0 <= v < 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert ineffectiveness_probability(5, 0.3) > ineffectiveness_probability(5, 0.2)


class TestEffectiveCount:
    def test_single_path(self):
        assert effective_count(1, 0.9) == 1.0

    @pytest.mark.parametrize("n,m,expected", [(8, 15, 4.6106), (32, 15, 9.3659)])
    def test_reference_spot_values(self, n, m, expected):
        assert effective_count(m, _reference_s(n)) == pytest.approx(expected, abs=5e-5)

    @pytest.mark.parametrize("n", [8, 32])
    def test_reference_line_reproduces(self, n):
        s = _reference_s(n)
        for m, expected in zip(range(1, 16), REFERENCE_COUNT[n]):
            assert effective_count(m, s) == pytest.approx(expected, abs=1e-12)

    def test_bounds_and_equality_condition(self):
        for m in (1, 2, 10, 40):
            for s in (0.0, 0.05, 0.5, 1.0):
                c = effective_count(m, s)
                assert 1.0 <= c <= m
                if s == 0.0 or m == 1:
                    assert c == m
                else:
                    assert c < m


class TestSnrTheory:
    def test_mrc_single_path_reads_3db_high(self):
        # ratio-of-averages artifact: 2N instead of the true narrowband N
        for n in (2, 8, 32):
            assert snr_mrc_theory(n, 1, 0.4, 1.0) == pytest.approx(2 * n, rel=1e-12)
        assert to_db(snr_mrc_theory(8, 1, 0.17, 1.0)) == pytest.approx(12.041, abs=1e-3)

    def test_noise_scaling(self):
        base = snr_mrc_theory(8, 5, 0.17, 1.0)
        assert snr_mrc_theory(8, 5, 0.17, np.sqrt(2.0)) == pytest.approx(base / 2, rel=1e-12)

    @pytest.mark.parametrize("sigma0", [1e200, 1e-200, 5e-324, float("inf")])
    @pytest.mark.parametrize("snr", [snr_mrc_theory, snr_single_theory])
    def test_sigma_without_finite_nonzero_snr_rejected(self, snr, sigma0):
        with pytest.raises(ValueError, match="sigma0"):
            snr(8, 6, 0.16, sigma0)

    @pytest.mark.parametrize("snr", [snr_mrc_theory, snr_single_theory])
    def test_overflow_names_its_cause(self, snr):
        # N / sigma0^2 = 8 is finite: only the gain (M-1)s = 9.5e307 makes the SNR overflow
        with pytest.raises(ValueError, match=r"^SNR overflows: N / sigma0\^2 = 8 times gain "):
            snr(8, 20, 5e306, 1.0)
        with pytest.raises(ValueError, match=r"^sigma0 must be positive .* got 1e-160$"):
            snr(8, 20, 0.1, 1e-160)

    @pytest.mark.parametrize("sigma0", [0.7, 1.0, 3.3])
    def test_values_at_ordinary_sigma(self, sigma0):
        assert snr_mrc_theory(8, 6, 0.16, sigma0) == (8 / sigma0 ** 2) * (2.0 + 5 * 0.16)
        assert snr_single_theory(8, 6, 0.16, sigma0) == \
            (8 / sigma0 ** 2) * (math.log(6) + EULER_GAMMA + 5 * 0.16)

    def test_reference_mrc_line(self):
        s = 10 ** (REFERENCE_SNR_MRC_8[1] / 10) / 8 - 2
        for m, expected in zip(range(1, 21), REFERENCE_SNR_MRC_8):
            assert to_db(snr_mrc_theory(8, m, s, 1.0)) == pytest.approx(expected, abs=1e-9)

    def test_single_beam_asymptotic_at_one_path(self):
        got = snr_single_theory(8, 1, 0.17, 1.0)
        assert got == pytest.approx(8 * EULER_GAMMA, rel=1e-12)
        assert to_db(got) == pytest.approx(6.644, abs=1e-3)

    def test_single_beam_reference_point(self):
        s16 = 10 ** (15.2464576775925 / 10) / 16 - 2  # from the 16-element line
        got = to_db(snr_single_theory(16, 10, s16, 1.0))
        assert got == pytest.approx(17.73, abs=5e-3)

    def test_reference_single_line(self):
        s = 10 ** (REFERENCE_SNR_MRC_8[1] / 10) / 8 - 2
        for m, expected in zip(range(1, 21), REFERENCE_SNR_SINGLE_8):
            assert to_db(snr_single_theory(8, m, s, 1.0)) == pytest.approx(expected, abs=1e-9)


class TestSnrRatio:
    def test_single_path_value(self):
        assert snr_ratio_theory(1, 0.17) == pytest.approx(EULER_GAMMA / 2, rel=1e-12)
        assert snr_ratio_theory(1, 0.17) == pytest.approx(0.2886, abs=1e-4)

    def test_limit_reaches_one(self):
        assert abs(snr_ratio_theory(10 ** 6, 0.17) - 1.0) < 1e-3

    def test_equals_quotient_of_snrs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(1, 100))
            sigma0 = float(rng.uniform(0.1, 4.0))
            m = int(rng.integers(1, 40))
            s = float(rng.uniform(0.01, 0.9))
            quotient = (snr_single_theory(n, m, s, sigma0)
                        / snr_mrc_theory(n, m, s, sigma0))
            assert snr_ratio_theory(m, s) == pytest.approx(quotient, rel=1e-12)


# every closed form in (M - 1)s, called at M = 6 with array parameter s
CLOSED_FORMS = {
    "conditional_ineffectiveness": lambda s: conditional_ineffectiveness(0.5, 6, s),
    "ineffectiveness_probability": lambda s: ineffectiveness_probability(6, s),
    "effective_count": lambda s: effective_count(6, s),
    "snr_mrc_theory": lambda s: snr_mrc_theory(8, 6, s, 1.0),
    "snr_single_theory": lambda s: snr_single_theory(8, 6, s, 1.0),
    "snr_ratio_theory": lambda s: snr_ratio_theory(6, s),
}


class TestArrayParameterCheck:
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    @pytest.mark.parametrize("s", [-0.1, math.nan, math.inf, 1e308])   # 1e308: (M-1)s overflows
    def test_negative_or_non_finite_s_rejected(self, name, s):
        with pytest.raises(ValueError, match="array parameter"):
            CLOSED_FORMS[name](s)

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_s_above_one_accepted(self, name):
        # a Monte Carlo estimate at N = 1 can round to just above 1
        assert math.isfinite(CLOSED_FORMS[name](1.0 + 1e-15))

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            conditional_ineffectiveness(math.nan, 6, 0.2)


# every closed form in (M - 1)s, called with path count m at s = 0.2
CLOSED_FORMS_IN_M = {
    "conditional_ineffectiveness": lambda m: conditional_ineffectiveness(0.5, m, 0.2),
    "ineffectiveness_probability": lambda m: ineffectiveness_probability(m, 0.2),
    "effective_count": lambda m: effective_count(m, 0.2),
    "snr_mrc_theory": lambda m: snr_mrc_theory(8, m, 0.2, 1.0),
    "snr_single_theory": lambda m: snr_single_theory(8, m, 0.2, 1.0),
    "snr_ratio_theory": lambda m: snr_ratio_theory(m, 0.2),
}


class TestPathCountCheck:
    @pytest.mark.parametrize("name", CLOSED_FORMS_IN_M)
    @pytest.mark.parametrize("m", [2.5, 6.0, True, np.True_, "6", None])
    def test_non_integer_path_count_rejected(self, name, m):
        with pytest.raises(ValueError, match="m_paths must be an integer"):
            CLOSED_FORMS_IN_M[name](m)

    @pytest.mark.parametrize("name", CLOSED_FORMS_IN_M)
    def test_numpy_integer_equals_int(self, name):
        assert CLOSED_FORMS_IN_M[name](np.int64(6)) == CLOSED_FORMS_IN_M[name](6)


_CHANNEL = sample_channel(3, FOV180, 1e-7, np.random.default_rng(1))

# (argument name, call with that argument set to the value, giving an array or a number)
# for every count and index beyond those of the closed forms
INTEGER_ARGUMENTS = {
    "make_ula": ("n_elements", lambda n: make_ula(n, 0.5).positions),
    "sample_channel": ("m_paths", lambda m: sample_channel(
        m, FOV180, 1e-7, np.random.default_rng(2)).direction_matrix()),
    "sample_channel-block": ("m_paths", lambda m: sample_channel(
        m, FOV180, 1e-7, [np.random.default_rng(2), np.random.default_rng(3)])[1]),
    "remove_component": ("index", lambda i: remove_component(_CHANNEL, i).amplitudes()),
    "interference_term": ("h", lambda h: interference_term(_CHANNEL, make_ula(4, 0.5), h)),
    "even_grid": ("n", lambda n: even_grid(-1.0, 1.0, n).tone_sum(np.ones(1), np.ones(1))),
    "band_average_gain": ("freq_points", lambda f: band_average_gain(
        mrc_weights(_CHANNEL, make_ula(4, 0.5)), _CHANNEL, make_ula(4, 0.5), 1e9, f)),
    "trial_rng-seed": ("seed", lambda seed: trial_rng(seed, (1, 2)).random(4)),
    "trial_rng-index": ("trial_index", lambda t: trial_rng(5, t).random(4)),
    "trial_rng-index-element": ("trial_index", lambda t: trial_rng(5, (1, t)).random(4)),
}


class TestIntegerArguments:
    """Every count and index is checked by `geometry._integer`."""

    BAD = [2.5, 8.0, True, np.True_, "8", None]

    @pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
    @pytest.mark.parametrize("bad", [*BAD, 2.9])     # trial_rng once drew stream 2 for 2.9
    def test_non_integer_refused_by_name(self, call, bad):
        name, fn = INTEGER_ARGUMENTS[call]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            fn(bad)

    @pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_gives_the_same_result(self, call, kind):
        fn = INTEGER_ARGUMENTS[call][1]
        assert np.array_equal(fn(kind(2)), fn(2))

    @pytest.mark.parametrize("n", BAD)
    def test_snr_mrc_theory_element_count(self, n):
        with pytest.raises(ValueError, match="n_elements must be an integer"):
            snr_mrc_theory(n, 6, 0.1, 1.0)

    @pytest.mark.parametrize("n", BAD)
    def test_snr_single_theory_element_count(self, n):
        with pytest.raises(ValueError, match="n_elements must be an integer"):
            snr_single_theory(n, 6, 0.1, 1.0)

    @pytest.mark.parametrize("m", BAD)
    def test_harmonic_number_argument(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            harmonic_number(m)

    @pytest.mark.parametrize("samples", BAD)
    def test_estimate_sample_count(self, samples):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="samples must be an integer"):
            estimate_array_parameter(make_ula(2, 0.5), FOV180, samples, rng)
        assert rng.bit_generator.state == state

    def test_numpy_integers_equal_ints(self):
        assert snr_mrc_theory(np.int64(8), 6, 0.1, 1.0) == snr_mrc_theory(8, 6, 0.1, 1.0)
        assert snr_single_theory(np.int32(8), 6, 0.1, 1.0) == snr_single_theory(8, 6, 0.1, 1.0)
        assert harmonic_number(np.uint8(4)) == harmonic_number(4)
        arr = make_ula(2, 0.5)
        assert (estimate_array_parameter(arr, FOV180, np.int64(10), np.random.default_rng(5))
                == estimate_array_parameter(arr, FOV180, 10, np.random.default_rng(5)))


class TestHarmonicNumber:
    def test_small_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25 / 12, rel=1e-15)

    def test_asymptotic_agreement(self):
        m = 10_000
        assert harmonic_number(m) == pytest.approx(math.log(m) + EULER_GAMMA, abs=1e-4)

    def test_gap_to_asymptote_shrinks(self):
        gaps = [abs(harmonic_number(m) - (math.log(m) + EULER_GAMMA))
                for m in (1, 3, 10, 100, 1000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(0)

    def test_mean_of_maximum_exponential_oracle(self):
        # the strongest of M unit-mean exponential powers has mean H_M
        rng = np.random.default_rng(7)
        for m in (2, 5, 12):
            draws = rng.exponential(size=(100_000, m)).max(axis=1)
            stderr = draws.std(ddof=1) / np.sqrt(draws.size)
            assert abs(draws.mean() - harmonic_number(m)) <= 3 * stderr
