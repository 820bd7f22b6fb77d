import concurrent.futures
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mrcbeam
import mrcbeam.cli
from mrcbeam import ArrayParameterEstimate, channel_from_json, output
from mrcbeam.cli import main, parse_args
from mrcbeam.output import parse_frequency, write_csv


class TestParseArgs:
    def test_array_param_flags(self):
        args = parse_args(["array-param", "--elements", "8", "--fov-deg", "180",
                           "--samples", "100000", "--seed", "1"])
        assert args.command == "array-param"
        assert (args.elements, args.fov_deg, args.samples, args.seed) == (8, 180.0, 100000, 1)

    def test_snr_sweep_flags(self):
        args = parse_args(["snr-sweep", "--elements", "16", "--m-max", "20",
                           "--trials", "1000", "--seed", "7"])
        assert args.command == "snr-sweep"
        assert (args.elements, args.m_max, args.trials, args.seed) == (16, 20, 1000, 7)

    def test_beam_pattern_flags(self):
        args = parse_args(["beam-pattern", "--channel-file", "ch.json",
                           "--grid-deg", "0.5"])
        assert args.channel_file == "ch.json" and args.grid_deg == 0.5

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["array-param", "--bogus", "3"])
        assert exc.value.code != 0

    def test_missing_required_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["beam-pattern"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("argv", [
        ["array-param", "--trials", "5"],
        ["array-param", "--workers", "2"],
        ["beam-pattern", "--channel-file", "ch.json", "--seed", "1"],
        ["beam-pattern", "--channel-file", "ch.json", "--trials", "5"],
        ["beam-pattern", "--channel-file", "ch.json", "--workers", "2"],
        ["beam-pattern", "--channel-file", "ch.json", "--fov-deg", "120"],
        ["dump-channel", "--trials", "5"],
        ["dump-channel", "--workers", "2"],
        ["dump-channel", "--format", "json"],
        ["dump-channel", "--elements", "8"],
        ["dump-channel", "--spacing", "0.5"],
    ])
    def test_flag_the_command_ignores_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code != 0

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code != 0

    @pytest.mark.parametrize("command", ["array-param", "ineffectiveness", "effective-components",
                                         "snr-sweep", "blockage-cdf", "beam-pattern",
                                         "dump-channel"])
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith(f"usage: mrcbeam {command} [-h]")


class TestParseFrequency:
    @pytest.mark.parametrize("text,expected", [
        ("1GHz", 1e9), ("500MHz", 5e8), ("10kHz", 1e4), ("250Hz", 250.0),
        ("1e9", 1e9), (" 2.5 GHz ", 2.5e9),
    ])
    def test_accepted(self, text, expected):
        assert parse_frequency(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["fast", "3furlongs", "GHz", ""])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_frequency(text)


class TestCsvWriter:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(["m", "theory", "empirical", "stderr"], [], str(path))
        assert path.read_text() == "m,theory,empirical,stderr\n"

    def test_array_rows_cross_chunks(self, tmp_path):
        # rows stream from the arrays a slice of rows at a time, as Python floats
        x = np.linspace(-1.0, 1.0, 2 * (mrcbeam.channel._KERNEL_SLICE // 2) + 3)
        path = tmp_path / "rows.csv"
        write_csv(["x", "y"], output.array_rows(x, x / 3), str(path))
        assert path.read_text() == "x,y\n" + "".join(f"{v!r},{v / 3!r}\n" for v in x.tolist())


class TestCommands:
    def test_array_param_csv_schema(self, capsys):
        assert main(["array-param", "--elements", "4", "--samples", "2000",
                     "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_elements,fov_deg,s,stderr,samples"
        n, fov, s, err, samples = lines[1].split(",")
        assert (int(n), float(fov), int(samples)) == (4, 180.0, 2000)
        assert 0.0 < float(s) < 1.0 and float(err) > 0.0

    def test_ineffectiveness_csv_schema(self, capsys):
        assert main(["ineffectiveness", "--elements", "4", "--m-min", "2",
                     "--m-max", "4", "--trials", "30", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,theory,empirical,stderr"
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4"]
        for row in lines[1:]:
            for v in row.split(",")[1:]:
                assert np.isfinite(float(v))

    def test_effective_components_csv_schema(self, capsys):
        assert main(["effective-components", "--elements", "4", "--m-min", "1",
                     "--m-max", "2", "--trials", "20", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,theory,empirical,stderr"
        first = lines[1].split(",")
        assert first[1] == "1.0" and first[2] == "1.0"  # M=1 is always fully used

    def test_snr_sweep_csv_schema(self, capsys):
        assert main(["snr-sweep", "--elements", "2", "--m-min", "1", "--m-max", "2",
                     "--trials", "15", "--freq-points", "32", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,mrc_theory_db,mrc_sim_db,single_theory_db,single_sim_db"
        assert len(lines) == 3

    def test_blockage_csv_rows_per_sample(self, capsys):
        trials = 12
        assert main(["blockage-cdf", "--elements", "2", "--m-paths", "3",
                     "--trials", str(trials), "--freq-points", "32", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beam_kind,snr_db"
        kinds = [row.split(",")[0] for row in lines[1:]]
        assert kinds == ["mrc"] * trials + ["single"] * trials
        for kind in ("mrc", "single"):
            vals = [float(r.split(",")[1]) for r in lines[1:] if r.startswith(kind)]
            assert vals == sorted(vals)

    def test_dump_channel_round_trip(self, tmp_path, capsys):
        out = tmp_path / "ch.json"
        assert main(["dump-channel", "--m-paths", "5", "--seed", "9",
                     "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        ch = channel_from_json(record)
        assert ch.m_paths == 5
        np.testing.assert_allclose(np.linalg.norm(ch.direction_matrix(), axis=1), 1.0,
                                   rtol=0, atol=1e-9)

    # 7, 100, 200 and 359 put -90 + i * step past +90 but within the grid's half-step margin
    @pytest.mark.parametrize("grid_deg, n_rows",
                             [("1.0", 181), ("7", 26), ("100", 2), ("200", 1), ("359", 1)])
    def test_beam_pattern_from_dumped_channel(self, tmp_path, capsys, grid_deg, n_rows):
        ch_file = tmp_path / "ch.json"
        assert main(["dump-channel", "--m-paths", "3", "--seed", "4",
                     "--output", str(ch_file)]) == 0
        out_file = tmp_path / "pattern.csv"
        assert main(["beam-pattern", "--channel-file", str(ch_file),
                     "--elements", "8", "--grid-deg", grid_deg,
                     "--output", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "theta_deg,gain_db"
        assert len(lines) == 1 + n_rows
        for row in lines[1:]:
            theta, gain = map(float, row.split(","))
            assert -90.0 <= theta <= 90.0 and np.isfinite(gain)

    @pytest.mark.parametrize("grid_deg, last", [("0.3", 90.0), (repr(180 / 7), 90.0),
                                                ("1.1", -90.0 + 163 * 1.1)])
    def test_beam_pattern_angles_carry_no_accumulated_rounding(self, tmp_path, grid_deg, last):
        path, out_file = tmp_path / "ch.json", tmp_path / "pattern.csv"
        path.write_text(json.dumps({"components": [_GOOD_COMPONENT]}))
        assert main(["beam-pattern", "--channel-file", str(path), "--grid-deg", grid_deg,
                     "--output", str(out_file)]) == 0
        thetas = [float(row.split(",")[0])
                  for row in out_file.read_text().strip().splitlines()[1:]]
        step = float(grid_deg)
        assert thetas == [min(-90.0 + i * step, 90.0) for i in range(len(thetas))]
        assert thetas[-1] == last and len(thetas) == int(180.0 / step) + 1

    def test_json_output_echoes_config(self, capsys):
        assert main(["ineffectiveness", "--elements", "4", "--m-min", "2",
                     "--m-max", "2", "--trials", "10", "--seed", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "ineffectiveness"
        assert payload["config"]["n_elements"] == 4
        assert payload["config"]["seed"] == 5
        assert payload["config"]["m_values"] == [2]
        assert "config_digest" in payload["run"] and "version" in payload["run"]
        assert "columns" in payload["results"]

    def test_missing_channel_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["beam-pattern", "--channel-file", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_frequency_fails_cleanly(self, capsys):
        code = main(["snr-sweep", "--elements", "2", "--m-max", "2",
                     "--trials", "5", "--bandwidth", "fast"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_m_range_fails_cleanly(self, capsys):
        code = main(["ineffectiveness", "--elements", "2", "--m-min", "5",
                     "--m-max", "2", "--trials", "5"])
        assert code == 1

    def test_m_min_refused_before_the_sweep_is_built(self, capsys):
        # a sweep from -2,000,000 to 20 took 92 MiB when it was built before the check
        tracemalloc.start()
        try:
            line = _fails_with_one_error_line(["snr-sweep", "--m-min=-2000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "--m-min must be >= 1" in line
        assert peak < 2 << 20


_GOOD_COMPONENT = {"re": 1.0, "im": 0.0, "kx": 0.0, "ky": 1.0, "kz": 0.0, "delay_ns": 5.0}


def _fails_with_one_error_line(argv, capsys) -> str:
    """Run ``argv``, check it fails with one error line and no warning; return the line."""
    # outside pytest a warning prints lines of its own, so here it must fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mrcbeam: error: ")
    return err[0]


class TestBadInput:
    @pytest.mark.parametrize("flags", [
        ["--sigma0", "0"], ["--bandwidth", "1e400"], ["--delay-max-ns", "1e400"],
        ["--delay-max-ns", "1e308"],            # finite delay, the tone phases overflow
    ])
    def test_bad_experiment_config(self, flags, capsys):
        _fails_with_one_error_line(["snr-sweep", "--elements", "2", "--m-max", "2",
                                    "--trials", "3", "--freq-points", "8", *flags], capsys)

    @pytest.mark.parametrize("argv", [
        ["array-param", "--samples", "10"],
        ["ineffectiveness", "--m-max", "2", "--trials", "3"],
        ["snr-sweep", "--m-max", "2", "--trials", "3", "--freq-points", "8"],
        ["blockage-cdf", "--m-paths", "2", "--trials", "3", "--freq-points", "8"],
        ["dump-channel"],
    ])
    @pytest.mark.parametrize("fov_deg", ["400", "-10", "nan"])
    def test_bad_fov_names_the_flag(self, argv, fov_deg, capsys):
        # the half angle in radians was reported, for a flag given in degrees
        line = _fails_with_one_error_line([*argv, "--fov-deg", fov_deg], capsys)
        assert line == (f"mrcbeam: error: fov_deg must be in [0, 180] degrees, "
                        f"got {float(fov_deg)}")

    @pytest.mark.parametrize("record", [
        [1],                                                   # top level not an object
        {},                                                    # no components
        {"components": {"re": 1.0}},                           # components not a list
        {"components": [1.0]},                                 # component not an object
        {"components": [dict(_GOOD_COMPONENT, re="1.0")]},     # non-numeric field
        {"components": [dict(_GOOD_COMPONENT, re=True)]},      # boolean field
        {"components": [dict(_GOOD_COMPONENT, re=float("nan"))]},
        {"components": [dict(_GOOD_COMPONENT, delay_ns=float("inf"))]},
        {"components": [{k: v for k, v in _GOOD_COMPONENT.items() if k != "kz"}]},
    ])
    def test_bad_channel_json(self, record, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(record))
        _fails_with_one_error_line(["beam-pattern", "--channel-file", str(path)], capsys)

    @pytest.mark.parametrize("text", ["[" * 200_000, "[" * 200_000 + "]" * 200_000, "{"],
                             ids=["deep-open", "deep-closed", "truncated"])
    def test_bad_channel_text(self, text, tmp_path, capsys):
        # the json module recurses once per nesting level; too deep a file is bad input
        path = tmp_path / "ch.json"
        path.write_text(text)
        _fails_with_one_error_line(["beam-pattern", "--channel-file", str(path)], capsys)

    @pytest.mark.parametrize("component, message", [
        (dict(_GOOD_COMPONENT, kx=0.0, ky=0.0), "cannot normalize a zero or non-finite vector"),
        (dict(_GOOD_COMPONENT, delay_ns=-1.0), "'delay_ns' must be >= 0, got -1.0"),
    ], ids=["zero-direction", "negative-delay"])
    def test_bad_channel_component_is_named(self, component, message, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"components": [_GOOD_COMPONENT, component]}))
        line = _fails_with_one_error_line(["beam-pattern", "--channel-file", str(path)], capsys)
        assert line == f"mrcbeam: error: channel component 1: {message}"

    # the gains would be inf, or nan after overflow warnings, without the amplitude bound
    @pytest.mark.parametrize("components", [
        [dict(_GOOD_COMPONENT, re=1e200)],
        [dict(_GOOD_COMPONENT, re=1e308, im=1e308)] * 2,
    ], ids=["inf-gains", "nan-gains"])
    def test_beam_pattern_refuses_non_finite_gains(self, components, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"components": components}))
        line = _fails_with_one_error_line(["beam-pattern", "--channel-file", str(path)], capsys)
        assert "too large for a finite beam pattern" in line

    def test_beam_pattern_large_amplitudes_inside_the_bound(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"components": [dict(_GOOD_COMPONENT, re=3e153, im=3e153),
                                                   dict(_GOOD_COMPONENT, kx=0.6, ky=0.8)]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["beam-pattern", "--channel-file", str(path), "--grid-deg", "1"]) == 0
        gains = [float(row.split(",")[1])
                 for row in capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(gains) == 181 and np.isfinite(gains).all() and max(gains) > 3000

    @pytest.mark.parametrize("argv", [
        ["ineffectiveness", "--elements", "4", "--m-max", "2", "--trials", "1",
         "--spacing", "inf"],
        ["array-param", "--elements", "4", "--spacing", "1e308"],       # inf aperture
        ["blockage-cdf", "--elements", "4", "--m-paths", "2", "--trials", "1",
         "--spacing", "1e307"],                 # finite aperture, phases overflow
        ["snr-sweep", "--elements", "8", "--m-max", "2", "--trials", "1",
         "--spacing", "1e6"],                   # too wide for the exact array parameter
    ])
    def test_bad_array(self, argv, capsys):
        _fails_with_one_error_line(argv, capsys)

    def test_non_finite_json_value_fails_cleanly(self, monkeypatch, capsys):
        monkeypatch.setattr(mrcbeam.cli, "estimate_array_parameter",
                            lambda *args: ArrayParameterEstimate(float("nan"), 10, 0.1))
        _fails_with_one_error_line(["array-param", "--format", "json"], capsys)

    # each experiment is looked up on mrcbeam.cli when its command runs, so a replacement
    # set there is the one called
    @pytest.mark.parametrize("command, run", [
        ("ineffectiveness", "run_effectiveness_sweep"),
        ("effective-components", "run_effectiveness_sweep"),
        ("snr-sweep", "run_snr_sweep"),
        ("blockage-cdf", "run_blockage_experiment"),
    ])
    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 32.0 GiB")],
                             ids=["bare", "with-message"])
    def test_failed_allocation_fails_cleanly(self, exc, command, run, monkeypatch, capsys):
        def failing(cfg):
            raise exc
        monkeypatch.setattr(mrcbeam.cli, run, failing)
        line = _fails_with_one_error_line([command, "--elements", "4", "--trials", "3"], capsys)
        assert line == f"mrcbeam: error: {exc.args[0] if exc.args else 'MemoryError'}"

    def test_control_component_is_accepted(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"components": [_GOOD_COMPONENT]}))
        assert main(["beam-pattern", "--channel-file", str(path),
                     "--output", str(tmp_path / "p.csv")]) == 0


_FLOATS = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e300")
_INTS = ("0", "-1", "1000000000000000")
_EXPERIMENT_FLOATS = ("--spacing", "--fov-deg", "--delay-max-ns", "--bandwidth", "--sigma0")
_EXPERIMENT_INTS = ("--seed", "--trials", "--workers", "--elements", "--freq-points")
_SIZES = ("--elements", "4", "--trials", "3", "--freq-points", "16")
# command -> (base argv, float flags, int flags): every numeric flag of every command
_NUMERIC_FLAGS = {
    "array-param": (("--elements", "4", "--samples", "100"),
                    ("--spacing", "--fov-deg"), ("--seed", "--elements", "--samples")),
    **{command: (_SIZES, _EXPERIMENT_FLOATS, _EXPERIMENT_INTS + ("--m-min", "--m-max"))
       for command in ("ineffectiveness", "effective-components", "snr-sweep")},
    "blockage-cdf": (_SIZES, _EXPERIMENT_FLOATS, _EXPERIMENT_INTS + ("--m-paths",)),
    "beam-pattern": (("--elements", "4"), ("--spacing", "--grid-deg"), ("--elements",)),
    "dump-channel": ((), ("--fov-deg", "--delay-max-ns"), ("--seed", "--m-paths")),
}
# a --grid-deg of 1e-6 asks for 1.8e8 angles, which the limit refuses before building them
_BOUNDARY_CASES = [
    (command, flag, value)
    for command, (_, floats, ints) in _NUMERIC_FLAGS.items()
    for flags, values in ((floats, _FLOATS), (ints, _INTS))
    for flag in flags for value in values] + [("beam-pattern", "--grid-deg", "1e-6")]


@pytest.mark.parametrize("command, flag, value", _BOUNDARY_CASES,
                         ids=[f"{c} {f}={v}" for c, f, v in _BOUNDARY_CASES])
def test_numeric_flag_boundary(command, flag, value, tmp_path, capsys):
    """Every numeric flag at its edges: finite output and exit 0, or one error line
    and exit 1; never a traceback or a warning."""
    argv = [command, *_NUMERIC_FLAGS[command][0], f"{flag}={value}"]
    if command == "beam-pattern":
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"components": [_GOOD_COMPONENT]}))
        argv += ["--channel-file", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and "nan" not in out.lower() and "inf" not in out.lower()
    else:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("mrcbeam: error: ")


def test_public_names_resolve():
    namespace = {}
    exec("from mrcbeam import *", namespace)      # raises on a name __all__ lacks
    assert all(hasattr(mrcbeam, name) and name in namespace for name in mrcbeam.__all__)


def _program_env() -> dict:
    """The environment, with this checkout's sources first on the import path."""
    src = str(Path(mrcbeam.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_starts_no_multiprocessing():
    code = "import sys, mrcbeam.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_program_env(),
                          timeout=60).returncode == 0


def test_cli_import_imports_no_hashlib():
    # only JSON output hashes the config; hashlib's import cost every --help about 4 ms
    code = "import sys, mrcbeam.cli; sys.exit('hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_program_env(),
                          timeout=60).returncode == 0


@pytest.mark.parametrize("argv", [
    ["snr-sweep", "--elements", "4", "--m-max", "3", "--trials", "4", "--freq-points", "16"],
    ["ineffectiveness", "--elements", "4", "--m-max", "3", "--trials", "4"],
])
def test_experiment_run_imports_no_numpy_polynomial(argv, tmp_path):
    # the exact array parameter's Gauss-Legendre rule is tabulated, not built by leggauss
    code = ("import sys\nfrom mrcbeam.cli import main\n"
            f"assert main({argv + ['--output', str(tmp_path / 'out.csv')]!r}) == 0\n"
            "sys.exit(3 if 'numpy.polynomial' in sys.modules else 0)")
    assert subprocess.run([sys.executable, "-c", code], env=_program_env(),
                          timeout=60).returncode == 0


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_stops_quietly(unbuffered):
    # 20,001 rows overfill the pipe, so writing still goes on when the reader closes it
    argv = ["blockage-cdf", "--elements", "2", "--m-paths", "2", "--trials", "10000"]
    env = dict(_program_env(), PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "mrcbeam.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"beam_kind,snr_db\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


class TestHeapFreeze:
    """Run as the program, the CLI freezes its import-time heap; called in process, never."""

    def test_in_process_main_leaves_the_freeze_count(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["dump-channel", "--output", str(tmp_path / "ch.json")]) == 0
        assert gc.get_freeze_count() == before

    def test_program_main_freezes(self, tmp_path):
        argv = ["mrcbeam", "dump-channel", "--output", str(tmp_path / "ch.json")]
        code = (f"import gc, sys\nfrom mrcbeam.cli import main\nsys.argv = {argv!r}\n"
                "code = main()\nsys.exit(code if gc.get_freeze_count() > 0 else 3)\n")
        assert subprocess.run([sys.executable, "-c", code], env=_program_env(),
                              timeout=60).returncode == 0
        assert channel_from_json(json.loads((tmp_path / "ch.json").read_text())).m_paths == 4

    @pytest.mark.parametrize("argv", [
        ["ineffectiveness", "--elements", "4", "--m-max", "3", "--trials", "20"],
        ["effective-components", "--elements", "4", "--m-max", "3", "--trials", "20",
         "--format", "json"],
        ["snr-sweep", "--elements", "4", "--m-max", "3", "--trials", "10",
         "--freq-points", "16"],
        ["blockage-cdf", "--elements", "4", "--m-paths", "3", "--trials", "20",
         "--freq-points", "16"],
    ])
    def test_program_bytes_equal_in_process_bytes(self, argv, tmp_path, capsys):
        assert main(argv) == 0
        in_process = capsys.readouterr().out.encode()
        run = subprocess.run([sys.executable, "-m", "mrcbeam.cli", *argv], env=_program_env(),
                             capture_output=True, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == in_process


def _refuse_constant(name):
    raise ValueError(f"not standard JSON: {name}")


class TestOneSampleJson:
    """A standard error of one sample is undefined, and JSON writes it as null."""

    @pytest.mark.parametrize("argv, stderr_keys", [
        (["snr-sweep", "--elements", "4", "--m-max", "2", "--trials", "1",
          "--freq-points", "8"], ("mrc_sim_stderr_db", "single_sim_stderr_db")),
        (["ineffectiveness", "--elements", "4", "--m-max", "2", "--trials", "1"],
         ("p_ineff_stderr", "count_stderr")),
        (["blockage-cdf", "--elements", "4", "--m-paths", "3", "--trials", "1",
          "--freq-points", "8"], ("mrc_stderr_db", "single_stderr_db")),
    ])
    def test_experiment_json_is_standard(self, argv, stderr_keys, capsys):
        assert main(argv + ["--format", "json"]) == 0
        columns = json.loads(capsys.readouterr().out,
                             parse_constant=_refuse_constant)["results"]["columns"]
        for key in stderr_keys:
            assert set(columns[key]) == {None}

    def test_array_param_json_is_standard(self, capsys):
        assert main(["array-param", "--samples", "1", "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out,
                             parse_constant=_refuse_constant)["results"]
        assert results["stderr"] is None and results["samples"] == 1


class TestDeterministicOutput:
    def test_rerun_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["snr-sweep", "--elements", "2", "--m-min", "1", "--m-max", "3",
                "--trials", "25", "--freq-points", "64", "--seed", "21"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_bytes_identical(self, tmp_path):
        files = {}
        for workers in (1, 4):
            path = tmp_path / f"w{workers}.json"
            assert main(["blockage-cdf", "--elements", "2", "--m-paths", "3",
                         "--trials", "300", "--freq-points", "32", "--seed", "2",
                         "--workers", str(workers), "--format", "json",
                         "--output", str(path)]) == 0
            files[workers] = path.read_bytes()
        assert files[1] == files[4]

    def test_pool_started_only_with_two_blocks_per_worker(self, tmp_path, monkeypatch):
        # a 256-trial block costs less than starting a worker, so the pool has
        # min(workers, blocks // 2) workers and is skipped when that is 1
        sizes = []

        class SerialPool:
            """Runs in process and records the pool size it was asked for."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def run(trials, workers):
            path = tmp_path / f"t{trials}-w{workers}.csv"
            assert main(["blockage-cdf", "--elements", "2", "--m-paths", "3",
                         "--trials", str(trials), "--freq-points", "16", "--seed", "4",
                         "--workers", str(workers), "--output", str(path)]) == 0
            return path.read_bytes()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        for trials in (200, 300):                # one and two blocks of 256 trials
            serial = run(trials, 1)
            assert run(trials, 4) == serial and run(trials, 16) == serial
        assert sizes == []
        assert run(1200, 16) == run(1200, 1)    # five blocks: two each for two workers
        assert sizes == [2]

    def test_two_blocks_at_two_workers_start_no_pool(self, tmp_path, monkeypatch):
        # perfbench's blockage-n8-w2 argv: its two blocks cost less than a worker
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert main(["blockage-cdf", "--elements", "8", "--m-paths", "20", "--trials", "512",
                     "--format", "csv", "--workers", "2", "--seed", "0",
                     "--output", str(tmp_path / "out.csv")]) == 0
