"""Command-line interface: experiments, pattern export, channel dumps.

Angles are given in degrees, frequencies in Hz with optional k/M/G
suffixes, delays in nanoseconds. Every command is deterministic for a
fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

import numpy as np

from . import output
from .beams import mrc_weights, pattern_gain_db
from .channel import channel_from_json, channel_to_json, sample_channel
from .geometry import FieldOfView, make_ula
from .montecarlo import (MAX_PATHS, ExperimentConfig, run_blockage_experiment,
                         run_effectiveness_sweep, run_snr_sweep, trial_rng)
from .theory import estimate_array_parameter

MAX_PATTERN_ANGLES = 1 << 20   # most 180 / --grid-deg, one less than the most angles; checked first


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="output file (default: standard output)")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")


def _add_array(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--elements", type=int, default=8,
                        help="number of array elements (default 8)")
    parser.add_argument("--spacing", type=float, default=0.5,
                        help="element spacing in wavelengths (default 0.5)")


def _add_fov(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fov-deg", type=float, default=180.0,
                        help="total field of view in degrees (default 180)")


def _add_experiment(parser: argparse.ArgumentParser) -> None:
    """Flags every Monte Carlo experiment command honours."""
    _add_seed(parser); _add_output(parser); _add_format(parser)
    parser.add_argument("--trials", type=int, default=1000,
                        help="Monte Carlo trials per path count (default 1000)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes; results are identical "
                             "for any worker count (default 1)")
    _add_array(parser); _add_fov(parser)
    parser.add_argument("--delay-max-ns", type=float, default=100.0,
                        help="maximum path delay in ns (default 100)")
    parser.add_argument("--bandwidth", default="1GHz",
                        help="averaging bandwidth, e.g. 1GHz or 500MHz (default 1GHz)")
    parser.add_argument("--freq-points", type=int, default=1024,
                        help="frequency grid points across the band (default 1024)")
    parser.add_argument("--sigma0", type=float, default=1.0,
                        help="per-antenna noise standard deviation (default 1)")


def _add_m_sweep(parser: argparse.ArgumentParser, default_max: int) -> None:
    parser.add_argument("--m-min", type=int, default=1,
                        help="smallest path count in the sweep (default 1)")
    parser.add_argument("--m-max", type=int, default=default_max,
                        help=f"largest path count in the sweep (default {default_max})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrcbeam",
        description="Conjugate-combining beam analysis on antenna arrays: "
                    "geometry constants, path-effectiveness statistics, wideband "
                    "SNR sweeps, blockage robustness and beam-pattern export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "array-param",
        help="estimate the array parameter (mean squared cross-beam gain)",
        description="Monte Carlo estimate of the array parameter: the expected "
                    "squared sub-beam gain between two random arrival directions. "
                    "CSV columns: n_elements, fov_deg, s, stderr, samples.")
    _add_seed(p); _add_output(p); _add_format(p); _add_array(p); _add_fov(p)
    p.add_argument("--samples", type=int, default=100_000,
                   help="number of direction pairs (default 100000)")

    p = sub.add_parser(
        "ineffectiveness",
        help="probability that a path is drowned by cross-beam interference",
        description="Sweeps the path count and reports the closed-form and "
                    "simulated probability that a path's amplitude falls below "
                    "the aggregate cross-beam interference at its direction. "
                    "CSV columns: m, theory, empirical, stderr.")
    _add_experiment(p); _add_m_sweep(p, 15)

    p = sub.add_parser(
        "effective-components",
        help="average number of paths the combining beam actually uses",
        description="Same sweep as 'ineffectiveness', reported as the count of "
                    "effective paths per trial. CSV columns: m, theory, "
                    "empirical, stderr.")
    _add_experiment(p); _add_m_sweep(p, 15)

    p = sub.add_parser(
        "snr-sweep",
        help="band-averaged SNR vs. path count for both beam kinds",
        description="Simulates the band-averaged SNR of the combining beam and "
                    "of a single beam steered at the strongest path, next to "
                    "their closed-form predictions. CSV columns: m, "
                    "mrc_theory_db, mrc_sim_db, single_theory_db, single_sim_db.")
    _add_experiment(p); _add_m_sweep(p, 20)

    p = sub.add_parser(
        "blockage-cdf",
        help="post-blockage SNR distribution for both beam kinds",
        description="Designs both beams on a full channel, removes one random "
                    "path, and records the SNR of the unchanged beams on what "
                    "remains. CSV columns: beam_kind, snr_db (one row per trial, "
                    "sorted per beam kind).")
    _add_experiment(p)
    p.add_argument("--m-paths", type=int, default=20,
                   help="number of paths before the blockage (default 20)")

    p = sub.add_parser(
        "beam-pattern",
        help="gain grid of the combining beam for a stored channel",
        description="Loads a channel JSON file, builds the combining beam for "
                    "the configured array, and exports |gain|^2 in dB over "
                    "broadside-plane angles. CSV columns: theta_deg, gain_db.")
    _add_output(p); _add_format(p); _add_array(p)
    p.add_argument("--channel-file", required=True, metavar="PATH",
                   help="channel JSON file, e.g. from dump-channel")
    p.add_argument("--grid-deg", type=float, default=0.5,
                   help="angular grid step in degrees (default 0.5)")

    p = sub.add_parser(
        "dump-channel",
        help="sample one random channel and write it as JSON",
        description="Samples a channel realization and writes the JSON record "
                    "{components: [{re, im, kx, ky, kz, delay_ns}]} consumed by "
                    "beam-pattern.")
    _add_seed(p); _add_output(p); _add_fov(p)
    p.add_argument("--m-paths", type=int, default=4,
                   help="number of multipath components (default 4)")
    p.add_argument("--delay-max-ns", type=float, default=100.0,
                   help="maximum path delay in ns (default 100)")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _m_sweep(args) -> range:
    """Path counts --m-min to --m-max; either end past its limit is refused before
    the sweep is built."""
    if args.m_min < 1:
        raise ValueError(f"--m-min must be >= 1, got {args.m_min}")
    if args.m_max > MAX_PATHS:
        raise ValueError(f"--m-max must be <= {MAX_PATHS}, got {args.m_max}")
    return range(args.m_min, args.m_max + 1)


def _experiment_config(args, m_values) -> ExperimentConfig:
    return ExperimentConfig(
        n_elements=args.elements,
        m_values=tuple(m_values),
        spacing_wavelengths=args.spacing,
        fov_deg=args.fov_deg,
        trials=args.trials,
        delay_max_ns=args.delay_max_ns,
        bandwidth_hz=output.parse_frequency(args.bandwidth),
        freq_points=args.freq_points,
        sigma0=args.sigma0,
        seed=args.seed,
        workers=args.workers,
    )


def _emit(args, command, config, results_json, header, rows) -> None:
    if args.format == "json":
        output.write_json(output.json_payload(command, config, results_json), args.output)
    else:
        output.write_csv(header, rows, args.output)


def _cmd_array_param(args) -> None:
    array = make_ula(args.elements, args.spacing)
    fov = FieldOfView.from_degrees(args.fov_deg)
    est = estimate_array_parameter(array, fov, args.samples, trial_rng(args.seed, ()))
    config = {"n_elements": args.elements, "spacing_wavelengths": args.spacing,
              "fov_deg": args.fov_deg, "samples": args.samples, "seed": args.seed}
    _emit(args, "array-param", config,
          {"s": est.s, "stderr": output.json_stderr(est.stderr, est.samples),
           "samples": est.samples},
          ["n_elements", "fov_deg", "s", "stderr", "samples"],
          [(args.elements, args.fov_deg, est.s, est.stderr, est.samples)])


# command -> (experiment in this module, CSV header, CSV row function in `output`, and
# the row function's arguments after the result). Both functions are looked up by name
# when the command runs, so a replacement set on either module is the one called.
_EXPERIMENTS = {
    **{quantity: ("run_effectiveness_sweep", ["m", "theory", "empirical", "stderr"],
                  "effectiveness_rows", quantity)
       for quantity in ("ineffectiveness", "effective-components")},
    "snr-sweep": ("run_snr_sweep", ["m", "mrc_theory_db", "mrc_sim_db", "single_theory_db",
                                    "single_sim_db"], "snr_rows"),
    "blockage-cdf": ("run_blockage_experiment", ["beam_kind", "snr_db"], "blockage_rows"),
}


def _cmd_experiment(args) -> None:
    run, header, rows, *rows_args = _EXPERIMENTS[args.command]
    cfg = _experiment_config(args, (args.m_paths,) if "m_paths" in args else _m_sweep(args))
    result = globals()[run](cfg)
    _emit(args, args.command, output.config_dict(cfg), output.sweep_columns_json(result),
          header, getattr(output, rows)(result, *rows_args))


def _cmd_beam_pattern(args) -> None:
    with open(args.channel_file) as fh:
        try:
            record = json.load(fh)
        except RecursionError:      # bad input here; anywhere else, a fault of the program
            raise ValueError("channel file is nested too deeply to read") from None
    channel = channel_from_json(record)
    # these weights give |F| <= sum |a_m| <= 2 M max(|Re a|, |Im a|), a bound that
    # floats reach without a warning; its square must be finite for finite gains
    bound = 2.0 * channel.m_paths * float(np.abs(channel.amplitudes().view(float)).max())
    if not bound * bound < math.inf:
        raise ValueError(f"channel amplitudes are too large for a finite beam pattern "
                         f"(gain bound {bound:.3g})")
    array = make_ula(args.elements, args.spacing)
    weights = mrc_weights(channel, array)
    step = args.grid_deg
    if not (step * MAX_PATTERN_ANGLES >= 180.0 and step < math.inf):   # also rejects NaN
        raise ValueError(f"--grid-deg must be finite and >= 180 / {MAX_PATTERN_ANGLES}, "
                         f"got {step}")
    # each angle is -90 + i * step for i <= 180 / step, and +90 where rounding puts
    # the last one just past it
    thetas = np.minimum(-90.0 + np.arange(int(180.0 / step) + 1) * step, 90.0)
    gains = pattern_gain_db(weights, array, thetas)
    config = {"n_elements": args.elements, "spacing_wavelengths": args.spacing,
              "channel_file": args.channel_file, "grid_deg": args.grid_deg}
    _emit(args, "beam-pattern", config, {"theta_deg": thetas, "gain_db": gains},
          ["theta_deg", "gain_db"], output.array_rows(thetas, gains))


def _cmd_dump_channel(args) -> None:
    if args.m_paths > MAX_PATHS:
        raise ValueError(f"--m-paths must be <= {MAX_PATHS}, got {args.m_paths}")
    fov = FieldOfView.from_degrees(args.fov_deg)
    channel = sample_channel(args.m_paths, fov, args.delay_max_ns * 1e-9,
                             trial_rng(args.seed, ()))
    output.write_json(channel_to_json(channel), args.output)


_COMMANDS = {"array-param": _cmd_array_param, "beam-pattern": _cmd_beam_pattern,
             "dump-channel": _cmd_dump_channel, **dict.fromkeys(_EXPERIMENTS, _cmd_experiment)}


def main(argv=None) -> int:
    """Run one command and return its exit code. Run as the program (``argv`` None), it
    first freezes the heap its imports left, so that no collection, the one at exit
    included, walks it again; a call with an argument list leaves the caller's heap alone."""
    if argv is None:
        gc.freeze()
    args = parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"mrcbeam: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
