"""Conjugate-combining beams on arbitrary antenna arrays.

Library surface: array geometry and plane-wave phases, multipath channel
sampling, beam weight synthesis with per-path decomposition, closed-form
wideband SNR predictions, and seeded Monte Carlo experiments. A beam is
its (N,) complex weight vector, a plain numpy array.
"""

from .beams import (array_factor, classify_effectiveness, combined_response,
                    component_array_factor, decompose, interference_term,
                    mrc_weights, noise_power, pair_gain_matrix, pattern_gain_db,
                    per_antenna_response, single_direction_weights, steering_matrix,
                    strongest_component)
from .channel import (ChannelRealization, channel_from_json, channel_to_json,
                      remove_component, sample_channel)
from .geometry import AntennaArray, FieldOfView, make_ula, normalize, phase_matrix
from .montecarlo import (ExperimentConfig, SweepResult, band_average_gain,
                         run_blockage_experiment, run_effectiveness_sweep,
                         run_snr_sweep, trial_rng)
from .theory import (EULER_GAMMA, ArrayParameterEstimate,
                     conditional_ineffectiveness, effective_count,
                     estimate_array_parameter, exact_array_parameter,
                     harmonic_number, ineffectiveness_probability, snr_mrc_theory,
                     snr_ratio_theory, snr_single_theory, to_db)

__version__ = "0.1.0"

__all__ = [
    "AntennaArray", "ArrayParameterEstimate", "ChannelRealization",
    "EULER_GAMMA", "ExperimentConfig", "FieldOfView", "SweepResult", "array_factor",
    "band_average_gain", "channel_from_json", "channel_to_json",
    "classify_effectiveness", "combined_response", "component_array_factor",
    "conditional_ineffectiveness", "decompose", "effective_count",
    "estimate_array_parameter", "exact_array_parameter", "harmonic_number",
    "ineffectiveness_probability", "interference_term", "make_ula",
    "mrc_weights", "noise_power", "normalize", "pair_gain_matrix", "pattern_gain_db",
    "per_antenna_response", "phase_matrix", "remove_component",
    "run_blockage_experiment", "run_effectiveness_sweep", "run_snr_sweep",
    "sample_channel", "single_direction_weights",
    "snr_mrc_theory", "snr_ratio_theory", "snr_single_theory",
    "steering_matrix", "strongest_component", "to_db", "trial_rng",
]
