"""Analog feedback control over wireless channels: design, allocation, simulation.

The package covers one scalar unstable plant per sensor-controller-actuator
loop, closed over a fading channel without any source or channel coding: the
sensor scales its reading, the channel scales and perturbs it, the actuator
scales it back.  Closed forms pick the two scale factors under a transmit
power budget, allocation routines split one budget across several plants, and
vectorised Monte-Carlo recipes reproduce every design figure from first
principles.  A coded transmit-then-correct baseline (shortened BCH over square
QAM) is included for comparison.
"""

__version__ = "0.1.0"

from .coded import (
    SCHEMES,
    CodingScheme,
    bch_decode,
    bch_encode,
    estimate_word_success,
    qam_detect,
    qam_modulate,
    required_success_probability,
    run_coded_control,
)
from .experiments import (
    ExperimentSpec,
    SweepResult,
    add_shared_gain_series,
    implied_trace_gains,
    run_multi_sweep,
    run_selection_sweep,
    run_single_compare,
    run_trace,
)
from .fading import rayleigh_gain_samples, substream
from .fast_control import (
    ETA,
    FastDesign,
    FastSingleDesign,
    allocate_multi_fast,
    expected_ac2,
    fast_snr_floor,
    optimize_single_fast,
    stabilizable_fast,
)
from .model import (
    DIVERGENCE_GUARD,
    GainPair,
    NoisePowers,
    PlantParams,
    predicted_cost_slow,
    simulate_loop,
)
from .slow_control import (
    IdenticalActuatorDesign,
    IdenticalControllerDesign,
    SlowDesign,
    SlowSingleDesign,
    SnrAllocation,
    allocate_multi_slow,
    optimize_identical_actuator,
    optimize_identical_controller,
    optimize_single_slow,
    select_plants,
    snr_floor,
)

__all__ = [
    "__version__",
    "DIVERGENCE_GUARD",
    "ETA",
    "SCHEMES",
    "CodingScheme",
    "ExperimentSpec",
    "FastDesign",
    "FastSingleDesign",
    "GainPair",
    "IdenticalActuatorDesign",
    "IdenticalControllerDesign",
    "NoisePowers",
    "PlantParams",
    "SlowDesign",
    "SlowSingleDesign",
    "SnrAllocation",
    "SweepResult",
    "add_shared_gain_series",
    "allocate_multi_fast",
    "allocate_multi_slow",
    "bch_decode",
    "bch_encode",
    "estimate_word_success",
    "expected_ac2",
    "fast_snr_floor",
    "implied_trace_gains",
    "optimize_identical_actuator",
    "optimize_identical_controller",
    "optimize_single_fast",
    "optimize_single_slow",
    "predicted_cost_slow",
    "qam_detect",
    "qam_modulate",
    "rayleigh_gain_samples",
    "required_success_probability",
    "run_coded_control",
    "run_multi_sweep",
    "run_selection_sweep",
    "run_single_compare",
    "run_trace",
    "select_plants",
    "simulate_loop",
    "snr_floor",
    "stabilizable_fast",
    "substream",
]
