"""ove: inverse design of 3D optical interconnects.

Scalar wave propagation (angular spectrum + split-step), adjoint
optimization of GRIN volumes and layered phase elements, fiber LP mode
targets, and the multiplexing/footprint experiments built on top.
"""

from .config import ConfigError, DesignConfig, default_config, parse_config, serialize_config
from .design import (
    DesignRun,
    Evaluation,
    LossSpec,
    OptimizerConfig,
    evaluate,
    optimize,
    seeded_initial_volume,
    total_variation,
)
from .experiments import (
    CrosstalkReport,
    EfficiencyCurve,
    HolographySetup,
    fit_log_slope,
    ring_positions,
    spot_centroid,
    canned_config,
    fanout_config,
    lantern_experiment,
    multiplexed_grating_volume,
    optimized_curve,
    optimized_fanout_efficiency,
    run_design,
    superposed_curve,
    superposed_grating_efficiency,
    weak_grating_efficiency,
)
from .fields import (
    ComplexField,
    Grid2D,
    IndexVolume,
    LayeredElement,
    MappingTask,
    normalize,
    overlap,
    power,
)
from .interconnect import ScalingReport, footprint_scaling, haar_filter_bank
from .io import (
    export_field,
    export_volume,
    import_field,
    import_volume,
    read_pgm,
    render_field,
    write_csv,
)
from .propagation import PropagationSpec, free_space, propagate, transfer_function
from .sources import (
    FiberSpec,
    HaarFields,
    LPMode,
    gaussian,
    haar_mask_field,
    haar_pattern,
    lp_modes,
    plane_wave,
    spot_target,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexField", "Grid2D", "IndexVolume", "LayeredElement", "MappingTask",
    "normalize", "overlap", "power",
    "PropagationSpec", "free_space", "propagate", "transfer_function",
    "FiberSpec", "LPMode", "HaarFields", "gaussian", "haar_mask_field", "haar_pattern",
    "lp_modes", "plane_wave", "spot_target",
    "LossSpec", "OptimizerConfig", "DesignRun", "Evaluation", "evaluate",
    "optimize", "seeded_initial_volume", "total_variation",
    "ScalingReport", "footprint_scaling", "haar_filter_bank",
    "CrosstalkReport", "EfficiencyCurve", "HolographySetup",
    "weak_grating_efficiency", "multiplexed_grating_volume",
    "superposed_grating_efficiency", "optimized_fanout_efficiency",
    "superposed_curve", "optimized_curve", "fit_log_slope",
    "canned_config", "fanout_config", "run_design", "lantern_experiment",
    "ring_positions", "spot_centroid",
    "ConfigError", "DesignConfig", "parse_config", "serialize_config", "default_config",
    "export_volume", "import_volume", "export_field", "import_field",
    "render_field", "read_pgm", "write_csv",
]
