"""posefuse: fuse drift-free but noisy absolute-pose estimates with
locally precise but drifting odometry, plus the synthetic sensor models
and trajectory metrics used to exercise the pipeline."""

from .fusion import (
    FusedTrack,
    FusionConfig,
    FusionOutput,
    FusionState,
    Label,
    ReferencePair,
    Stage,
    optimize_pose,
    run_sequence,
    step,
)
from .geometry import (
    Pose,
    PoseTrack,
    track_array,
)
from .io import PoseSample, Recording, SequenceFormatError, parse_sequence, write_sequence
from .metrics import (
    PrecisionBuckets,
    SummaryReport,
    align_and_evaluate,
)
from .synth import (
    AprNoiseModel,
    TrajectoryConfig,
    VioNoiseModel,
    generate_gt,
    simulate_apr,
    simulate_vio,
)

__version__ = "0.1.0"

__all__ = [
    "AprNoiseModel",
    "FusedTrack",
    "FusionConfig",
    "FusionOutput",
    "FusionState",
    "Label",
    "Pose",
    "PoseSample",
    "PoseTrack",
    "PrecisionBuckets",
    "Recording",
    "ReferencePair",
    "SequenceFormatError",
    "Stage",
    "SummaryReport",
    "TrajectoryConfig",
    "VioNoiseModel",
    "align_and_evaluate",
    "generate_gt",
    "optimize_pose",
    "parse_sequence",
    "run_sequence",
    "simulate_apr",
    "simulate_vio",
    "step",
    "track_array",
    "write_sequence",
    "__version__",
]
