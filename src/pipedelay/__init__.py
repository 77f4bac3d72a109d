"""Delay modeling for a camera -> queue -> detector pipeline.

The package has three layers: finite discrete delay distributions and
their algebra (`dist`), per-component timing models for the camera link,
the frame queue, and the detection loop (`camera`, `queueing`,
`detector`), and whole-pipeline tools that combine them (`analysis` for
closed-form bounds, `sim` for event simulation, `scenario`/`cli` for
configuration files and the command-line front end).
"""

from .analysis import (
    E2EBounds,
    ValidationReport,
    analyze,
    validate_against_analysis,
)
from .camera import (
    CameraConfig,
    CameraDelayBounds,
    UsbLinkConfig,
    arrival_distribution,
    camera_delay_bounds,
    capture_delay_max,
    frame_size,
    total_microframes,
    transfer_delay_bounds,
)
from .detector import (
    ContentionFree,
    DetectorDelayBounds,
    OnDemand,
    StageProfile,
    Vanilla,
    ZeroSlack,
    blocking_bounds,
    compute_theta_fetch,
    detector_delay_bounds,
    service_distribution,
)
from .dist import (
    ZERO_DELAY,
    DelayDist,
    DistSummary,
    convolve_all,
    load_samples_csv,
    max_combine,
    summarize,
)
from .queueing import QueueDelayBounds, QueueRegime, classify, queue_delay_bounds
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .sim import SimConfig, SimResult, run

__version__ = "0.1.0"

__all__ = [
    "CameraConfig",
    "CameraDelayBounds",
    "ContentionFree",
    "DelayDist",
    "DetectorDelayBounds",
    "DistSummary",
    "E2EBounds",
    "OnDemand",
    "QueueDelayBounds",
    "QueueRegime",
    "Scenario",
    "ScenarioError",
    "SimConfig",
    "SimResult",
    "StageProfile",
    "UsbLinkConfig",
    "ValidationReport",
    "Vanilla",
    "ZERO_DELAY",
    "ZeroSlack",
    "analyze",
    "arrival_distribution",
    "blocking_bounds",
    "camera_delay_bounds",
    "capture_delay_max",
    "classify",
    "compute_theta_fetch",
    "convolve_all",
    "detector_delay_bounds",
    "frame_size",
    "load_samples_csv",
    "load_scenario",
    "max_combine",
    "parse_scenario",
    "queue_delay_bounds",
    "run",
    "service_distribution",
    "summarize",
    "total_microframes",
    "transfer_delay_bounds",
    "validate_against_analysis",
    "__version__",
]
