"""Performance models for master-slave powerline routing protocols.

Analytic expected polling-cycle durations for dynamic source routing
(DLC1000) and flooding (SFN) over PER-matrix channel models, a seeded
slot-accurate Monte-Carlo simulator to validate them, and routing
overhead metrics.
"""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    ChannelSpec,
    ChannelSpecError,
    DEFAULT_MODELS,
    MASTER,
    MatrixValidationError,
    PerMatrix,
    build_matrix,
    generate_rand_area,
    generate_ring,
    load_matrix,
    save_matrix,
)
from .dlc import DlcCycleAnalysis, DlcPathResult, DlcSlaveAnalysis  # noqa: F401
from .metrics import OverheadReport, routing_overhead  # noqa: F401
from .sfn import FloodProfile, LevelDistribution, SfnCycleAnalysis, SfnSlaveAnalysis  # noqa: F401
from .simulator import SimConfig, SimReport, simulate, simulate_dlc, simulate_sfn  # noqa: F401
