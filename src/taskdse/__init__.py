"""Design-space exploration for task-graph applications on multi-core platforms.

Two analysis engines share one system model: an exact zone-based reachability
engine that computes guaranteed makespan / response-time bounds under bounded
timing uncertainty, and a Monte-Carlo discrete-event simulator that estimates
distributions, energy and power/performance trade-offs.
"""

from .timebase import SCALE, to_ticks, from_ticks, format_ticks
from .model import (
    WorkInterval,
    TimeInterval,
    TaskSpec,
    DataEdge,
    JobType,
    Processor,
    Memory,
    Interconnect,
    Platform,
    Deployment,
    SystemModel,
    validate_model,
    duration_interval,
    comm_duration,
    expand_comm_tasks,
)
from .generators import Generator, arrival_rule, sample_arrivals, check_variability
from .simulator import simulate, run_campaign, CampaignResult, TimedTrace, Event
from .reachability import (
    reach_bounds,
    ReachOptions,
    ReachResult,
    BudgetExceeded,
    SearchCapExceeded,
)
from .metrics import MetricSpec, Report, summarize, utilization, energy
from .config import ConfigError, model_hash

__version__ = "0.1.0"
