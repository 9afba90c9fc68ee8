"""Market-driven sensing/communication/computing resource scheduling engine
and simulator for multimodal federated perception workloads.

The package logs under the "mfpsim" logger, silent unless the application
configures logging; at DEBUG the market reports each scan grant, each
streak grant and each block-polish move.
"""

import logging

from .baselines import Policy, SelectionMetrics, realize_with_policy, schedule_with_policy, select_clients
from .config import ExperimentConfig, config_hash, default_config, load_config
from .costs import (
    ComputeSchedule,
    ConsumptionTask,
    GenSchedule,
    PriceVector,
    ScheduleDecision,
    TransferSchedule,
    gen_cost,
    unconstrained_comm_schedule,
    unconstrained_comp_schedule,
    unconstrained_gen_schedule,
)
from .errors import (
    ConfigError,
    GainShortfallError,
    InfeasibleError,
    LinkUnusableError,
    ResourceConflictError,
)
from .market import Allocation, ClientQuote, CostCurve, WelfareReport, allocate_workloads
from .resource_pool import (
    GridRegion,
    ResourceQuanta,
    SharedResourcePool,
    new_pool,
)
from .rounds import RoundPlan, plan_round, rounds_to_complete
from .runner import RunRecord, run, sweep
from .scenario import (
    ChannelParams,
    ScenarioState,
    SensingGeometry,
    SensingProfile,
    StatusAttributes,
    make_scenario,
    spectral_efficiency,
    step_mobility,
)
from .sensing import qod
from .solver import (
    Budgets,
    OutcomeKind,
    SolveInput,
    SolveOutcome,
    constrained_schedule,
    mtv,
    mutv,
    realize_schedule,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
