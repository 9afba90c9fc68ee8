"""Market-driven sensing/communication/computing resource scheduling engine
and simulator for multimodal federated perception workloads."""

from .baselines import Policy, SelectionMetrics, schedule_with_policy, select_clients
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
from .market import (
    Allocation,
    ClientQuote,
    CostCurve,
    WelfareReport,
    allocate_workloads,
    app_payment,
    client_payment,
    social_welfare,
)
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
    channel_gain,
    link_budget,
    make_scenario,
    spectral_efficiency,
    status_attributes,
    step_mobility,
    targets_in_domain,
)
from .sensing import qod
from .baselines import realize_with_policy
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

__version__ = "0.1.0"
