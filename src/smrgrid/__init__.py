"""Grid stability toolkit for datacenters backed by a small modular reactor
and a battery: datacenter load profiling, AC power flow snapshots, and
classical transient simulation with frequency-support controls."""

from .network import (
    AdmittanceMatrix,
    Bus,
    BusKind,
    Branch,
    CaseError,
    Generator,
    NetworkCase,
    build_ybus,
    case_from_dict,
    case_to_dict,
    load_ieee118,
    parse_case,
    save_case,
)
from .powerflow import (
    PowerFlowSolution,
    SingularJacobianError,
    branch_flows,
    solve,
    total_losses,
)
from .dynamics import (
    BessParams,
    BusFault3ph,
    ClearFault,
    Event,
    GenTrip,
    IesUnit,
    LineTrip,
    LoadStep,
    MachineParams,
    SimConfig,
    SimulationError,
    SmrParams,
    TransientResult,
    run_transient,
)
from .datacenter import (
    AmbientConditions,
    ChillerParams,
    DEFAULT_CHILLER,
    ItPowerParams,
    LoadProfile,
    MachineEvent,
    TaskRecord,
    TaskTable,
    TraceError,
    UtilizationTrace,
    bin_tasks,
    build_profile,
    calibrate_it_capacity,
    estimate_capacity,
    normalize,
    read_machine_events_csv,
    read_profile_csv,
    read_tasks_csv,
    write_csv,
    write_profile_csv,
)
from .scenario import (
    ComparisonPair,
    ComparisonReport,
    Configuration,
    ContingencySpec,
    IesSpec,
    ScenarioError,
    StabilityMetrics,
    SweepResult,
    compare,
    extract_metrics,
    resolve_events,
    run_contingency,
    select_snapshot_bins,
    snapshot_case,
    snapshot_sweep,
)

__version__ = "0.1.0"

