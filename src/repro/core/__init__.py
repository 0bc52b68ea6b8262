"""Core abstractions: threat model, driver interface, attacks, supervision.

This package encodes the paper's conceptual contributions — the threat
model of Section 2 and the driver/supervisor countermeasure framework
of Section 5 — as reusable Python abstractions that the per-system
packages build on.
"""

from repro.core.attack import Attack, AttackResult, Campaign, CampaignReport
from repro.core.entities import (
    AttackSurface,
    Capability,
    Impact,
    Privilege,
    Signal,
    SignalKind,
    Target,
    ThreatVector,
    capabilities_of,
    minimum_privilege_for,
)
from repro.core.errors import (
    CheckpointError,
    ConfigurationError,
    DecodeError,
    ExperimentTimeout,
    FaultSpecError,
    PrivilegeError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    SupervisorVeto,
)
from repro.core.metrics import (
    TimeSeries,
    coefficient_of_variation,
    first_crossing_time,
    mean,
    percentile,
    stddev,
)
from repro.core.supervisor import (
    DEGRADATION_POLICIES,
    OperatingRange,
    PlausibilityModel,
    SupervisedDriver,
    Supervisor,
    SupervisionEvent,
    ThresholdModel,
)
from repro.core.system import DataDrivenSystem, Decision, RecordingSystem, SystemState

__all__ = [
    "Attack",
    "AttackResult",
    "AttackSurface",
    "Campaign",
    "CampaignReport",
    "Capability",
    "CheckpointError",
    "ConfigurationError",
    "DEGRADATION_POLICIES",
    "DataDrivenSystem",
    "DecodeError",
    "Decision",
    "ExperimentTimeout",
    "FaultSpecError",
    "Impact",
    "OperatingRange",
    "PlausibilityModel",
    "Privilege",
    "PrivilegeError",
    "RecordingSystem",
    "ReproError",
    "RoutingError",
    "SchedulingError",
    "Signal",
    "SignalKind",
    "SimulationError",
    "SupervisedDriver",
    "Supervisor",
    "SupervisionEvent",
    "SupervisorVeto",
    "SystemState",
    "Target",
    "ThreatVector",
    "ThresholdModel",
    "TimeSeries",
    "capabilities_of",
    "coefficient_of_variation",
    "first_crossing_time",
    "mean",
    "minimum_privilege_for",
    "percentile",
    "stddev",
]
