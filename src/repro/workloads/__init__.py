"""Empirical-CDF workload engine and the scenario registry.

Three layers, bottom-up:

* :mod:`repro.workloads.cdf` — the shipped empirical flow-size CDFs
  (DCTCP web-search, VL2 data-mining) and seeded inverse-transform
  sampling;
* :mod:`repro.workloads.shapers` + :mod:`repro.workloads.engine` —
  composable load shapers and six streaming, seeded workload classes
  (bounded memory, identity-derived per-flow RNG streams), plus
  per-workload Blink tR recalibration;
* :mod:`repro.workloads.scenarios` — named, content-addressed bindings
  of attack × workload × faults with pinned golden report hashes,
  runnable via ``python -m repro scenarios``.
"""

from repro.workloads.cdf import (
    DATA_MINING_CDF,
    DATA_MINING_POINTS,
    WEB_SEARCH_CDF,
    WEB_SEARCH_POINTS,
    WORKLOAD_CDFS,
    EmpiricalCDF,
    resolve_cdf,
)
from repro.workloads.engine import (
    DEFAULT_MAX_PACKETS,
    MSS_BYTES,
    WORKLOAD_CLASSES,
    WorkloadClass,
    iter_workload_specs,
    measured_tr,
    resolve_workload,
    size_to_packets,
    tr_for_workload,
    workload_names,
)
from repro.workloads.scenarios import (
    ScenarioRun,
    ScenarioSpec,
    register_scenario,
    report_hash,
    resolve_scenario,
    run_scenario,
    scenario_names,
    with_golden,
)
from repro.workloads.shapers import (
    SHAPER_KINDS,
    ComposeShaper,
    ConstantShaper,
    DiurnalShaper,
    FlashCrowdShaper,
    RateShaper,
    parse_shaper,
    shaped_arrival_times,
)

__all__ = [
    "DATA_MINING_CDF",
    "DATA_MINING_POINTS",
    "DEFAULT_MAX_PACKETS",
    "MSS_BYTES",
    "SHAPER_KINDS",
    "WEB_SEARCH_CDF",
    "WEB_SEARCH_POINTS",
    "WORKLOAD_CDFS",
    "WORKLOAD_CLASSES",
    "ComposeShaper",
    "ConstantShaper",
    "DiurnalShaper",
    "EmpiricalCDF",
    "FlashCrowdShaper",
    "RateShaper",
    "ScenarioRun",
    "ScenarioSpec",
    "WorkloadClass",
    "iter_workload_specs",
    "measured_tr",
    "parse_shaper",
    "register_scenario",
    "report_hash",
    "resolve_cdf",
    "resolve_scenario",
    "resolve_workload",
    "run_scenario",
    "scenario_names",
    "shaped_arrival_times",
    "size_to_packets",
    "tr_for_workload",
    "with_golden",
    "workload_names",
]
