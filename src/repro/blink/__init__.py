"""Blink reimplementation + the capture-attack analysis (Section 3.1).

Blink (Holterbach et al., NSDI'19) detects connectivity failures
entirely in the data plane by watching TCP retransmissions across a
64-flow sample per prefix and rerouting when a majority retransmits.
This package contains a faithful reconstruction of that pipeline and
the closed-form/Monte-Carlo analysis of the HotNets paper's attack on
it (Fig. 2).
"""

from repro.blink.analysis import (
    CaptureCurve,
    Fig2Headline,
    Fig2Result,
    MonteCarloRun,
    capture_probability,
    captured_percentile,
    expected_hitting_time,
    fig2_experiment,
    fig2_headline,
    mean_captured,
    mean_crossing_time,
    minimum_qm,
    probability_at_least,
    simulate_capture,
    success_time_quantile,
    theory_curves,
    tr_qm_feasibility_table,
)
from repro.blink.constants import (
    DEFAULT_CELLS,
    EVICTION_TIMEOUT,
    FAILURE_THRESHOLD_FRACTION,
    FIG2_LEGITIMATE_FLOWS,
    FIG2_MALICIOUS_FLOWS,
    FIG2_QM,
    FIG2_SIMULATIONS,
    FIG2_TR,
    RESET_INTERVAL,
    RETRANSMISSION_WINDOW,
)
from repro.blink.packet_level import (
    PacketLevelReport,
    blink_attack_specs,
    packet_level_experiment,
)
from repro.blink.pipeline import BlinkPrefixMonitor, BlinkSwitch, RerouteEvent
from repro.blink.selector import Cell, FlowSelector, SelectorStats

__all__ = [
    "BlinkPrefixMonitor",
    "BlinkSwitch",
    "CaptureCurve",
    "Cell",
    "DEFAULT_CELLS",
    "EVICTION_TIMEOUT",
    "FAILURE_THRESHOLD_FRACTION",
    "FIG2_LEGITIMATE_FLOWS",
    "FIG2_MALICIOUS_FLOWS",
    "FIG2_QM",
    "FIG2_SIMULATIONS",
    "FIG2_TR",
    "Fig2Headline",
    "Fig2Result",
    "FlowSelector",
    "MonteCarloRun",
    "PacketLevelReport",
    "RESET_INTERVAL",
    "RETRANSMISSION_WINDOW",
    "RerouteEvent",
    "SelectorStats",
    "blink_attack_specs",
    "capture_probability",
    "captured_percentile",
    "expected_hitting_time",
    "fig2_experiment",
    "fig2_headline",
    "mean_captured",
    "mean_crossing_time",
    "minimum_qm",
    "packet_level_experiment",
    "probability_at_least",
    "simulate_capture",
    "success_time_quantile",
    "theory_curves",
    "tr_qm_feasibility_table",
]
