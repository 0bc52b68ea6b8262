"""Fluid-level PCC simulation: flows, a shared bottleneck, MI tampering.

PCC's control loop operates at monitor-interval granularity, so a
fluid model — rates and loss fractions per MI rather than individual
packets — captures everything the oscillation attack touches while
staying fast enough for parameter sweeps.  The bottleneck computes the
loss each flow sees from the aggregate offered load; an optional
:class:`MiTamper` lets a MitM attacker add targeted loss per flow and
MI (Section 4.2: "the attacker can drop packets in the +ε and −ε
phases").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

from repro.core.errors import ConfigurationError
from repro.core.metrics import TimeSeries, coefficient_of_variation
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.pcc.controller import ControlState, MonitorResult, PccAllegroController


def oscillation_stats(rates: Sequence[float]) -> Dict[str, float]:
    """``{"mean", "cv", "amplitude"}`` of a rate series.

    ``cv`` is σ/|µ| (population σ; 0 for fewer than two rates) and
    ``amplitude`` the peak-to-peak swing (max − min)/µ (0 when µ is 0).
    An empty series is all zeros.
    """
    if not rates:
        return {"mean": 0.0, "cv": 0.0, "amplitude": 0.0}
    mean = sum(rates) / len(rates)
    cv = coefficient_of_variation(rates) if len(rates) >= 2 else 0.0
    amplitude = (max(rates) - min(rates)) / mean if mean else 0.0
    return {"mean": mean, "cv": cv, "amplitude": amplitude}


@dataclass
class PathModel:
    """The shared bottleneck the PCC flows traverse.

    Loss model: when the aggregate offered rate exceeds ``capacity``,
    the excess is dropped proportionally across flows (fluid tail
    drop); on top of that, ``base_loss`` models ambient random loss.
    """

    capacity: float = 100.0  # Mbps
    base_loss: float = 0.0
    rtt: float = 0.05  # seconds

    def loss_for(self, flow_rate: float, aggregate_rate: float) -> float:
        if flow_rate < 0 or aggregate_rate < 0:
            raise ConfigurationError("rates must be non-negative")
        congestion_loss = 0.0
        if aggregate_rate > self.capacity and aggregate_rate > 0:
            congestion_loss = (aggregate_rate - self.capacity) / aggregate_rate
        loss = congestion_loss + self.base_loss * (1.0 - congestion_loss)
        return min(1.0, max(0.0, loss))


class MiTamper(Protocol):
    """Attacker hook: extra loss to inject for one flow's MI.

    Receives the flow id, the MI start time, the rate the flow used,
    and the natural loss it would observe; returns the loss the flow
    *should* observe instead (>= natural loss — a MitM can only drop
    more, never un-drop).
    """

    def tamper(self, flow_id: int, time: float, rate: float, natural_loss: float) -> float:
        ...


@dataclass
class MiRecord:
    """One flow's monitor interval, as simulated."""

    time: float
    flow_id: int
    result: MonitorResult
    natural_loss: float
    injected_loss: float


class PccSimulation:
    """Run N PCC flows over one bottleneck, MI-synchronised.

    MIs are simulated in lockstep (duration ≈ 1.7–2.2 RTT, jittered per
    the PCC paper to avoid flow synchronisation; we use the mean for
    the shared clock and per-flow jitter only for RCT ordering, which
    is where it matters for the attack).
    """

    MI_RTT_MULTIPLIER = 2.0

    def __init__(
        self,
        path: PathModel,
        flows: int = 1,
        initial_rate: float = 2.0,
        tamper: Optional[MiTamper] = None,
        seed: int = 0,
        controller_kwargs: Optional[dict] = None,
    ):
        if flows < 1:
            raise ConfigurationError("need at least one flow")
        self.path = path
        self.tamper = tamper
        kwargs = controller_kwargs or {}
        self.controllers: List[PccAllegroController] = [
            PccAllegroController(initial_rate=initial_rate, seed=seed + i, **kwargs)
            for i in range(flows)
        ]
        self.records: List[MiRecord] = []
        self.aggregate_rate_series = TimeSeries("pcc.aggregate_rate")
        self._time = 0.0

    @property
    def mi_duration(self) -> float:
        return self.MI_RTT_MULTIPLIER * self.path.rtt

    def _publish_metrics(self) -> None:
        """Write the run's roll-up as gauges on the active registry
        (nothing when metrics are off)."""
        registry = obs_metrics.current()
        if registry is None:
            return
        gauges: Dict[str, float] = {
            "pcc.flows": len(self.controllers),
            "pcc.mis_simulated": len(self.aggregate_rate_series),
            "pcc.injected_loss_total": self.injected_loss_total(),
            "pcc.attack_budget_fraction": self.attack_budget_fraction(),
        }
        for name, value in self.aggregate_rate_series.summary().items():
            gauges[f"pcc.aggregate_rate.{name}"] = value
        for flow_id in range(len(self.controllers)):
            gauges[f"pcc.flow{flow_id}.oscillation_cv"] = self.rate_oscillation(flow_id)
        for name, value in gauges.items():
            registry.gauge_set(name, value)

    def run(self, mis: int) -> None:
        """Advance the simulation by ``mis`` monitor intervals."""
        if mis <= 0:
            raise ConfigurationError("mis must be positive")
        with obs.span("pcc.run", mis=mis, flows=len(self.controllers)):
            self._run(mis)
        self._publish_metrics()

    def _run(self, mis: int) -> None:
        for _ in range(mis):
            rates = [controller.next_rate() for controller in self.controllers]
            aggregate = sum(rates)
            self.aggregate_rate_series.record(self._time, aggregate)
            for flow_id, (controller, rate) in enumerate(zip(self.controllers, rates)):
                natural = self.path.loss_for(rate, aggregate)
                observed = natural
                if self.tamper is not None:
                    observed = self.tamper.tamper(flow_id, self._time, rate, natural)
                    observed = min(1.0, max(natural, observed))
                result = controller.complete_mi(observed)
                self.records.append(
                    MiRecord(
                        time=self._time,
                        flow_id=flow_id,
                        result=result,
                        natural_loss=natural,
                        injected_loss=max(0.0, observed - natural),
                    )
                )
            self._time += self.mi_duration

    # -- analysis -----------------------------------------------------------------

    def flow_rates(self, flow_id: int) -> List[float]:
        return [r.result.rate for r in self.records if r.flow_id == flow_id]

    def tail_rate_stats(self, tail_mis: int = 100) -> List[Dict[str, float]]:
        """Per-flow :func:`oscillation_stats` over the last MIs."""
        return [
            oscillation_stats(self.flow_rates(flow_id)[-tail_mis:])
            for flow_id in range(len(self.controllers))
        ]

    def aggregate_rate_stats(self, tail_mis: int = 100) -> Dict[str, float]:
        """:func:`oscillation_stats` of the recent aggregate rate."""
        return oscillation_stats(list(self.aggregate_rate_series.values)[-tail_mis:])

    def rate_oscillation(self, flow_id: int, tail_mis: int = 100) -> float:
        """Coefficient of variation of the flow's rate over the last MIs.

        The paper's claim is ±5 % fluctuation under attack versus
        convergence without; CV is the standard scalar for that.
        """
        return oscillation_stats(self.flow_rates(flow_id)[-tail_mis:])["cv"]

    def rate_amplitude(self, flow_id: int, tail_mis: int = 100) -> float:
        """(max − min) / mean of the tail rates: peak-to-peak swing."""
        return oscillation_stats(self.flow_rates(flow_id)[-tail_mis:])["amplitude"]

    def aggregate_oscillation(self, tail_mis: int = 100) -> float:
        return self.aggregate_rate_stats(tail_mis)["cv"]

    def time_in_state(self, flow_id: int, state: ControlState, tail_mis: int = 100) -> float:
        """Fraction of the flow's recent MIs spent in ``state``."""
        recent = [r for r in self.records if r.flow_id == flow_id][-tail_mis:]
        if not recent:
            return 0.0
        return sum(1 for r in recent if r.result.state == state) / len(recent)

    def epsilon_trace(self, flow_id: int) -> List[float]:
        """ε used in each decision-making MI (shows the 5 % pinning)."""
        return [
            r.result.epsilon
            for r in self.records
            if r.flow_id == flow_id and r.result.state == ControlState.DECISION
        ]

    def injected_loss_total(self) -> float:
        return sum(r.injected_loss * r.result.rate for r in self.records)

    def attack_budget_fraction(self) -> float:
        """Attacker-dropped traffic as a fraction of all traffic sent."""
        sent = sum(r.result.rate for r in self.records)
        if sent == 0:
            return 0.0
        return self.injected_loss_total() / sent
