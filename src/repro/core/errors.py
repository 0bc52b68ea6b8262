"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that
callers can catch everything raised by this package with a single
``except`` clause while still being able to discriminate finer-grained
failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state.

    Watchdog raises attach the context a post-mortem needs: the
    simulation time at which the guard tripped and the number of
    pending (non-cancelled) events still queued.  Both default to None
    for errors raised outside the run loop.
    """

    def __init__(
        self,
        message: str,
        sim_time: "float | None" = None,
        queue_depth: "int | None" = None,
    ):
        super().__init__(message)
        self.sim_time = sim_time
        self.queue_depth = queue_depth


class ExperimentTimeout(SimulationError):
    """A run exceeded its wall-clock budget (runner or loop watchdog).

    Subclasses :class:`SimulationError` so the resilient runner's
    default retry predicate treats a hang like any other transient
    simulation failure.
    """


class WorkerCrashError(SimulationError):
    """A sweep worker process died mid-cell (pool broken).

    Raised by the parallel executor when the process pool reports a
    broken worker (``kill -9``, OOM, an ``os._exit`` chaos fault).
    Subclasses :class:`SimulationError` so retry policies treat a
    crashed worker as transient.
    """


class ShardCrashError(SimulationError):
    """A shard worker process of the sharded event engine died mid-run.

    Raised by the coordinator when a per-shard event-loop process
    disappears (``kill -9``, OOM, an ``os._exit`` chaos fault) instead
    of acknowledging its lookahead window — the coordinator fails fast
    rather than hanging on the pipe read.  Carries the simulation time
    of the window being synchronised and the dead shard's index.
    Subclasses :class:`SimulationError` so the resilient runner's
    default retry predicate treats it as transient; callers can degrade
    to a single-shard retry (see
    :func:`repro.netsim.sharded.degrade_to_single_shard`).
    """

    def __init__(
        self,
        message: str,
        sim_time: "float | None" = None,
        shard: "int | None" = None,
    ):
        super().__init__(message, sim_time=sim_time)
        self.shard = shard


class FaultSpecError(ConfigurationError):
    """A ``--faults`` specification could not be parsed or validated.

    Carries the offending clause so CLI error messages can point at
    exactly the part of the spec that is wrong.
    """

    def __init__(self, message: str, clause: str = ""):
        super().__init__(message)
        self.clause = clause


class ScenarioSpecError(ConfigurationError):
    """A scenario specification is malformed.

    Raised when parsing a scenario dict with unknown or ill-typed keys,
    or when resolving a scenario name that is not registered.  Carries
    the offending key so CLI messages can point at it.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


class CheckpointError(ReproError):
    """A sweep checkpoint file is unreadable, corrupt or mismatched."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped engine."""

    def __init__(self, message: str, event_time: float = float("nan"), now: float = float("nan")):
        super().__init__(message)
        self.event_time = event_time
        self.now = now


class RoutingError(SimulationError):
    """No route exists (or a routing table is inconsistent) for a packet."""


class PrivilegeError(ReproError):
    """An attacker attempted an action beyond its privilege level.

    The threat model of the paper (Section 2.1) distinguishes *host*,
    *man-in-the-middle* and *operator* attackers.  Attack implementations
    declare the privileges they require; driving an attack with a weaker
    attacker raises this error instead of silently granting powers the
    threat model does not allow.
    """

    def __init__(self, message: str, required: object = None, actual: object = None):
        super().__init__(message)
        self.required = required
        self.actual = actual


class DecodeError(ReproError):
    """A probabilistic data structure could not be decoded.

    Raised by FlowRadar / LossRadar style sketches when the encoded
    flowset contains no pure cell, e.g. after a pollution attack
    (Section 3.2 of the paper).
    """

    def __init__(self, message: str, decoded: int = 0, remaining: int = 0):
        super().__init__(message)
        self.decoded = decoded
        self.remaining = remaining


class SupervisorVeto(ReproError):
    """The supervisor rejected a driver decision (Section 5, Fig. 3).

    Carries the rejected decision and the risk estimate that triggered
    the veto so callers (and tests) can inspect why the driver was
    constrained.
    """

    def __init__(self, message: str, decision: object = None, risk: float = float("nan")):
        super().__init__(message)
        self.decision = decision
        self.risk = risk
