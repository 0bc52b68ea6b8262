"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed, runs them through
the program's public entry points, and splits the wall time of one
repetition into ``run_s`` (the program's timed region) and ``setup_s``
(the rest of the call: set-up before the timed region and the analysis
and report after it, so work moved out of the timed region either way
shows in ``setup_s``).  Why each workload exists is in ``WHY``
and in ``README.md``.

Correctness: every repetition yields a digest (``report_hash`` or the
scenario hashes).  :func:`check` rejects a run whose repetitions
disagree, whose outcome misses the workload's invariants, whose digest
differs from a second execution path the program promises is
byte-identical (``reference``), or — at :data:`DEFAULT_SEED` — whose
digest differs from the pinned one.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

DEFAULT_SEED = 0

#: The program's sources, next to this benchmark's directory.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: E2 shape (paper §3.1, Fig. 2): 2000 legitimate flows with a 3 s
#: median duration and Blink's 64-cell sample.  1000 attack flows
#: (paper: 105) bring capture and reroute inside a 20 s horizon: over
#: seeds 0-12 half the sample falls at 6-12 s, first reroute by 13.5 s.
E2_HORIZON = 20.0
E2_LEGIT_FLOWS = 2000
E2_ATTACK_FLOWS = 1000
E2_CELLS = 64
E2_MEDIAN_DURATION = 3.0

#: Forwarding: four dense 128-router islands on a 60 ms backbone ring,
#: split into two shards along the island seams; elephant-mice flows
#: mostly inside one island plus a cross-cut trickle (~83k events).
#: Many slow flows rather than few fast ones: the elephant count then
#: varies less with the seed, and so does the work (events over seeds
#: 0-7: coefficient of variation 0.019, against 0.066 with 60 flows a
#: region at 60 packets/s).
FWD_REGIONS = 4
FWD_CLUSTER_NODES = 128
FWD_ENDPOINTS_PER_REGION = 16
FWD_REGION_FLOWS = 160
FWD_CROSS_FLOWS = 64
FWD_HORIZON = 3.0
FWD_BACKBONE_DELAY_S = 0.060
FWD_KNOBS = {"rate": 160.0, "packet_rate": 15.0}

#: Scenario seeds move by this stride per benchmark seed; at
#: DEFAULT_SEED they are the registered seeds the goldens pin.
SCENARIO_SEED_STRIDE = 1000

#: Worker processes: the box has two cores, and load stays within them.
JOBS = 2
SHARDS = 2

#: Digests at DEFAULT_SEED.  Both E2 workloads must produce the same one;
#: the scenario sweep is pinned by the registry's own golden hashes.
_E2_PINNED = "34df25c7bfe67e822fbe018eef63416decb1a23665767900d30bfb864c3969b3"
PINNED = {
    "e2-blink": _E2_PINNED,
    "e2-blink-2shard": _E2_PINNED,
    "fwd-2shard": "4b0575cb52c56e76fd3855f5ab7a8c9b0e658641c7f2909dd49551cd69692004",
}

WHY = {
    "e2-blink": "paper E2 on one event loop; Blink and trace aggregation do most of the work",
    "e2-blink-2shard": "E2 inputs on two forked shards; the only run of the sharded fan-in engine and ordered merge",
    "fwd-2shard": "multi-hop forwarding on two shards; no Blink or trace layer, so their changes must not move it",
    "scenario-sweep": "the nine golden scenarios through the sweep runner; covers attacks, pcc, pytheas and workloads",
}


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    run_s: float
    digest: str
    work: float  # packets, events or cells done in the timed region
    problems: List[str] = field(default_factory=list)
    report: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    shards: int
    run: Callable[[int], Rep]
    reference: Callable[[int], str]
    imports: tuple


# -- E2 ------------------------------------------------------------------


def _e2_call(seed: int, shards: int, scheduler: Optional[str] = None):
    from repro.blink.packet_level import packet_level_experiment
    from repro.flows.generators import DurationDistribution

    return packet_level_experiment(
        horizon=E2_HORIZON,
        legitimate_flows=E2_LEGIT_FLOWS,
        malicious_flows=E2_ATTACK_FLOWS,
        duration_model=DurationDistribution(median=E2_MEDIAN_DURATION),
        cells=E2_CELLS,
        seed=seed,
        shards=shards,
        scheduler=scheduler,
    )


def _e2_rep(shards: int) -> Callable[[int], Rep]:
    def rep(seed: int) -> Rep:
        started = time.perf_counter()
        report = _e2_call(seed, shards)
        total = time.perf_counter() - started
        problems = []
        if report.crossing_time is None:
            problems.append("attack flows never held half the sample")
        if report.reroutes <= 0:
            problems.append("Blink never rerouted")
        return Rep(
            setup_s=total - report.wall_seconds,
            run_s=report.wall_seconds,
            digest=report.report_hash,
            work=report.packets,
            problems=problems,
            report=report,
        )

    return rep


def _e2_reference(seed: int) -> str:
    # Same inputs, one loop, the other scheduler: byte-identical by contract.
    return _e2_call(seed, shards=1, scheduler="calendar").report_hash


# -- forwarding ------------------------------------------------------------


def _fwd_inputs(seed: int):
    from repro.netsim.forwarding import iter_forwarding_flows
    from repro.netsim.topology import cluster_assignment, clustered_random_topology

    topology = clustered_random_topology(
        FWD_REGIONS, FWD_CLUSTER_NODES, seed=seed, backbone_delay_s=FWD_BACKBONE_DELAY_S
    )
    regions = cluster_assignment(topology, FWD_REGIONS)
    pools = []
    for region in range(FWD_REGIONS):
        members = sorted(n for n, r in regions.items() if r == region)
        # Skip each island's gateway so no flow starts on the backbone.
        pools.append([n for n in members if not n.endswith("n0")][:FWD_ENDPOINTS_PER_REGION])
    endpoints = [node for pool in pools for node in pool]
    streams = [
        iter_forwarding_flows(
            "elephant-mice", pool, seed=seed + region, horizon=FWD_HORIZON,
            flows=FWD_REGION_FLOWS, **FWD_KNOBS,
        )
        for region, pool in enumerate(pools)
    ]
    streams.append(
        iter_forwarding_flows(
            "elephant-mice", endpoints, seed=seed + 97, horizon=FWD_HORIZON,
            flows=FWD_CROSS_FLOWS, **FWD_KNOBS,
        )
    )
    return topology, endpoints, itertools.chain.from_iterable(streams)


def _fwd_call(seed: int, shards: int, scheduler: Optional[str] = None):
    from repro.netsim.forwarding import forwarding_experiment
    from repro.netsim.topology import cluster_assignment

    topology, endpoints, flows = _fwd_inputs(seed)
    assignment = cluster_assignment(topology, shards) if shards > 1 else None
    return forwarding_experiment(
        topology,
        flows,
        FWD_HORIZON,
        seed=seed,
        shards=shards,
        scheduler=scheduler,
        assignment=assignment,
        endpoints=endpoints,
    )


def _fwd_rep(seed: int) -> Rep:
    started = time.perf_counter()
    report = _fwd_call(seed, SHARDS)
    total = time.perf_counter() - started
    problems = []
    if report.delivered <= 0:
        problems.append("no packet was delivered")
    if report.shards != SHARDS:
        problems.append(f"ran on {report.shards} shards, not {SHARDS}")
    return Rep(
        setup_s=total - report.wall_seconds,
        run_s=report.wall_seconds,
        digest=report.report_hash,
        work=report.events,
        problems=problems,
        report=report,
    )


def _fwd_reference(seed: int) -> str:
    # One monolithic network: the reference every shard count must match.
    return _fwd_call(seed, shards=1, scheduler="calendar").report_hash


# -- scenario sweep --------------------------------------------------------


def scenario_specs(seed: int):
    """The nine registered scenarios, seeds moved by the benchmark seed."""
    from repro.workloads.scenarios import resolve_scenario, scenario_names

    shift = (seed - DEFAULT_SEED) * SCENARIO_SEED_STRIDE
    return [
        replace(spec, seeds=tuple(s + shift for s in spec.seeds))
        for spec in map(resolve_scenario, scenario_names())
    ]


_COLD_SETUP = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro.attacks\n"
    "from repro.runner import seed_cells\n"
    "from repro.workloads import scenarios\n"
    "for name in scenarios.scenario_names():\n"
    "    spec = scenarios.resolve_scenario(name)\n"
    "    seed_cells(spec.resolve_params(), spec.seeds)\n"
    "print(time.perf_counter() - t)\n"
)


def _cold_setup_s() -> float:
    """What ``repro scenarios run`` pays before its first cell.

    A fresh interpreter imports the sweep stack and resolves every
    scenario's parameters; the timer runs inside it, so interpreter
    start-up is excluded.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, "-c", _COLD_SETUP],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _sweep(seed: int, jobs: int):
    from repro.workloads.scenarios import run_scenario

    return [run_scenario(spec, jobs=jobs) for spec in scenario_specs(seed)]


def _sweep_digest(runs) -> str:
    return ",".join(run.report_hash for run in runs)


def _sweep_rep(seed: int) -> Rep:
    # Each repetition also times one cold start: a single sample per run
    # was too few for a steady median.
    setup_s = _cold_setup_s()
    started = time.perf_counter()
    runs = _sweep(seed, JOBS)
    run_s = time.perf_counter() - started
    problems = []
    for run in runs:
        if run.report.failed:
            problems.append(f"{run.spec.name}: {run.report.failed} cell(s) failed")
        if seed == DEFAULT_SEED and run.matches_golden is not True:
            problems.append(f"{run.spec.name}: golden mismatch ({run.report_hash[:12]})")
    return Rep(
        setup_s=setup_s,
        run_s=run_s,
        digest=_sweep_digest(runs),
        work=sum(len(run.report.cells) for run in runs),
        problems=problems,
        report=runs,
    )


def _sweep_reference(seed: int) -> str:
    # Serial, in-process execution: --jobs N == --jobs 1 by contract.
    return _sweep_digest(_sweep(seed, jobs=1))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "e2-blink", "packets", 1, _e2_rep(1), _e2_reference,
            ("repro.blink.packet_level",),
        ),
        Workload(
            "e2-blink-2shard", "packets", SHARDS, _e2_rep(SHARDS), _e2_reference,
            ("repro.blink.packet_level",),
        ),
        Workload(
            "fwd-2shard", "events", SHARDS, _fwd_rep, _fwd_reference,
            ("repro.netsim.forwarding", "repro.netsim.topology"),
        ),
        Workload(
            "scenario-sweep", "cells", 1, _sweep_rep, _sweep_reference,
            ("repro.workloads.scenarios", "repro.attacks", "repro.runner"),
        ),
    )
}


def check(workload: Workload, seed: int, reps: List[Rep], reference: Optional[str]) -> List[str]:
    """Run-level reasons the output is wrong; empty when it is right.

    A repetition's own failures are in its ``problems``.  Here: the
    repetitions (traced and untraced alike) must agree, match the digest
    of the second execution path ``reference``, and match the pinned
    digest at :data:`DEFAULT_SEED`.
    """
    problems: List[str] = []
    digests = sorted({rep.digest for rep in reps})
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {[d[:12] for d in digests]}")
    digest = reps[0].digest
    if reference is not None and digest != reference:
        problems.append(f"reference path gives {reference[:12]}, run gives {digest[:12]}")
    pinned = PINNED.get(workload.name)
    if seed == DEFAULT_SEED and pinned is not None and digest != pinned:
        problems.append(f"pinned digest {pinned[:12]}, run gives {digest[:12]}")
    return problems
