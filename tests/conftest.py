"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.flows.flow import FiveTuple
from repro.netsim.events import EventLoop
from repro.netsim.network import Network
from repro.netsim.topology import (
    dumbbell_topology,
    line_topology,
    triangle_with_hosts,
)


@pytest.fixture(params=["heap", "calendar"])
def loop(request) -> EventLoop:
    """An event loop, parametrized over both scheduler backends.

    Every test that drives a loop directly therefore runs twice —
    cheap, broad parity coverage on top of the dedicated equivalence
    suite in ``test_netsim_scheduler.py``.
    """
    return EventLoop(scheduler=request.param)


@pytest.fixture
def retired_engine_env(monkeypatch) -> None:
    """Set the engine variables older releases read (``REPRO_`` plus
    SCHEDULER, SHARDS and ADAPTIVE_WINDOW) to heap, 2 and 1: values that
    once moved a run off its defaults.  Nothing reads them any more."""
    for knob, value in (("SCHEDULER", "heap"), ("SHARDS", "2"), ("ADAPTIVE_WINDOW", "1")):
        monkeypatch.setenv("REPRO_" + knob, value)


@pytest.fixture
def flow() -> FiveTuple:
    return FiveTuple("10.0.0.1", "198.51.100.7", 43210, 443)


@pytest.fixture
def line_network() -> Network:
    """A 4-router line with a host on each end."""
    topo = line_topology(4)
    topo.add_node("src", role="host")
    topo.add_node("dst", role="host")
    topo.add_link("src", "r0", delay_s=0.0005)
    topo.add_link("dst", "r3", delay_s=0.0005)
    return Network(topo, seed=1)


@pytest.fixture
def triangle_network() -> Network:
    return Network(triangle_with_hosts(), seed=1)


@pytest.fixture
def dumbbell_network() -> Network:
    return Network(dumbbell_topology(2), seed=1)
