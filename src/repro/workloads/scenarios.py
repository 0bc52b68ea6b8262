"""The scenario registry: named attack × workload × fault bindings.

A :class:`ScenarioSpec` binds one attack, one workload class, a seed
grid, attack parameters, and an optional fault plan into a *named,
content-addressed* experiment.  ``scenario_id`` hashes the resolved
binding (never the display name), so two spellings of the same
experiment share an identity — and therefore share result-cache
entries, checkpoints and golden report hashes.

Scenarios flow through the existing machinery unchanged: resolution
produces ordinary ``(attack, params)`` sweeps that
:class:`~repro.runner.parallel.ParallelSweepExecutor` and the result
cache accept as-is.  The workload only
enters through the params (``workload``/``workload_params`` for the
Blink attacks, derived knobs for PCC/Pytheas), so scenario params join
the cache key with no special cases.

Golden report hashes: each registered scenario pins the sha256 of its
:meth:`~repro.runner.checkpoint.SweepReport.aggregate_json` per kernel
backend.  ``repro scenarios run --verify`` (and the CI scenario-smoke
step) recompute and compare — a silent behaviour change anywhere in
the stack fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError, ScenarioSpecError
from repro.workloads.engine import resolve_workload

#: Keys a scenario dict may carry; anything else is a loud error.
_SPEC_KEYS = frozenset(
    (
        "name",
        "attack",
        "workload",
        "description",
        "seeds",
        "params",
        "workload_params",
        "faults",
        "fault_seed",
        "golden",
    )
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario (immutable; see module docstring)."""

    name: str
    attack: str
    workload: str
    description: str = ""
    seeds: Tuple[int, ...] = (0, 1)
    params: Mapping[str, object] = field(default_factory=dict)
    workload_params: Mapping[str, object] = field(default_factory=dict)
    faults: Optional[str] = None
    fault_seed: int = 0
    #: backend name -> pinned sha256 of the aggregate report JSON.
    golden: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioSpecError("a scenario needs a name", key="name")
        if not self.attack:
            raise ScenarioSpecError(f"scenario {self.name!r} needs an attack", key="attack")
        if not self.seeds:
            raise ScenarioSpecError(
                f"scenario {self.name!r} needs at least one seed", key="seeds"
            )
        # Validate the workload name eagerly; registration-time typos
        # must not survive until someone runs the scenario.
        resolve_workload(self.workload)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "workload_params", dict(self.workload_params))
        object.__setattr__(self, "golden", dict(self.golden))

    # -- identity ----------------------------------------------------------

    def binding(self) -> Dict[str, object]:
        """The resolved experiment binding (identity; no display data)."""
        return {
            "attack": self.attack,
            "workload": self.workload,
            "seeds": list(self.seeds),
            "params": dict(self.params),
            "workload_params": dict(self.workload_params),
            "faults": self.faults,
            "fault_seed": int(self.fault_seed),
        }

    @property
    def scenario_id(self) -> str:
        """Content address of the binding — stable across spellings.

        Name, description and goldens are excluded: renaming a scenario
        or (re)pinning its golden must not orphan caches/checkpoints.
        """
        payload = json.dumps(self.binding(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "attack": self.attack,
            "workload": self.workload,
            "seeds": list(self.seeds),
        }
        if self.description:
            out["description"] = self.description
        if self.params:
            out["params"] = dict(self.params)
        if self.workload_params:
            out["workload_params"] = dict(self.workload_params)
        if self.faults is not None:
            out["faults"] = self.faults
        if self.fault_seed:
            out["fault_seed"] = int(self.fault_seed)
        if self.golden:
            out["golden"] = dict(self.golden)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Parse a scenario dict, rejecting unknown or ill-typed keys."""
        if not isinstance(data, Mapping):
            raise ScenarioSpecError(f"scenario spec must be a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise ScenarioSpecError(
                f"scenario spec has unknown key(s) {unknown}; known: {sorted(_SPEC_KEYS)}",
                key=unknown[0],
            )
        for key in ("params", "workload_params", "golden"):
            value = data.get(key)
            if value is not None and not isinstance(value, Mapping):
                raise ScenarioSpecError(f"scenario {key!r} must be a mapping", key=key)
        seeds = data.get("seeds", (0, 1))
        if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Iterable):
            raise ScenarioSpecError("scenario 'seeds' must be a list of integers", key="seeds")
        try:
            seeds = tuple(int(s) for s in seeds)
        except (TypeError, ValueError):
            raise ScenarioSpecError(
                "scenario 'seeds' must be a list of integers", key="seeds"
            ) from None
        try:
            return cls(
                name=str(data.get("name", "")),
                attack=str(data.get("attack", "")),
                workload=str(data.get("workload", "")),
                description=str(data.get("description", "")),
                seeds=seeds,
                params=dict(data.get("params") or {}),
                workload_params=dict(data.get("workload_params") or {}),
                faults=(None if data.get("faults") is None else str(data["faults"])),
                fault_seed=int(data.get("fault_seed", 0)),
                golden=dict(data.get("golden") or {}),
            )
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioSpecError(f"ill-typed scenario spec: {exc}") from None

    # -- resolution --------------------------------------------------------

    def resolve_params(self) -> Dict[str, object]:
        """The sweep base params this scenario's binding stands for.

        The workload enters each attack family through its native knob:
        the Blink attacks take ``workload``/``workload_params``
        directly; PCC's utility sway and Pytheas's session load are
        derived from the workload class's declared load profile.  The
        scenario's own ``params`` always win over derived values.
        """
        profile = resolve_workload(self.workload).profile
        base: Dict[str, object] = {}
        if self.attack.startswith("blink-"):
            base["workload"] = self.workload
            if self.workload_params:
                base["workload_params"] = dict(self.workload_params)
        elif self.attack == "pcc-utility-equalisation":
            # The load shape drives the honest flows' utility sway: the
            # surge ratio sets the amplitude, the shaper period its beat.
            mean = max(profile.get("mean_multiplier", 1.0), 1e-9)
            surge = profile.get("peak_multiplier", 1.0) / mean
            base["workload"] = self.workload
            base["sway_amplitude"] = round(min(0.45, 0.10 * surge), 6)
            base["sway_period"] = float(profile.get("period", 20.0))
        elif self.attack == "pytheas-report-poisoning":
            # Session volume scales with the workload's mean load.
            base["workload"] = self.workload
            base["sessions_per_round"] = max(
                1, int(round(100 * profile.get("mean_multiplier", 1.0)))
            )
        else:
            base["workload"] = self.workload
        if self.faults is not None:
            base["faults"] = self.faults
            base["fault_seed"] = int(self.fault_seed)
        base.update(self.params)
        return base


# -- the registry -----------------------------------------------------------

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in _REGISTRY:
        raise ScenarioSpecError(f"scenario {spec.name!r} already registered", key="name")
    _REGISTRY[spec.name] = spec
    return spec


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def resolve_scenario(name_or_spec: Union[str, ScenarioSpec]) -> ScenarioSpec:
    if isinstance(name_or_spec, ScenarioSpec):
        return name_or_spec
    try:
        return _REGISTRY[str(name_or_spec)]
    except KeyError:
        raise ScenarioSpecError(
            f"unknown scenario {name_or_spec!r}; choose from {scenario_names()}",
            key="name",
        ) from None


# The shipped scenarios.  Packet-level cells scale flow sizes down
# (``size_scale``) and cap per-flow packets so a cell stays ~a second;
# the statistical test layer exercises the *unscaled* samplers.  Each
# binding varies the selector geometry and attack size, so aggregates
# — and therefore goldens — are distinct per scenario.
_PACKET_WORKLOAD = {"size_scale": 0.05, "max_packets": 400}

register_scenario(ScenarioSpec(
    name="blink-web-search",
    attack="blink-capture-packet-level",
    workload="web-search",
    description="Blink capture through the full pipeline under web-search traffic",
    seeds=(0, 1),
    params={"horizon": 40.0, "cells": 16, "malicious_flows": 24},
    workload_params=dict(_PACKET_WORKLOAD),
    golden={
        "python": "458499cc6d20444b13a511a0e63a1f54a989ef2889d3ef168d7a37493c67cb6e",
        "numpy": "458499cc6d20444b13a511a0e63a1f54a989ef2889d3ef168d7a37493c67cb6e",
    },
))

register_scenario(ScenarioSpec(
    name="blink-data-mining",
    attack="blink-capture-packet-level",
    workload="data-mining",
    description="Blink capture under a dense, heavy-tailed data-mining mix",
    seeds=(0, 1),
    params={"horizon": 40.0, "cells": 12, "malicious_flows": 20},
    workload_params={"size_scale": 0.05, "max_packets": 400, "rate": 16.0},
    golden={
        "python": "161652214c5973dce6bb06f0ebfd7f65df9e6b4ec891053e1b886c859f3e6f19",
        "numpy": "161652214c5973dce6bb06f0ebfd7f65df9e6b4ec891053e1b886c859f3e6f19",
    },
))

register_scenario(ScenarioSpec(
    name="blink-incast",
    attack="blink-capture-packet-level",
    workload="incast",
    description="Blink capture amid synchronised incast bursts",
    seeds=(0, 1),
    params={"horizon": 40.0, "cells": 16, "malicious_flows": 20},
    workload_params={"size_scale": 0.05, "max_packets": 400,
                     "period": 1.0, "fan_in": 48},
    golden={
        "python": "48378477d066b3e6118470e6425517a6192d2bb218ec056202da2a843b444172",
        "numpy": "48378477d066b3e6118470e6425517a6192d2bb218ec056202da2a843b444172",
    },
))

register_scenario(ScenarioSpec(
    name="blink-flash-crowd",
    attack="blink-capture-packet-level",
    workload="flash-crowd",
    description="Blink capture while a flash crowd floods the selector with fresh flows",
    seeds=(0, 1),
    params={"horizon": 40.0, "cells": 16, "malicious_flows": 24, "defended": True},
    workload_params=dict(_PACKET_WORKLOAD),
    golden={
        "python": "0a4328dd6f5752b7c695baa78fdfaa3a200694ea351e0a531da5f72d279f45e0",
        "numpy": "0a4328dd6f5752b7c695baa78fdfaa3a200694ea351e0a531da5f72d279f45e0",
    },
))

register_scenario(ScenarioSpec(
    name="blink-elephant-mice",
    attack="blink-capture-packet-level",
    workload="elephant-mice",
    description="Blink capture over a bimodal elephant/mice population",
    seeds=(0, 1),
    params={"horizon": 40.0, "cells": 20, "malicious_flows": 28},
    workload_params={"size_scale": 0.01, "max_packets": 400},
    golden={
        "python": "05e04ffa1c3bf14974bec9570b66d32de22e661f5726f3ad8bd5fa5c3a98e6d9",
        "numpy": "05e04ffa1c3bf14974bec9570b66d32de22e661f5726f3ad8bd5fa5c3a98e6d9",
    },
))

register_scenario(ScenarioSpec(
    name="blink-analytical-web-search",
    attack="blink-capture-analytical",
    workload="web-search",
    description="Fig. 2 feasibility with tR recalibrated for web-search traffic",
    seeds=(0, 1, 2),
    params={"runs": 30, "horizon": 300.0},
    workload_params={"tr_horizon": 40.0, "size_scale": 0.05, "max_packets": 400},
    golden={
        "python": "52ec20744e11f11c8c7225f70730b2b41851e44b9728cc9380a3ed5a286f8cc9",
        "numpy": "5e91ac57ae0712085d0f893353661b8c38bec79d758e4ea0bd0a9744a2425a2f",
    },
))

register_scenario(ScenarioSpec(
    name="blink-analytical-data-mining",
    attack="blink-capture-analytical",
    workload="data-mining",
    description="Fig. 2 feasibility with tR recalibrated for data-mining traffic",
    seeds=(0, 1, 2),
    params={"runs": 30, "horizon": 300.0},
    workload_params={"tr_horizon": 40.0, "size_scale": 0.01, "max_packets": 400},
    golden={
        "python": "88a891fd6e9bffc5d4e68f683f2483b88b1c585986fd01b61be1def7bdad9854",
        "numpy": "8ddd0e97f05fffee0e0fca520dd00c675b02ce39e15f9bbce0859b9a0e64feb2",
    },
))

register_scenario(ScenarioSpec(
    name="pcc-diurnal-sway",
    attack="pcc-utility-equalisation",
    workload="diurnal",
    description="PCC equalisation while honest utilities sway with the diurnal load",
    seeds=(0, 1),
    params={"mis": 400, "warmup_mis": 100, "tail_mis": 100},
    golden={
        "python": "ebabf356bc428e5e0be2a7b630c544bd2ba360cf44b8e7f27ff229d069e36d79",
        "numpy": "94830b343a096eb541847b7193625e33b22684dce485582579033c852ded926e",
    },
))

register_scenario(ScenarioSpec(
    name="pytheas-flash-crowd",
    attack="pytheas-report-poisoning",
    workload="flash-crowd",
    description="Pytheas poisoning while a flash crowd multiplies session volume",
    seeds=(0, 1),
    params={"rounds": 60, "tail_rounds": 10},
    golden={
        "python": "ef577290b58089d92b97dad74bebe19806704a04ae5a688155e9a4c3f1fd73f0",
        "numpy": "ba2340e6e455dad942c175535efa9d219f586925dd8b1726e3041ecb6f523d66",
    },
))


# -- running ----------------------------------------------------------------


@dataclass
class ScenarioRun:
    """Outcome of one scenario execution."""

    spec: ScenarioSpec
    backend: str
    report: object  # SweepReport
    report_hash: str

    @property
    def golden_hash(self) -> Optional[str]:
        return self.spec.golden.get(self.backend)

    @property
    def matches_golden(self) -> Optional[bool]:
        """True/False against the pinned hash; None when nothing is pinned."""
        golden = self.golden_hash
        if not golden:
            return None
        return golden == self.report_hash


def report_hash(report) -> str:
    """sha256 of the deterministic aggregate JSON (the golden hash)."""
    return hashlib.sha256(report.aggregate_json().encode("utf-8")).hexdigest()


def run_scenario(
    name_or_spec: Union[str, ScenarioSpec],
    jobs: Optional[int] = None,
    cache=None,
    checkpoint_path: Optional[str] = None,
    backend: Optional[str] = None,
) -> ScenarioRun:
    """Execute one scenario through the standard sweep machinery.

    Mirrors ``repro run --seeds``: a non-default backend joins the
    params (and thereby every cache key); default runs keep their
    historical keys.  Per-scenario obs counters are emitted under
    ``scenarios.runs.<name>`` so dashboards can slice by scenario.
    """
    from repro.kernels import DEFAULT_BACKEND, resolve_backend_name
    from repro.obs import metrics as obs_metrics
    from repro.runner import ParallelSweepExecutor, RegistryAttackFactory, seed_cells

    spec = resolve_scenario(name_or_spec)
    resolved_backend = resolve_backend_name(backend)
    params = spec.resolve_params()
    if resolved_backend != DEFAULT_BACKEND:
        params["backend"] = resolved_backend
    cells = seed_cells(params, spec.seeds)
    executor = ParallelSweepExecutor(jobs=jobs, cache=cache)
    label = obs_metrics.label(spec.name)
    obs_metrics.inc(f"scenarios.runs.{label}")
    report = executor.run(
        RegistryAttackFactory(spec.attack), cells, checkpoint_path=checkpoint_path
    )
    digest = report_hash(report)
    run = ScenarioRun(
        spec=spec, backend=resolved_backend, report=report, report_hash=digest
    )
    if run.matches_golden is False:
        obs_metrics.inc(f"scenarios.golden_mismatch.{label}")
    return run


def with_golden(spec: ScenarioSpec, backend: str, digest: str) -> ScenarioSpec:
    """A copy of ``spec`` with one backend's golden hash (re)pinned."""
    golden = dict(spec.golden)
    golden[backend] = digest
    return replace(spec, golden=golden)
