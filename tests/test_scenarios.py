"""Scenario registry: identity, resolution, goldens, CLI contract.

Satellite-2 layer: Hypothesis pins the spec round-trip and the
content-address (``scenario_id``) stability rules — the id must ignore
display data (name, description, goldens) and spelling (list vs tuple
seeds, key order) while tracking every binding change.  The run-layer
tests execute every registered scenario against its pinned golden, and
one cheap scenario through the result cache and through the ``repro
scenarios`` CLI (exit code 6 on golden mismatch).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import GOLDEN_MISMATCH_EXIT_CODE, main
from repro.core.errors import ScenarioSpecError
from repro.workloads.engine import WORKLOAD_CLASSES
from repro.workloads.scenarios import (
    _REGISTRY,
    ScenarioSpec,
    register_scenario,
    report_hash,
    resolve_scenario,
    run_scenario,
    scenario_names,
    with_golden,
)

#: The cheapest registered scenario — used wherever a real run is needed.
CHEAP = "blink-analytical-web-search"


# -- registry invariants -----------------------------------------------------


class TestRegistry:
    def test_at_least_six_scenarios_over_four_classes(self):
        names = scenario_names()
        assert len(names) >= 6
        classes = {resolve_scenario(n).workload for n in names}
        assert len(classes) >= 4
        assert classes <= set(WORKLOAD_CLASSES)

    def test_every_scenario_pins_a_golden(self):
        for name in scenario_names():
            digest = resolve_scenario(name).golden
            assert isinstance(digest, str) and len(digest) == 64, name
            assert int(digest, 16) >= 0

    def test_ids_unique(self):
        ids = [resolve_scenario(n).scenario_id for n in scenario_names()]
        assert len(set(ids)) == len(ids)

    def test_duplicate_registration_rejected(self):
        spec = resolve_scenario(CHEAP)
        with pytest.raises(ScenarioSpecError):
            register_scenario(spec)

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioSpecError, match="unknown scenario"):
            resolve_scenario("blink-on-mars")

    def test_resolve_passes_spec_through(self):
        spec = resolve_scenario(CHEAP)
        assert resolve_scenario(spec) is spec

    @pytest.mark.parametrize(
        "name",
        [
            "blink-web-search",
            "blink-data-mining",
            "blink-incast",
            "blink-flash-crowd",
            "blink-elephant-mice",
        ],
    )
    def test_binds_packet_level_attack(self, name):
        # Their goldens are checked by TestRunScenario's parametrized run.
        assert resolve_scenario(name).attack == "blink-capture-packet-level"


# -- spec validation ---------------------------------------------------------


class TestSpecValidation:
    def test_needs_name_attack_seeds(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(name="", attack="a", workload="web-search")
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(name="x", attack="", workload="web-search")
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(name="x", attack="a", workload="web-search", seeds=())

    def test_workload_validated_eagerly(self):
        with pytest.raises(Exception, match="unknown workload class"):
            ScenarioSpec(name="x", attack="a", workload="torrents")

    def test_unknown_key_rejected_with_key_attr(self):
        with pytest.raises(ScenarioSpecError) as exc:
            ScenarioSpec.from_dict(
                {"name": "x", "attack": "a", "workload": "web-search",
                 "sedes": [0]}
            )
        assert exc.value.key == "sedes"

    @pytest.mark.parametrize(
        "bad",
        [
            {"seeds": "012"},
            {"seeds": ["zero"]},
            {"params": [1, 2]},
            {"workload_params": "rate=2"},
            {"golden": 7},
            {"golden": {"python": "ab" * 32}},
            {"golden": None},
        ],
    )
    def test_ill_typed_fields_rejected(self, bad):
        data = {"name": "x", "attack": "a", "workload": "web-search", **bad}
        with pytest.raises(ScenarioSpecError) as exc:
            ScenarioSpec.from_dict(data)
        if "golden" in bad:
            assert exc.value.key == "golden"

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.from_dict(["not", "a", "dict"])


# -- Hypothesis: round-trip and id stability ---------------------------------

_params = st.dictionaries(
    st.sampled_from(["runs", "horizon", "cells", "mis", "rounds"]),
    st.one_of(st.integers(min_value=1, max_value=500),
              st.floats(min_value=0.5, max_value=100.0)),
    max_size=3,
)


@st.composite
def scenario_specs(draw):
    return ScenarioSpec(
        name=draw(st.text(min_size=1, max_size=20)),
        attack=draw(st.sampled_from(
            ["blink-capture-packet-level", "blink-capture-analytical",
             "pcc-utility-equalisation", "pytheas-report-poisoning"]
        )),
        workload=draw(st.sampled_from(sorted(WORKLOAD_CLASSES))),
        description=draw(st.text(max_size=30)),
        seeds=tuple(draw(st.lists(st.integers(min_value=0, max_value=99),
                                  min_size=1, max_size=4))),
        params=draw(_params),
        workload_params=draw(st.dictionaries(
            st.sampled_from(["rate", "size_scale"]),
            st.floats(min_value=0.01, max_value=16.0), max_size=2,
        )),
        faults=draw(st.one_of(st.none(), st.just("drop:p=0.01"))),
        fault_seed=draw(st.integers(min_value=0, max_value=9)),
        golden=draw(st.one_of(
            st.none(), st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
        )),
    )


@given(spec=scenario_specs())
@settings(max_examples=60, deadline=None)
def test_round_trip(spec):
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.scenario_id == spec.scenario_id


@given(spec=scenario_specs())
@settings(max_examples=40, deadline=None)
def test_id_ignores_display_data(spec):
    """Rename, re-describe or re-pin goldens: the id must not move."""
    from dataclasses import replace

    assert replace(spec, name="renamed").scenario_id == spec.scenario_id
    assert replace(spec, description="other").scenario_id == spec.scenario_id
    assert (
        with_golden(spec, "ab" * 32).scenario_id == spec.scenario_id
    )


@given(spec=scenario_specs())
@settings(max_examples=40, deadline=None)
def test_id_tracks_binding_changes(spec):
    from dataclasses import replace

    assert replace(spec, seeds=spec.seeds + (1000,)).scenario_id != spec.scenario_id
    assert (
        replace(spec, fault_seed=spec.fault_seed + 1).scenario_id
        != spec.scenario_id
    )


@given(spec=scenario_specs())
@settings(max_examples=40, deadline=None)
def test_id_ignores_spelling(spec):
    """list-vs-tuple seeds and param insertion order are not identity."""
    as_dict = spec.to_dict()
    as_dict["seeds"] = list(spec.seeds)  # list spelling
    if "params" in as_dict:
        as_dict["params"] = dict(reversed(list(as_dict["params"].items())))
    assert ScenarioSpec.from_dict(as_dict).scenario_id == spec.scenario_id


# -- param resolution --------------------------------------------------------


class TestResolveParams:
    def test_blink_gets_workload_directly(self):
        spec = resolve_scenario("blink-web-search")
        params = spec.resolve_params()
        assert params["workload"] == "web-search"
        assert params["workload_params"]["size_scale"] == 0.05
        assert params["cells"] == 16  # scenario params win

    def test_pcc_derives_sway_from_profile(self):
        spec = resolve_scenario("pcc-diurnal-sway")
        params = spec.resolve_params()
        profile = WORKLOAD_CLASSES["diurnal"].profile
        surge = profile["peak_multiplier"] / profile["mean_multiplier"]
        assert params["sway_amplitude"] == round(min(0.45, 0.10 * surge), 6)
        assert params["sway_period"] == profile["period"]

    def test_pytheas_derives_session_volume(self):
        spec = resolve_scenario("pytheas-flash-crowd")
        params = spec.resolve_params()
        mean = WORKLOAD_CLASSES["flash-crowd"].profile["mean_multiplier"]
        assert params["sessions_per_round"] == int(round(100 * mean))

    def test_explicit_params_override_derived(self):
        spec = ScenarioSpec(
            name="override", attack="pcc-utility-equalisation",
            workload="diurnal", params={"sway_amplitude": 0.2},
        )
        assert spec.resolve_params()["sway_amplitude"] == 0.2

    def test_faults_flow_through(self):
        spec = ScenarioSpec(
            name="faulted", attack="blink-capture-analytical",
            workload="web-search", faults="drop:p=0.01", fault_seed=5,
        )
        params = spec.resolve_params()
        assert params["faults"] == "drop:p=0.01"
        assert params["fault_seed"] == 5


# -- running -----------------------------------------------------------------


class TestRunScenario:
    @pytest.mark.parametrize("name", scenario_names())
    def test_cheap_scenario_matches_golden(self, name):
        run = run_scenario(name, jobs=1)
        assert run.matches_golden is True
        assert run.report_hash == run.spec.golden
        assert report_hash(run.report) == run.report_hash

    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_scenario(CHEAP, cache=cache)
        assert cache.stats.hits == 0
        warm = run_scenario(CHEAP, cache=cache)
        assert warm.report_hash == cold.report_hash
        assert cache.stats.hits == len(resolve_scenario(CHEAP).seeds)

    def test_unpinned_returns_none_verdict(self):
        spec = resolve_scenario(CHEAP)
        from dataclasses import replace

        stripped = replace(spec, golden=None)
        run = run_scenario(stripped)
        assert run.matches_golden is None
        assert run.golden_hash is None

    def test_with_golden_repins(self):
        spec = resolve_scenario(CHEAP)
        pinned = with_golden(spec, "cd" * 32)
        assert pinned.golden == "cd" * 32
        assert pinned.scenario_id == spec.scenario_id
        assert spec.golden != "cd" * 32  # original untouched


# -- the CLI -----------------------------------------------------------------


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_list_json(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["scenario"] for row in rows} == set(scenario_names())

    def test_describe_json(self, capsys):
        assert main(["scenarios", "describe", CHEAP, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario_id"] == resolve_scenario(CHEAP).scenario_id
        assert payload["resolved_params"]["workload"] == "web-search"

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["scenarios", "describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_verify_passes(self, capsys):
        assert main(["scenarios", "run", CHEAP, "--verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_golden"] is True

    def test_run_verify_mismatch_exit_6(self, capsys):
        spec = resolve_scenario(CHEAP)
        bogus = with_golden(spec, "0" * 64)
        from dataclasses import replace

        bogus = replace(bogus, name="bogus-golden-scenario")
        register_scenario(bogus)
        try:
            code = main(["scenarios", "run", "bogus-golden-scenario",
                         "--verify"])
        finally:
            del _REGISTRY["bogus-golden-scenario"]
        assert code == GOLDEN_MISMATCH_EXIT_CODE
        assert "--verify" in capsys.readouterr().err

    def test_run_verify_unpinned_exit_6(self, capsys):
        spec = resolve_scenario(CHEAP)
        from dataclasses import replace

        register_scenario(
            replace(spec, name="unpinned-scenario", golden=None)
        )
        try:
            code = main(["scenarios", "run", "unpinned-scenario", "--verify"])
        finally:
            del _REGISTRY["unpinned-scenario"]
        assert code == GOLDEN_MISMATCH_EXIT_CODE
        assert "no golden hash pinned" in capsys.readouterr().err
