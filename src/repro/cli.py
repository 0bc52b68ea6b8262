"""Command-line interface: ``python -m repro``.

Seven subcommands:

* ``list`` — enumerate the implemented attacks with their threat-model
  cells (the paper's Fig. 1 matrix, as a table);
* ``run <attack> [--param value ...]`` — execute one attack and print
  its result details; ``--trace out.jsonl`` records a run ledger
  (spans, events, metric snapshots, provenance), ``--metrics`` prints
  the merged metric snapshot, ``--metrics-out PATH`` exports the run's
  metric registry (Prometheus text for ``.prom``/``.txt``, otherwise an
  appended JSONL snapshot), ``--json`` emits the result as one JSON
  object for scripting.  Robustness flags: ``--faults SPEC`` injects a
  seeded fault plan (see ``faults``), ``--timeout``/``--retries`` wrap
  the run in the resilient harness, and ``--seeds 0,1,2`` turns the run
  into a multi-seed sweep that ``--resume sweep.jsonl`` checkpoints
  kill-safely; sweeps fan out over ``--jobs`` worker processes (default
  ``$REPRO_JOBS``, then the CPU count) with deterministic seed-order
  merging, and ``--cache-dir DIR`` serves already-computed cells from a
  content-addressed result cache.  ``--resume``, ``--jobs`` and
  ``--cache-dir`` without ``--seeds`` are usage errors;
* ``faults`` — list the injectable fault kinds and the ``--faults``
  spec grammar;
* ``fig2`` — reproduce the paper's Fig. 2 headline numbers quickly
  (also supports ``--json``);
* ``report [<ledger.jsonl>] [--cache-dir DIR]`` — render a previously
  recorded run ledger back into the benches' table format
  (``--profile`` adds the per-span self-time ranking), and/or print
  result-cache statistics;
* ``top <ledger.jsonl> [--metrics snapshots.jsonl]`` — a compact live
  view of a running or completed run: event mix, timeline, latest
  metric snapshot.  ``--follow`` redraws every ``--interval`` seconds,
  tolerating torn mid-write lines, so it can watch a sweep in flight; and
* ``scenarios list|describe|run`` — the scenario registry: named,
  content-addressed attack × workload × fault bindings with pinned
  golden report hashes.  ``run --verify`` recomputes a scenario and
  compares its aggregate-report hash against its pinned golden (the CI
  scenario-smoke gate).

Exit codes: 0 success, 1 attack failed (or gave up after retries),
2 usage errors, 3 malformed ``--faults`` spec, 4 unreadable or
mismatched ``--resume`` checkpoint, 6 golden report-hash mismatch under
``scenarios run --verify``.

The CLI is a thin veneer over the library; every number it prints is
available programmatically through :mod:`repro.attacks`,
:mod:`repro.faults`, :mod:`repro.runner` and :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _wallclock
from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import ascii_table, format_value
from repro.core.attack import Attack

#: Short spellings for the most-used attack names.
ATTACK_ALIASES: Dict[str, str] = {
    "blink-capture": "blink-capture-packet-level",
    "blink-analytical": "blink-capture-analytical",
    "pcc-oscillation": "pcc-utility-equalisation",
    "pytheas-poisoning": "pytheas-report-poisoning",
}


def _attack_registry() -> Dict[str, Attack]:
    from repro.attacks import attack_registry

    return attack_registry()


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse ``key=value`` pairs with best-effort type coercion."""
    params: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            print(f"parameter {pair!r} is not key=value", file=sys.stderr)
            raise SystemExit(2)
        key, raw = pair.split("=", 1)
        value: object = raw
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    pass
        params[key] = value
    return params


def cmd_list(_: argparse.Namespace) -> int:
    rows = []
    for name, attack in sorted(_attack_registry().items()):
        rows.append(
            {
                "attack": name,
                "privilege": attack.required_privilege.name,
                "target": attack.target.value,
                "impacts": ", ".join(i.value for i in attack.impacts) or "-",
            }
        )
    print(ascii_table(rows, title="Implemented attacks (threat matrix of the paper)"))
    return 0


class _RunFailed(Exception):
    """A resilient run exhausted its retries (or timed out)."""


def cmd_run(args: argparse.Namespace) -> int:
    registry = _attack_registry()
    name = ATTACK_ALIASES.get(args.attack, args.attack)
    if name not in registry:
        print(f"unknown attack {args.attack!r}; try `python -m repro list`", file=sys.stderr)
        return 2
    attack = registry[name]
    params = _parse_params(args.param or [])

    if args.faults:
        from repro.core.errors import FaultSpecError
        from repro.faults import coerce_plan

        # Validate up front so a typo fails in milliseconds with a
        # pointed message, not mid-sweep inside an attack.
        try:
            coerce_plan(args.faults, seed=args.fault_seed)
        except FaultSpecError as exc:
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            if exc.clause:
                print(f"  offending clause: {exc.clause}", file=sys.stderr)
            print("see `python -m repro faults` for kinds and grammar", file=sys.stderr)
            return 3
        params["faults"] = args.faults
        params["fault_seed"] = args.fault_seed

    if args.seeds:
        return _cmd_sweep(attack, params, args)
    # A single run would otherwise ignore the sweep-only flags silently.
    for flag, given, why in (
        ("--resume", args.resume, "checkpoints journal multi-seed sweeps"),
        ("--jobs", args.jobs is not None, "only sweep cells fan out"),
        ("--cache-dir", args.cache_dir, "only sweep cells are cached"),
    ):
        if given:
            print(f"{flag} requires --seeds ({why})", file=sys.stderr)
            return 2

    runner = None
    if args.timeout is not None or args.retries:
        from repro.runner import ResilientRunner, RetryPolicy

        runner = ResilientRunner(
            RetryPolicy(max_retries=args.retries), timeout_s=args.timeout
        )

    def execute():
        if runner is None:
            return attack.run(**params)
        outcome = runner.run(lambda: attack.run(**params), label=attack.name)
        if not outcome.succeeded:
            verb = "timed out" if outcome.timed_out else "failed"
            raise _RunFailed(
                f"{attack.name} {verb} after {len(outcome.attempts)} attempt(s): "
                f"{outcome.error}"
            )
        return outcome.result

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    from repro import obs

    tracer, registry = _run_observers(args)
    started = _wallclock.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            with obs.activate(tracer, registry), obs.span(f"attack.{attack.name}"):
                result = execute()
        finally:
            if profiler is not None:
                profiler.disable()
    except _RunFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    wall_seconds = _wallclock.perf_counter() - started

    if profiler is not None:
        import pstats

        try:
            profiler.dump_stats(args.profile)
        except OSError as exc:
            print(f"cannot write profile to {args.profile}: {exc}", file=sys.stderr)
            return 2
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        print(f"profile written to {args.profile}", file=sys.stderr)

    if args.json:
        from repro.obs import jsonable

        payload = {
            "attack": result.attack_name,
            "success": result.success,
            "time_to_success": result.time_to_success,
            "magnitude": result.magnitude,
            "wall_seconds": wall_seconds,
            "details": jsonable(result.details),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"attack:  {result.attack_name}")
        print(f"success: {result.success}")
        if result.time_to_success is not None:
            print(f"time-to-success: {format_value(result.time_to_success)} s")
        print(f"magnitude: {format_value(result.magnitude)}")
        rows = []
        for key, value in result.details.items():
            if isinstance(value, (int, float, str, bool)) or value is None:
                rows.append(
                    {"detail": key, "value": format_value(value) if value is not None else "-"}
                )
        if rows:
            print()
            print(ascii_table(rows, title="details"))

    code = _write_observations(
        args,
        tracer,
        registry,
        quiet=args.json,
        ledger_info=dict(
            attack=result.attack_name,
            params=params,
            seed=params.get("seed", None),
            success=result.success,
            magnitude=result.magnitude,
            wall_seconds=wall_seconds,
        ),
        snapshot_meta=dict(
            attack=result.attack_name,
            seed=params.get("seed"),
            wall_seconds=wall_seconds,
        ),
    )
    if code:
        return code
    return 0 if result.success else 1


def _run_observers(args):
    """The (tracer, registry) pair a run's ``--trace``, ``--metrics`` or
    ``--metrics-out`` asks for, or (None, None) when it asks for none."""
    if not (args.trace or args.metrics or args.metrics_out):
        return None, None
    from repro.obs import MetricRegistry, Tracer

    return Tracer(), MetricRegistry()


def _write_observations(
    args, tracer, registry, quiet: bool, ledger_info: dict, snapshot_meta: dict
) -> int:
    """Print the metrics table, write the ledger and the metrics export
    that the run's flags ask for; 2 when a file cannot be written."""
    if registry is None:
        return 0
    if args.metrics and not quiet:
        _print_metrics(registry)
    if args.trace:
        from repro.obs import RunLedger

        ledger = RunLedger.from_tracer(tracer, metrics=registry, **ledger_info)
        try:
            if args.trace.endswith(".csv"):
                ledger.to_csv(args.trace)
            else:
                ledger.to_jsonl(args.trace)
        except OSError as exc:
            print(f"cannot write trace ledger to {args.trace}: {exc}", file=sys.stderr)
            return 2
        if not quiet:
            print(f"\ntrace ledger written to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        code = _write_metrics_out(args.metrics_out, registry, **snapshot_meta)
        if code:
            return code
        if not quiet:
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def _write_metrics_out(path: str, registry, **meta: object) -> int:
    """Export a registry: Prometheus text for .prom/.txt, JSONL otherwise."""
    from repro.obs import metrics as obs_metrics

    try:
        if path.endswith((".prom", ".txt")):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(registry.to_prometheus())
        else:
            obs_metrics.append_snapshot(
                path, registry, **{k: v for k, v in meta.items() if v is not None}
            )
    except OSError as exc:
        print(f"cannot write metrics to {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _sweep_jobs(jobs: Optional[int]) -> Optional[int]:
    """Resolve ``--jobs`` (then ``$REPRO_JOBS``, then the CPU count).

    Returns None after printing the usage error for an invalid count.
    """
    from repro.core.errors import ConfigurationError
    from repro.runner import resolve_jobs

    try:
        return resolve_jobs(jobs)
    except ConfigurationError as exc:
        print(f"invalid --jobs: {exc}", file=sys.stderr)
        return None


def _open_cache(cache_dir: Optional[str]):
    """The ``--cache-dir`` result cache, or None without the flag."""
    if not cache_dir:
        return None
    from repro.runner import ResultCache

    return ResultCache(cache_dir)


def _print_cache_stats(cache) -> None:
    """One stderr line with the cache's hit/miss/store counts."""
    if cache is None:
        return
    stats = cache.stats
    print(
        f"cache {cache.root}: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.stores} store(s)",
        file=sys.stderr,
    )


def _cmd_sweep(attack: Attack, params: Dict[str, object], args) -> int:
    """``run --seeds ...``: a parallel, cached, checkpointable sweep."""
    from repro.core.errors import CheckpointError, ConfigurationError
    from repro.runner import (
        ParallelSweepExecutor,
        RegistryAttackFactory,
        RetryPolicy,
        seed_cells,
    )

    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        print(f"--seeds must be comma-separated integers: {args.seeds!r}", file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds lists no seeds", file=sys.stderr)
        return 2
    cells = seed_cells(params, seeds)
    jobs = _sweep_jobs(args.jobs)
    if jobs is None:
        return 2
    try:
        retry = RetryPolicy(max_retries=args.retries)
    except ConfigurationError as exc:
        print(f"invalid --retries: {exc}", file=sys.stderr)
        return 2
    cache = _open_cache(args.cache_dir)
    executor = ParallelSweepExecutor(
        jobs=jobs, retry=retry, timeout_s=args.timeout, cache=cache
    )

    from repro import obs

    tracer, registry = _run_observers(args)
    try:
        with obs.activate(tracer, registry), obs.span(f"sweep.{attack.name}"):
            report = executor.run(
                RegistryAttackFactory(attack.name), cells, checkpoint_path=args.resume
            )
    except CheckpointError as exc:
        print(f"cannot resume sweep: {exc}", file=sys.stderr)
        return 4

    counts = (
        f"executed {report.executed}, resumed {report.resumed}, "
        f"cached {report.cached}, failed {report.failed}"
    )
    if args.json:
        # Stdout carries only the deterministic aggregate, so resumed,
        # cached and parallel sweeps' JSON is byte-identical to a clean
        # serial run.
        print(report.aggregate_json())
        print(f"({counts})", file=sys.stderr)
    else:
        rows = [
            {"quantity": key, "value": format_value(value) if value is not None else "-"}
            for key, value in report.aggregate().items()
        ]
        print(ascii_table(rows, title=f"sweep: {attack.name} over {len(seeds)} seeds"))
        print(counts)
        if args.resume:
            print(f"checkpoint journal: {args.resume}")
    _print_cache_stats(cache)
    code = _write_observations(
        args,
        tracer,
        registry,
        quiet=False,
        ledger_info=dict(
            attack=attack.name,
            params=params,
            seeds=seeds,
            jobs=executor.jobs,
            success=report.failed == 0,
        ),
        snapshot_meta=dict(
            attack=attack.name,
            seeds=",".join(str(s) for s in seeds),
            jobs=executor.jobs,
        ),
    )
    if code:
        return code
    return 0 if report.failed == 0 else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FAULT_KINDS, FOREVER

    kind_rows = []
    param_rows = []
    for name in sorted(FAULT_KINDS):
        kind = FAULT_KINDS[name]
        kind_rows.append({"kind": name, "injects": kind.description})
        for param, (default, doc) in kind.params.items():
            if default is None:
                rendered = "(required)"
            elif default == FOREVER:
                rendered = "inf"
            else:
                rendered = repr(default) if isinstance(default, str) else format_value(default)
            param_rows.append(
                {"kind": name, "param": param, "default": rendered, "meaning": doc}
            )
    print(ascii_table(kind_rows, title="Injectable fault kinds"))
    print()
    print(ascii_table(param_rows, title="Parameters"))
    print()
    print("spec grammar:  kind:key=value,key=value;kind:key=value...")
    print("example:       --faults 'link-flap:t=2.0,dur=0.5;telemetry-drop:p=0.1'")
    print("determinism:   pair with --fault-seed N; same spec+seed replays exactly")
    return 0


def _print_metrics(registry) -> None:
    from repro.obs import jsonable

    rows = [
        {"metric": key, "value": format_value(jsonable(value))}
        for key, value in registry.snapshot().items()
    ]
    if rows:
        print()
        print(ascii_table(rows, title="metrics: run"))


def cmd_fig2(args: argparse.Namespace) -> int:
    from repro.blink import fig2_experiment

    result = fig2_experiment(qm=args.qm, tr=args.tr, runs=args.runs, seed=args.seed)
    if args.json:
        payload = {
            "qm": args.qm,
            "tr": args.tr,
            "runs": args.runs,
            "seed": args.seed,
            "threshold": result.threshold,
            "mean_crossing_theory_s": result.mean_crossing_theory,
            "expected_hitting_theory_s": result.expected_hitting_theory,
            "median_success_time_theory_s": result.median_success_time_theory,
            "mean_crossing_simulated_s": result.mean_crossing_simulated,
            "success_fraction": result.success_fraction,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        {"quantity": "threshold (half the sample)", "value": result.threshold},
        {"quantity": "mean-capture crossing, theory (s)",
         "value": format_value(result.mean_crossing_theory)},
        {"quantity": f"mean crossing over {args.runs} simulations (s)",
         "value": format_value(result.mean_crossing_simulated)},
        {"quantity": "success fraction", "value": f"{result.success_fraction:.0%}"},
    ]
    print(ascii_table(rows, title=f"Fig. 2 (qm={args.qm}, tR={args.tr}s)"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.errors import ReproError
    from repro.obs import RunLedger

    if not args.ledger and not args.cache_dir:
        print("report needs a ledger file and/or --cache-dir", file=sys.stderr)
        return 2
    if args.ledger:
        try:
            ledger = RunLedger.from_jsonl(args.ledger)
        except FileNotFoundError:
            print(f"no such ledger file: {args.ledger}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"cannot parse {args.ledger}: {exc}", file=sys.stderr)
            return 2
        print(ledger.render(width=args.width))
        if args.profile:
            print()
            print(ledger.render_profile())
    if args.cache_dir:
        from repro.runner import ResultCache

        if not os.path.isdir(args.cache_dir):
            print(f"no such cache directory: {args.cache_dir}", file=sys.stderr)
            return 2
        scan = ResultCache(args.cache_dir).scan()
        if args.ledger:
            print()
        rows = [
            {"quantity": "entries", "value": scan["entries"]},
            {"quantity": "bytes", "value": scan["bytes"]},
            {"quantity": "quarantined", "value": scan.get("quarantined", 0)},
        ]
        for name, count in sorted(scan["by_attack"].items()):  # type: ignore[union-attr]
            rows.append({"quantity": f"entries[{name}]", "value": count})
        print(ascii_table(rows, title=f"result cache: {args.cache_dir}"))
    return 0


#: ``scenarios run --verify`` exit code for a golden-hash mismatch.
GOLDEN_MISMATCH_EXIT_CODE = 6


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.core.errors import ScenarioSpecError
    from repro.workloads.scenarios import resolve_scenario, scenario_names

    if args.scenarios_command == "list":
        rows = []
        for name in scenario_names():
            spec = resolve_scenario(name)
            rows.append(
                {
                    "scenario": name,
                    "id": spec.scenario_id,
                    "attack": spec.attack,
                    "workload": spec.workload,
                    "seeds": len(spec.seeds),
                    "golden": spec.golden[:12] if spec.golden else "-",
                }
            )
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            print(ascii_table(rows, title="Registered scenarios"))
        return 0

    try:
        spec = resolve_scenario(args.scenario)
    except ScenarioSpecError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.scenarios_command == "describe":
        payload = spec.to_dict()
        payload["scenario_id"] = spec.scenario_id
        payload["resolved_params"] = spec.resolve_params()
        if args.json:
            from repro.obs import jsonable

            print(json.dumps(jsonable(payload), indent=2, sort_keys=True))
        else:
            print(f"scenario: {spec.name}  (id {spec.scenario_id})")
            if spec.description:
                print(f"  {spec.description}")
            print(f"attack:   {spec.attack}")
            print(f"workload: {spec.workload}")
            print(f"seeds:    {','.join(str(s) for s in spec.seeds)}")
            rows = [
                {"param": key, "value": format_value(value) if isinstance(value, float) else repr(value)}
                for key, value in sorted(spec.resolve_params().items())
            ]
            if rows:
                print(ascii_table(rows, title="resolved sweep params"))
            if spec.golden is not None:
                print(f"golden: {spec.golden}")
        return 0

    # scenarios run
    from repro.core.errors import ConfigurationError
    from repro.workloads.scenarios import run_scenario

    jobs = _sweep_jobs(args.jobs)
    if jobs is None:
        return 2
    cache = _open_cache(args.cache_dir)
    try:
        run = run_scenario(spec, jobs=jobs, cache=cache)
    except ConfigurationError as exc:
        print(f"scenario failed to resolve: {exc}", file=sys.stderr)
        return 2
    verdict = run.matches_golden
    if args.json:
        payload = {
            "scenario": spec.name,
            "scenario_id": spec.scenario_id,
            "attack": spec.attack,
            "workload": spec.workload,
            "report_hash": run.report_hash,
            "golden_hash": run.golden_hash,
            "matches_golden": verdict,
            "aggregate": json.loads(run.report.aggregate_json()),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            {"quantity": key, "value": format_value(value) if value is not None else "-"}
            for key, value in run.report.aggregate().items()
        ]
        print(ascii_table(rows, title=f"scenario: {spec.name}"))
        print(f"report hash: {run.report_hash}")
        if run.golden_hash:
            status = "MATCH" if verdict else "MISMATCH"
            print(f"golden: {run.golden_hash} ({status})")
        else:
            print("golden: (none pinned)")
    _print_cache_stats(cache)
    if args.verify:
        if verdict is None:
            print("--verify: no golden hash pinned", file=sys.stderr)
            return GOLDEN_MISMATCH_EXIT_CODE
        if not verdict:
            print(
                f"--verify: report hash {run.report_hash} != pinned golden "
                f"{run.golden_hash}",
                file=sys.stderr,
            )
            return GOLDEN_MISMATCH_EXIT_CODE
    return 0 if run.report.failed == 0 else 1


def _load_ledger_tolerant(path: str):
    """Best-effort ledger load for ``top``: skip lines that don't parse.

    A run mid-write may have a torn final line (or none of the usual
    records yet); ``top`` should render whatever is there rather than
    raise, so this loader keeps every record it can read and returns a
    possibly-partial :class:`~repro.obs.ledger.RunLedger`.
    """
    from repro.obs import RunLedger

    ledger = RunLedger()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return ledger
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            ledger.add_record(json.loads(line))
        except json.JSONDecodeError:
            continue
    return ledger


def _sharded_adaptivity_line(metric_values: Dict[str, object]) -> Optional[str]:
    """One-line sharded-coordinator digest for the ``top`` view.

    Summarises the adaptive-window controller — sync rounds, window
    grows/resets, fast-forwards and the window-width distribution —
    whenever the metrics carry ``sharded.*`` series.
    """
    windows = metric_values.get("counter.sharded.windows")
    if windows is None:
        return None
    parts = [f"windows={format_value(windows)}"]
    for label, key in (
        ("fast_forwards", "counter.sharded.fast_forwards"),
        ("grows", "counter.sharded.adaptive_grows"),
        ("resets", "counter.sharded.adaptive_resets"),
        ("boundary", "counter.sharded.boundary_packets"),
    ):
        value = metric_values.get(key)
        if value is not None:
            parts.append(f"{label}={format_value(value)}")
    hist = metric_values.get("hist.sharded.window_width_s")
    if isinstance(hist, dict) and hist.get("count"):
        parts.append(
            "width_s p50={} p95={} max={}".format(
                format_value(hist.get("p50")),
                format_value(hist.get("p95")),
                format_value(hist.get("max")),
            )
        )
    else:
        width = metric_values.get("gauge.sharded.window_width")
        if width is not None:
            parts.append(f"width_s={format_value(width)}")
    return "sharded adaptivity: " + " ".join(parts)


def _render_top(ledger, snapshots: List[dict], width: int) -> str:
    """One frame of the ``top`` view: run header, event mix, metrics."""
    from repro.analysis.reporting import sparkline

    lines: List[str] = []
    run = ledger.run or {}
    header = " ".join(
        f"{key}={run[key]}"
        for key in ("attack", "seed", "seeds", "success", "wall_seconds")
        if key in run and run[key] is not None
    )
    lines.append(f"repro top — {header or 'no run record yet'}")
    lines.append(f"events: {len(ledger.events)}")

    counts: Dict[str, int] = {}
    for event in ledger.events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    if counts:
        top_kinds = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        kind_width = max(len(kind) for kind, _ in top_kinds)
        for kind, count in top_kinds:
            lines.append(f"  {kind.ljust(kind_width)}  {count}")
        times = [
            float(event["t"])
            for event in ledger.events
            if isinstance(event.get("t"), (int, float))
        ]
        if len(times) >= 2 and max(times) > 0:
            t_max = max(times)
            bucket_count = max(1, min(width, len(times)))
            buckets = [0] * bucket_count
            for t in times:
                buckets[min(int(t / t_max * bucket_count), bucket_count - 1)] += 1
            lines.append(f"timeline ({t_max:.3f}s):")
            lines.append(f"  {sparkline(buckets, width)}")

    metric_values: Dict[str, object] = {}
    if snapshots:
        latest = snapshots[-1]
        stamp = latest.get("t_wall")
        lines.append(
            f"metrics snapshot #{len(snapshots)}"
            + (f" (t_wall={stamp:.1f})" if isinstance(stamp, (int, float)) else "")
        )
        metrics = latest.get("metrics")
        if isinstance(metrics, dict):
            from repro.obs import MetricRegistry

            metric_values = MetricRegistry.from_dict(metrics).snapshot()
    elif "run" in ledger.metrics:
        lines.append("metrics (ledger run block):")
        metric_values = dict(ledger.metrics["run"])
    if metric_values:
        adaptivity = _sharded_adaptivity_line(metric_values)
        if adaptivity:
            lines.append(adaptivity)
        name_width = max(len(name) for name in metric_values)
        for name in sorted(metric_values):
            value = metric_values[name]
            if isinstance(value, dict):
                rendered = " ".join(
                    f"{k}={format_value(v)}" for k, v in value.items()
                )
            else:
                rendered = format_value(value) if value is not None else "-"
            lines.append(f"  {name.ljust(name_width)}  {rendered}")
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import metrics as obs_metrics

    if not os.path.exists(args.ledger) and not (
        args.metrics and os.path.exists(args.metrics)
    ):
        print(f"no such ledger file: {args.ledger}", file=sys.stderr)
        return 2
    width = max(1, min(args.width, 400))

    def frame() -> str:
        ledger = _load_ledger_tolerant(args.ledger)
        snapshots = obs_metrics.read_snapshots(args.metrics) if args.metrics else []
        return _render_top(ledger, snapshots, width=width)

    if not args.follow:
        print(frame())
        return 0
    try:
        while True:
            # ANSI clear + home, so the view redraws in place.
            sys.stdout.write("\x1b[2J\x1b[H" + frame() + "\n")
            sys.stdout.flush()
            _wallclock.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Adversarial inputs to data-driven networks (HotNets'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list implemented attacks")
    list_parser.set_defaults(func=cmd_list)

    run_parser = sub.add_parser("run", help="run one attack")
    run_parser.add_argument("attack", help="attack name from `list` (aliases: %s)"
                            % ", ".join(sorted(ATTACK_ALIASES)))
    run_parser.add_argument(
        "--param",
        "-p",
        action="append",
        metavar="key=value",
        help="attack parameter (repeatable)",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a run ledger (JSONL; a .csv suffix selects flat CSV)",
    )
    run_parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the merged simulator metric snapshot",
    )
    run_parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="export the run's metric registry: Prometheus text for "
        ".prom/.txt paths, otherwise append a timestamped JSONL snapshot",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the AttackResult as one JSON object on stdout",
    )
    run_parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject a fault plan (grammar: `python -m repro faults`)",
    )
    run_parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the fault plan's RNG streams (default 0)",
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-attempt wall-clock budget in seconds",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient simulation failures up to N times",
    )
    run_parser.add_argument(
        "--seeds",
        metavar="LIST",
        help="comma-separated seeds: run a sweep (one cell per seed)",
    )
    run_parser.add_argument(
        "--resume",
        metavar="PATH",
        help="JSONL sweep checkpoint: journal completed cells, skip them on resume",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="sweep worker processes (default: $REPRO_JOBS, then CPU count); "
        "merge order is deterministic regardless of N",
    )
    run_parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="content-addressed result cache: sweep cells already computed "
        "with identical params and code version are served from disk",
    )
    run_parser.add_argument(
        "--profile",
        metavar="PATH",
        help="profile the run under cProfile: dump pstats to PATH and "
        "print the top 20 functions by cumulative time to stderr",
    )
    run_parser.set_defaults(func=cmd_run)

    faults_parser = sub.add_parser(
        "faults", help="list injectable fault kinds and the --faults grammar"
    )
    faults_parser.set_defaults(func=cmd_faults)

    fig2_parser = sub.add_parser("fig2", help="reproduce Fig. 2 headline numbers")
    fig2_parser.add_argument("--qm", type=float, default=0.0525)
    fig2_parser.add_argument("--tr", type=float, default=8.37)
    fig2_parser.add_argument("--runs", type=int, default=50)
    fig2_parser.add_argument("--seed", type=int, default=0)
    fig2_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the Fig. 2 numbers as one JSON object on stdout",
    )
    fig2_parser.set_defaults(func=cmd_fig2)

    report_parser = sub.add_parser(
        "report", help="render a recorded run ledger (JSONL) and/or cache stats"
    )
    report_parser.add_argument(
        "ledger", nargs="?", help="path to a ledger written by run --trace"
    )
    report_parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="also print statistics for a result cache directory",
    )
    report_parser.add_argument(
        "--profile",
        action="store_true",
        help="append the per-span self-time profile (descending self time)",
    )
    report_parser.add_argument(
        "--width",
        type=int,
        default=60,
        metavar="N",
        help="sparkline width for the event timeline (clamped to [1, 400])",
    )
    report_parser.set_defaults(func=cmd_report)

    top_parser = sub.add_parser(
        "top", help="live terminal view of a running or completed ledger"
    )
    top_parser.add_argument(
        "ledger", help="path to a ledger written (or being written) by run --trace"
    )
    top_parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="JSONL metrics snapshots (run --metrics-out); the latest "
        "snapshot is rendered alongside the event view",
    )
    top_parser.add_argument(
        "--follow",
        action="store_true",
        help="redraw every --interval seconds until interrupted",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="redraw period for --follow (default 2.0)",
    )
    top_parser.add_argument(
        "--width",
        type=int,
        default=60,
        metavar="N",
        help="timeline sparkline width (clamped to [1, 400])",
    )
    top_parser.set_defaults(func=cmd_top)

    scenarios_parser = sub.add_parser(
        "scenarios",
        help="list, describe and run registered attack × workload scenarios",
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="scenarios_command", required=True
    )

    scenarios_list = scenarios_sub.add_parser(
        "list", help="enumerate registered scenarios with ids and golden coverage"
    )
    scenarios_list.add_argument(
        "--json", action="store_true", help="emit the table as JSON"
    )
    scenarios_list.set_defaults(func=cmd_scenarios)

    scenarios_describe = scenarios_sub.add_parser(
        "describe", help="show one scenario's binding and resolved sweep params"
    )
    scenarios_describe.add_argument("scenario", help="scenario name from `scenarios list`")
    scenarios_describe.add_argument(
        "--json", action="store_true", help="emit the description as JSON"
    )
    scenarios_describe.set_defaults(func=cmd_scenarios)

    scenarios_run = scenarios_sub.add_parser(
        "run", help="execute one scenario's sweep and print its aggregate"
    )
    scenarios_run.add_argument("scenario", help="scenario name from `scenarios list`")
    scenarios_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="sweep worker processes (default: $REPRO_JOBS, then CPU count)",
    )
    scenarios_run.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="content-addressed result cache shared with `run --seeds`",
    )
    scenarios_run.add_argument(
        "--json", action="store_true", help="emit the outcome as one JSON object"
    )
    scenarios_run.add_argument(
        "--verify",
        action="store_true",
        help="exit %d unless the report hash matches the pinned golden"
        % GOLDEN_MISMATCH_EXIT_CODE,
    )
    scenarios_run.set_defaults(func=cmd_scenarios)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
