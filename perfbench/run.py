"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload e2-blink --seed 0 --seconds 24 --trace 0

Run from the repository root; the program is imported from ``src/``.

With ``--trace 0`` the workload repeats for ``--seconds`` seconds with
no tracing and reports the end-to-end metrics: ``run_s`` and
``setup_s`` as medians over the repetitions, each rescaled to the
reference box's speed (see ``calibrate.py``; wall seconds are printed
too, their medians on an ``unscaled`` JSON line), and ``peak_rss_mib``.
With ``--trace 1`` untraced and traced repetitions alternate for the
same time; the traced ones give the per-layer metrics (medians) and
``tracing.overhead``, and the spans of the last traced repetition are
written to ``.perfbench/``.

Every run checks its outputs (see ``workloads.check``): a repetition
whose check fails counts as a failed operation.  Human-readable lines
come first; the last line of standard output is the JSON result with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

from calibrate import Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fewest repetitions a run makes, however long they take.
MIN_REPS = 3
MIN_TRACED_PAIRS = 2


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def repeat(
    step: Callable[[], object], seconds: float, minimum: int,
    calibration: Optional[Calibration] = None,
) -> List[object]:
    """Call ``step`` at least ``minimum`` times, and while another fits in ``seconds``.

    The calibration loop, if given, runs before each call and after the
    last.  Each call starts from a collected heap, so garbage left by the
    one before does not land in its timing.
    """
    results = []
    started = time.perf_counter()
    while True:
        if calibration is not None:
            calibration.sample()
        gc.collect()
        results.append(step())
        elapsed = time.perf_counter() - started
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            if calibration is not None:
                calibration.sample()
            return results


def peak_rss_mib() -> float:
    """Peak resident set of the largest process: this one or a reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _quartiles(values: List[float]) -> str:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    each = " ".join(f"{v:.3f}" for v in values)
    return f"median {statistics.median(values):.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}  [{each}]"


def _failures(workload, seed: int, reps, reference: Optional[str]) -> int:
    """Failed operations: each repetition that failed its own check, plus
    the verification operation when the run-level check fails."""
    from workloads import check

    for rep in reps:
        for problem in rep.problems:
            print(f"CHECK FAILED: {problem}")
    problems = check(workload, seed, reps, reference)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return sum(1 for rep in reps if rep.problems) + (1 if problems else 0)


def plain_run(workload, seed: int, seconds: float) -> Dict[str, object]:
    calibration = Calibration()
    reps = repeat(lambda: workload.run(seed), seconds, MIN_REPS, calibration)
    rss = peak_rss_mib()
    reference = workload.reference(seed)
    failed = _failures(workload, seed, reps, reference)
    factors = calibration.factors()
    wall_run_s = [rep.run_s for rep in reps]
    wall_setup_s = [rep.setup_s for rep in reps]
    print(f"wall run_s    {_quartiles(wall_run_s)}")
    print(f"wall setup_s  {_quartiles(wall_setup_s)}")
    print(f"box factors   {_quartiles(factors)}  (reported = wall x factor)")
    # Medians of the unscaled seconds, for steadiness.py to set beside
    # the rescaled ones.
    print("unscaled " + json.dumps({
        "run_s": statistics.median(wall_run_s),
        "setup_s": statistics.median(wall_setup_s),
    }))
    run_s = [rep.run_s * f for rep, f in zip(reps, factors)]
    setup_s = [rep.setup_s * f for rep, f in zip(reps, factors)]
    print(f"run_s         {_quartiles(run_s)}")
    print(f"setup_s       {_quartiles(setup_s)}")
    # Throughput is printed for readers, not gated: with fixed inputs it
    # is work / run_s and would gate the same timing twice.
    rate = statistics.median(rep.work / rep.run_s for rep in reps)
    print(f"{workload.work_unit}/s {rate:,.0f} wall (not gated)  digest {reps[0].digest[:16]}")
    return {
        "correct": failed == 0,
        "attempted": len(reps) + 1,
        "failed": failed,
        "metrics": {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        },
    }


def traced_run(workload, seed: int, seconds: float, header: Dict[str, object]) -> Dict[str, object]:
    from layers import HOOKS, METRICS, layer_values
    from repro.obs import metrics as obs_metrics
    from spans import Tracer, Wrappers

    spill_dir = os.path.join(OUT_DIR, f"spill-{os.getpid()}")
    os.makedirs(spill_dir, exist_ok=True)
    tracer = Tracer(spill_dir)
    traced: List[object] = []
    values: List[Dict[str, float]] = []

    def pair():
        plain = workload.run(seed)
        gc.collect()
        tracer.reset()
        registry = obs_metrics.MetricRegistry()
        with Wrappers(tracer) as wrappers, obs_metrics.activate(registry):
            wrappers.install(HOOKS)
            rep = workload.run(seed)
        tracer.collect_spills()
        traced.append(rep)
        values.append(layer_values(tracer.totals(), registry, rep.report))
        return plain

    try:
        plain = repeat(pair, seconds, MIN_TRACED_PAIRS)
    finally:
        tracer.collect_spills()
        os.rmdir(spill_dir)
    # Here the untraced repetitions are the reference the traced ones
    # must match; the second execution path runs in untraced runs.
    failed = _failures(workload, seed, plain + traced, None)
    plain_s = statistics.median(rep.run_s for rep in plain)
    traced_s = statistics.median(rep.run_s for rep in traced)
    metrics = {
        name: {"value": statistics.median(v[name] for v in values), "unit": unit}
        for name, unit, _better in METRICS
        if name != "tracing.overhead"
    }
    metrics["tracing.overhead"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    print(f"run_s untraced {plain_s:.4f}  traced {traced_s:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(path, {**header, "metrics": metrics})
    print(f"spans of the last traced repetition: {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": len(plain) + len(traced) + 1,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    # Measure the program as users run it: defaults, no execution knobs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import importlib

    from fingerprint import fingerprint
    from workloads import DEFAULT_SEED, WHY, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    for module in workload.imports:
        importlib.import_module(module)  # import cost is not the workload's
    os.makedirs(OUT_DIR, exist_ok=True)
    header = {
        "workload": workload.name,
        "why": WHY[workload.name],
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(ROOT, workload.shards),
    }
    print("fingerprint " + json.dumps(header["fingerprint"], sort_keys=True))
    print(f"workload {workload.name} seed {seed}: {WHY[workload.name]}")
    if args.trace:
        result = traced_run(workload, seed, args.seconds, header)
    else:
        result = plain_run(workload, seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
