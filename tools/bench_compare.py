#!/usr/bin/env python3
"""Diff bench-record JSON files and gate on regressions.

Two modes, combinable in one invocation:

* Regression gate (``--baseline``): every bench present in both files
  (matched on ``name:backend``) must not be slower than the baseline
  by more than ``--budget`` (fractional; default 0.25 = 25 %).

* Cross-run speedup gate (``--against`` + ``--min-speedup``):
  benches are matched on ``name`` alone across the two files (e.g. a
  calendar-scheduler run against a heap run, or 4 shards against 1)
  and the current file's trials/sec must be at least ``min-speedup``
  times the other file's.

* Parity gate (``--against`` + ``--require-equal KEY``): for every
  bench matched on ``name`` whose records carry ``extra_info[KEY]`` on
  both sides, the values must be identical — how CI asserts that the
  calendar and heap schedulers produced byte-identical experiment
  results (``--require-equal report_hash``).  Repeatable.

* Metrics-overhead gate (``--against`` + ``--metrics-budget``): the
  current file is a *metrics-on* run and ``--against`` the matching
  metrics-off run; benches matched on ``name`` must not be slower than
  the off run by more than the given fraction (the repo budget is
  0.03 = 3 %) — always-on instrumentation can never silently tax the
  fast paths.

Input files are the ``BENCH_<NAME>.json`` exports of
``benchmarks/conftest.py`` (``pytest benchmarks/... --bench-json``).
Exit status: 0 all gates pass, 1 a gate failed, 2 usage/input error.
Stdlib only — runnable before any project dependency is installed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List


def load_records(path: str) -> Dict[str, dict]:
    """``name:backend`` -> record, validated just enough to compare."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    benches = payload.get("benches") if isinstance(payload, dict) else None
    if not isinstance(benches, dict) or not benches:
        raise SystemExit(f"error: {path} has no bench records")
    records = {}
    for key, record in benches.items():
        if not isinstance(record, dict):
            raise SystemExit(f"error: {path}: record {key!r} is not an object")
        for field in ("name", "backend", "wall_seconds", "trials_per_second"):
            if field not in record:
                raise SystemExit(f"error: {path}: record {key!r} lacks {field!r}")
        records[key] = record
    return records


def check_regressions(
    current: Dict[str, dict], baseline: Dict[str, dict], budget: float
) -> List[dict]:
    rows = []
    for key in sorted(set(current) & set(baseline)):
        now = float(current[key]["wall_seconds"])
        then = float(baseline[key]["wall_seconds"])
        slowdown = now / then - 1.0 if then > 0 else float("inf")
        rows.append(
            {
                "gate": "regression",
                "bench": key,
                "detail": f"{then * 1e3:.1f}ms -> {now * 1e3:.1f}ms "
                f"({slowdown:+.1%}, budget {budget:.0%})",
                "ok": slowdown <= budget,
            }
        )
    return rows


def parse_speedup_floors(specs: List[str]) -> Dict[str, float]:
    """``["5", "bloom_pollution=10"]`` -> {"": 5.0, "bloom_pollution": 10.0}.

    The empty key is the default floor for benches not named explicitly.
    """
    floors = {"": 1.0}
    for spec in specs:
        name, _, value = spec.rpartition("=")
        try:
            floors[name] = float(value)
        except ValueError:
            raise SystemExit(f"error: bad --min-speedup value {spec!r}")
        if floors[name] <= 0:
            raise SystemExit(f"error: --min-speedup must be positive, got {spec!r}")
    return floors


def check_speedups(
    current: Dict[str, dict], against: Dict[str, dict], floors: Dict[str, float]
) -> List[dict]:
    by_name = {}
    for record in against.values():
        by_name.setdefault(record["name"], record)
    rows = []
    for key in sorted(current):
        record = current[key]
        other = by_name.get(record["name"])
        if other is None:
            continue
        floor = floors.get(record["name"], floors[""])
        ours = float(record["trials_per_second"])
        theirs = float(other["trials_per_second"])
        speedup = ours / theirs if theirs > 0 else float("inf")
        rows.append(
            {
                "gate": "speedup",
                "bench": f"{key} vs {other['backend']}",
                "detail": f"{speedup:.1f}x trials/sec (floor {floor:g}x)",
                "ok": speedup >= floor,
            }
        )
    return rows


def check_equalities(
    current: Dict[str, dict], against: Dict[str, dict], keys: List[str]
) -> List[dict]:
    """Require ``extra_info[key]`` to match across files (by bench name)."""
    by_name = {}
    for record in against.values():
        by_name.setdefault(record["name"], record)
    rows = []
    for bench_key in sorted(current):
        record = current[bench_key]
        other = by_name.get(record["name"])
        if other is None:
            continue
        ours = record.get("extra_info", {})
        theirs = other.get("extra_info", {})
        for key in keys:
            if key not in ours and key not in theirs:
                continue
            mine, its = ours.get(key), theirs.get(key)
            ok = mine == its and mine is not None
            detail = (
                f"{key} matches ({str(mine)[:16]}…)"
                if ok
                else f"{key} differs: {mine!r} vs {its!r}"
            )
            rows.append(
                {
                    "gate": "parity",
                    "bench": f"{bench_key} vs {other['backend']}",
                    "detail": detail,
                    "ok": ok,
                }
            )
    return rows


def check_metrics_budget(
    current: Dict[str, dict], against: Dict[str, dict], budget: float
) -> List[dict]:
    """Require metrics-on wall time within ``budget`` of metrics-off.

    Matched on bench ``name`` (the two runs may legitimately differ in
    backend labels only if the caller chose so; normally they share
    both name and backend).  A metrics-on run *faster* than the off run
    is simply noise in its favour and passes.
    """
    by_name = {}
    for record in against.values():
        by_name.setdefault(record["name"], record)
    rows = []
    for key in sorted(current):
        record = current[key]
        other = by_name.get(record["name"])
        if other is None:
            continue
        on = float(record["wall_seconds"])
        off = float(other["wall_seconds"])
        overhead = on / off - 1.0 if off > 0 else float("inf")
        rows.append(
            {
                "gate": "metrics",
                "bench": key,
                "detail": f"off {off * 1e3:.1f}ms -> on {on * 1e3:.1f}ms "
                f"({overhead:+.1%}, budget {budget:.0%})",
                "ok": overhead <= budget,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="bench JSON for the run under test")
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed bench JSON to gate wall-time regressions against",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="allowed fractional slowdown vs --baseline (default 0.25)",
    )
    parser.add_argument(
        "--against",
        metavar="PATH",
        help="bench JSON from another run (scheduler, shard count, metrics off), matched on bench name",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="X | NAME=X",
        help="required trials/sec ratio vs --against; a bare number sets "
        "the default floor, NAME=X overrides it per bench (repeatable)",
    )
    parser.add_argument(
        "--require-equal",
        action="append",
        default=[],
        metavar="KEY",
        help="extra_info key that must be identical between matched "
        "benches of the current file and --against (repeatable)",
    )
    parser.add_argument(
        "--metrics-budget",
        type=float,
        default=None,
        metavar="FRACTION",
        help="treat the current file as a metrics-on run and --against "
        "as metrics-off: matched benches must not be slower by more "
        "than this fraction (e.g. 0.03)",
    )
    args = parser.parse_args(argv)
    if not args.baseline and not args.against:
        parser.error("nothing to compare: pass --baseline and/or --against")
    if args.budget < 0:
        parser.error("--budget must be non-negative")
    if args.metrics_budget is not None and args.metrics_budget < 0:
        parser.error("--metrics-budget must be non-negative")

    current = load_records(args.current)
    rows: List[dict] = []
    if args.baseline:
        matched = check_regressions(current, load_records(args.baseline), args.budget)
        if not matched:
            print(
                f"error: no benches of {args.current} appear in {args.baseline}",
                file=sys.stderr,
            )
            return 2
        rows.extend(matched)
    if args.against:
        against = load_records(args.against)
        # The speedup gate runs when floors were given explicitly, or
        # when --against has no other purpose (historical behaviour:
        # bare --against implies a 1x floor).  A pure --metrics-budget
        # or --require-equal invocation must not smuggle in an implicit
        # "on-run must be at least as fast" floor.
        run_speedups = bool(args.min_speedup) or (
            args.metrics_budget is None and not args.require_equal
        )
        if run_speedups:
            floors = parse_speedup_floors(args.min_speedup)
            matched = check_speedups(current, against, floors)
            if not matched:
                print(
                    f"error: no benches of {args.current} appear in {args.against}",
                    file=sys.stderr,
                )
                return 2
            rows.extend(matched)
        if args.metrics_budget is not None:
            overhead = check_metrics_budget(current, against, args.metrics_budget)
            if not overhead:
                print(
                    f"error: --metrics-budget matched no benches of "
                    f"{args.current} against {args.against}",
                    file=sys.stderr,
                )
                return 2
            rows.extend(overhead)
        if args.require_equal:
            parity = check_equalities(current, against, args.require_equal)
            if not parity:
                print(
                    f"error: --require-equal matched no extra_info of "
                    f"{args.current} against {args.against}",
                    file=sys.stderr,
                )
                return 2
            rows.extend(parity)
    elif args.require_equal:
        parser.error("--require-equal needs --against")
    elif args.metrics_budget is not None:
        parser.error("--metrics-budget needs --against")

    width = max(len(row["bench"]) for row in rows)
    failed = 0
    for row in rows:
        status = "ok  " if row["ok"] else "FAIL"
        print(f"{status} [{row['gate']:>10}] {row['bench']:<{width}}  {row['detail']}")
        failed += 0 if row["ok"] else 1
    if failed:
        print(f"\n{failed} of {len(rows)} gates failed", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
