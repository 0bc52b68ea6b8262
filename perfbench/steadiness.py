"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py

Run from the repository root.  It makes :data:`SETS` sets of :data:`RUNS`
runs of every workload in BENCHMARK.json; each run is a fresh
``perfbench/run.py`` process with tracing off, ``run_seconds`` long,
with its own seed (set ``k`` uses seeds ``100*k .. 100*k + RUNS - 1``);
workloads take turns within a set.  For every workload and end-to-end
metric it reports, per set, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and then whether

* each set's spread is within the metric's bound from BENCHMARK.json,
  and within a third of it, the target;
* every later set's median is within the bound of the first set's, in
  either direction.

Every run must also report ``correct``.  Beside the reported ``run_s``
and ``setup_s``, which ``calibrate.py`` rescales, it keeps the same
timings in plain wall seconds and their spreads, so the record shows
what rescaling does on each workload.  The record is written to
``perfbench/steadiness.json`` and kept with the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "steadiness.json")

RUNS = 10
SETS = 2

#: Timings that run.py also prints in plain wall seconds.
WALL = ("run_s", "setup_s")


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _tagged(lines: List[str], tag: str) -> Dict[str, object]:
    """The JSON of the line that starts with ``tag``."""
    return next(json.loads(line[len(tag) + 1:]) for line in lines if line.startswith(tag + " "))


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One fresh ``run.py`` process; its result with plain metric values."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall_s = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "wall_s": round(wall_s, 2),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall": _tagged(lines, "unscaled"),
        "fingerprint": _tagged(lines, "fingerprint"),
    }


def measure(names: List[str], seconds: int) -> Dict[str, list]:
    """``SETS`` x ``RUNS`` runs of each workload, workloads taking turns."""
    runs: Dict[str, List[List[dict]]] = {name: [] for name in names}
    for set_index in range(SETS):
        for name in names:
            runs[name].append([])
        for i in range(RUNS):
            for name in names:
                result = one_run(name, 100 * set_index + i, seconds)
                runs[name][-1].append(result)
                values = "  ".join(f"{k}={v:.4f}" for k, v in sorted(result["metrics"].items()))
                print(f"set {set_index} {name:<16} seed {result['seed']:>3}  "
                      f"correct={result['correct']}  {values}  wall={result['wall_s']:.1f}s",
                      flush=True)
    return runs


def spread_stats(values: List[float]) -> Dict[str, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def judge(stats: List[Dict[str, float]], bound: float) -> Dict[str, object]:
    """Whether per-set statistics of one metric meet ``bound``."""
    first = stats[0]["median"]
    return {
        "bound": bound,
        "sets": stats,
        "spread_within_bound": all(s["spread"] <= bound for s in stats),
        "spread_within_third": all(s["spread"] <= bound / 3 for s in stats),
        "sets_agree": all(abs(s["median"] - first) / first <= bound for s in stats[1:]),
    }


def summarize(spec: Dict[str, object], runs: Dict[str, List[List[dict]]]) -> Dict[str, object]:
    summary: Dict[str, object] = {}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for workload, sets in runs.items():
        summary[workload] = {
            "all_correct": all(run["correct"] and run["failed"] == 0 for s in sets for run in s),
            "metrics": {
                name: judge([spread_stats([run["metrics"][name] for run in s]) for s in sets], bound)
                for name, bound in bounds.items()
            },
            "wall": {
                name: judge([spread_stats([run["wall"][name] for run in s]) for s in sets], bounds[name])
                for name in WALL
            },
        }
    return summary


def _line(workload: str, metric: str, m: Dict[str, object]) -> str:
    sets = "  |  ".join(
        f"median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}"
        for s in m["sets"]
    )
    return (f"{workload:<16} {metric:<18} {sets}  bound {m['bound']}  "
            f"bound-ok={m['spread_within_bound']} third-ok={m['spread_within_third']} "
            f"agree={m['sets_agree']}")


def main() -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    runs = measure([w["name"] for w in spec["workloads"]], seconds)
    stamps = [run.pop("fingerprint") for sets in runs.values() for s in sets for run in s]
    summary = summarize(spec, runs)
    for workload, entry in summary.items():
        for metric, m in entry["metrics"].items():
            print(_line(workload, metric, m))
        for metric, m in entry["wall"].items():
            print(_line(workload, "wall " + metric, m))
    record = {"fingerprint": stamps[0], "seconds": seconds, "summary": summary, "runs": runs}
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    ok = all(
        entry["all_correct"]
        and all(m["spread_within_bound"] and m["sets_agree"] for m in entry["metrics"].values())
        for entry in summary.values()
    )
    print("steady" if ok else "NOT steady", f"- written to {os.path.relpath(OUT, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
