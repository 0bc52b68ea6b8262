"""Experiment running: seeds, repetitions, result aggregation.

The benches need the same scaffolding the paper's evaluation used:
run a parameterised experiment over multiple seeds, aggregate with
mean/percentiles, and emit rows comparable to the paper's figures.
:meth:`Sweep.run` optionally fans the (point × seed) grid over a
process pool; results merge in grid order regardless of completion
order, so aggregates are independent of the worker count.
"""

from __future__ import annotations

import time as _wallclock
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.core.metrics import mean, percentile, stddev

#: An experiment body: (seed, params) -> metric dict.
ExperimentFn = Callable[[int, Dict[str, object]], Dict[str, float]]


@dataclass
class SweepPoint:
    """One parameter combination plus its per-seed results."""

    params: Dict[str, object]
    results: List[Dict[str, float]] = field(default_factory=list)

    def aggregate(self) -> Dict[str, float]:
        """mean/p5/p95 for every numeric metric across seeds."""
        if not self.results:
            return {}
        aggregated: Dict[str, float] = {}
        keys = sorted({k for result in self.results for k in result})
        for key in keys:
            values = [
                float(result[key])
                for result in self.results
                if key in result and result[key] is not None
            ]
            if not values:
                continue
            aggregated[f"{key}.mean"] = mean(values)
            if len(values) > 1:
                aggregated[f"{key}.std"] = stddev(values)
                aggregated[f"{key}.p5"] = percentile(values, 5)
                aggregated[f"{key}.p95"] = percentile(values, 95)
        return aggregated


@dataclass
class SweepResult:
    """All points of one sweep."""

    name: str
    points: List[SweepPoint]
    wall_seconds: float

    def rows(self, metrics: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """Flat rows: parameters + aggregated metrics (for tables)."""
        rows = []
        for point in self.points:
            row: Dict[str, object] = dict(point.params)
            aggregated = point.aggregate()
            if metrics is None:
                row.update(aggregated)
            else:
                for metric in metrics:
                    for suffix in ("mean", "std", "p5", "p95"):
                        key = f"{metric}.{suffix}"
                        if key in aggregated:
                            row[key] = aggregated[key]
            rows.append(row)
        return rows


class Sweep:
    """Run an experiment over a parameter grid × seeds."""

    def __init__(self, name: str, experiment: ExperimentFn, seeds: Sequence[int] = (0,)):
        if not seeds:
            raise ConfigurationError("need at least one seed")
        self.name = name
        self.experiment = experiment
        self.seeds = list(seeds)
        self._grid: List[Dict[str, object]] = []

    def add_point(self, **params: object) -> "Sweep":
        self._grid.append(dict(params))
        return self

    def add_axis(self, name: str, values: Iterable[object]) -> "Sweep":
        """Cross the current grid with a new axis."""
        values = list(values)
        if not values:
            raise ConfigurationError(f"axis {name!r} has no values")
        if not self._grid:
            self._grid = [{name: value} for value in values]
            return self
        crossed: List[Dict[str, object]] = []
        for point in self._grid:
            for value in values:
                merged = dict(point)
                merged[name] = value
                crossed.append(merged)
        self._grid = crossed
        return self

    def run(self, jobs: Optional[int] = None) -> SweepResult:
        """Execute the grid; ``jobs`` > 1 fans tasks over processes.

        The experiment function must be picklable (a module-level
        callable) for the parallel path.  Results are merged in
        (point, seed) submission order, so the aggregate is identical
        for every worker count — the determinism tests compare
        ``jobs=1`` and ``jobs>1`` outputs byte-for-byte.
        """
        from repro.runner.parallel import resolve_jobs

        if not self._grid:
            self._grid = [{}]
        effective_jobs = resolve_jobs(jobs) if jobs is not None else 1
        started = _wallclock.perf_counter()
        tasks = [
            (point_index, seed, dict(params))
            for point_index, params in enumerate(self._grid)
            for seed in self.seeds
        ]
        points = [SweepPoint(params=params) for params in self._grid]
        if effective_jobs > 1 and len(tasks) > 1:
            workers = min(effective_jobs, len(tasks))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(self.experiment, seed, params)
                    for _, seed, params in tasks
                ]
                results = [future.result() for future in futures]
        else:
            results = [self.experiment(seed, params) for _, seed, params in tasks]
        for (point_index, _, _), result in zip(tasks, results):
            points[point_index].results.append(result)
        return SweepResult(
            name=self.name,
            points=points,
            wall_seconds=_wallclock.perf_counter() - started,
        )
