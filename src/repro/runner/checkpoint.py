"""Checkpointed multi-seed sweeps: kill-safe, byte-identical resume.

A sweep is a list of *cells* — (attack, params) points, typically one
per seed.  :class:`SweepCheckpoint` journals each completed cell to a
JSONL file (flushed and fsynced per line, so a ``SIGTERM`` mid-sweep
loses at most the in-flight cell);
:class:`~repro.runner.parallel.ParallelSweepExecutor` consults the
journal first and re-executes only the incomplete cells.  Aggregates
are computed purely from the journaled result payloads, so a resumed
sweep produces **byte-identical** aggregate JSON to an uninterrupted
one with the same seeds — the acceptance property the tests pin down.

File format (one JSON record per line):

* ``{"record": "sweep", "schema": 1, "fingerprint": ..., "attack": ...}``
  — header, first line; the fingerprint hashes the sweep definition so
  a checkpoint cannot silently resume a *different* sweep.
* ``{"record": "cell", "index": i, "params": {...}, "result": {...}}``
  — one per completed cell, in completion order.

A truncated final line (the kill arrived mid-write) is dropped on
load **and physically truncated from the file**
(:func:`repair_torn_jsonl_tail`), so the next append starts on a clean
line boundary — a ``SIGKILL`` mid-append can never poison a later
resume by gluing two records into one garbage line.  Any other
corruption raises :class:`~repro.core.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.attack import AttackResult
from repro.core.errors import CheckpointError
from repro.obs import tracer as obs

SCHEMA_VERSION = 1


def repair_torn_jsonl_tail(path: str) -> int:
    """Truncate a torn (mid-write) tail off an append-only JSONL file.

    A ``kill -9`` can land between the ``write`` of a journal line and
    its completion, leaving either a partial line with no terminating
    newline or a final newline-terminated line that is not valid JSON.
    Both are dropped by truncating the file back to the last record
    that parses, so subsequent appends start on a clean line boundary.
    Returns the number of bytes removed (0 for a healthy file).  Only
    the *tail* is repaired; corruption earlier in the file is left for
    the caller's loader to diagnose.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return 0
    good_size = len(blob)
    if blob and not blob.endswith(b"\n"):
        good_size = blob.rfind(b"\n") + 1
    # The last terminated line may itself be garbage (the torn write
    # got as far as the newline): drop at most that one line.  Records
    # are single-line JSON, so one torn append can damage at most the
    # final line — anything worse is real corruption and is left for
    # the loader to raise on.
    if good_size > 0:
        line_start = blob.rfind(b"\n", 0, good_size - 1) + 1
        last_line = blob[line_start:good_size].strip()
        if last_line:
            try:
                json.loads(last_line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                good_size = line_start
    removed = len(blob) - good_size
    if removed:
        with open(path, "r+b") as handle:
            handle.truncate(good_size)
    return removed


def _jsonable(value: object) -> object:
    from repro.obs.ledger import jsonable

    return jsonable(value)


@dataclass(frozen=True)
class SweepCell:
    """One point of a sweep: the parameters for a single run."""

    index: int
    params: Dict[str, object] = field(default_factory=dict)


def seed_cells(base_params: Dict[str, object], seeds: Sequence[int]) -> List[SweepCell]:
    """The standard multi-seed sweep: one cell per seed."""
    return [
        SweepCell(index=i, params={**base_params, "seed": int(seed)})
        for i, seed in enumerate(seeds)
    ]


def sweep_fingerprint(attack_name: str, cells: Sequence[SweepCell]) -> str:
    """Stable hash of the sweep definition (order-sensitive)."""
    payload = json.dumps(
        {
            "attack": attack_name,
            "cells": [[cell.index, _jsonable(cell.params)] for cell in cells],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class SweepCheckpoint:
    """Append-only JSONL journal of completed sweep cells."""

    def __init__(self, path: str, fingerprint: str, attack_name: str = ""):
        self.path = path
        self.fingerprint = fingerprint
        self.attack_name = attack_name
        self.completed: Dict[int, dict] = {}
        if os.path.exists(path):
            self._load()
        else:
            self._write_header()

    # -- persistence -------------------------------------------------------

    def _write_header(self) -> None:
        header = {
            "record": "sweep",
            "schema": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "attack": self.attack_name,
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _load(self) -> None:
        try:
            # Physically drop any torn tail first: appends after a
            # resume must never concatenate onto a half-written line.
            torn_bytes = repair_torn_jsonl_tail(self.path)
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        if torn_bytes:
            obs.emit("runner.checkpoint_torn_tail", path=self.path, bytes=torn_bytes)
        if not lines:
            raise CheckpointError(f"checkpoint {self.path} is empty")
        records: List[dict] = []
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(json.loads(stripped))
            except json.JSONDecodeError as exc:
                raise CheckpointError(
                    f"{self.path}:{number}: corrupt checkpoint record: {exc}"
                ) from exc
        if not records or records[0].get("record") != "sweep":
            raise CheckpointError(
                f"{self.path}: not a sweep checkpoint (missing header record)"
            )
        header = records[0]
        if header.get("schema") != SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint schema {header.get('schema')!r}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: checkpoint belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')!r}, expected "
                f"{self.fingerprint!r}); delete it or point --resume elsewhere"
            )
        for record in records[1:]:
            if record.get("record") != "cell":
                raise CheckpointError(
                    f"{self.path}: unexpected record type {record.get('record')!r}"
                )
            self.completed[int(record["index"])] = record

    def record_cell(self, cell: SweepCell, result: dict) -> None:
        """Journal one completed cell; durable before returning."""
        record = {
            "record": "cell",
            "index": cell.index,
            "params": _jsonable(cell.params),
            "result": result,
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.completed[cell.index] = record


@dataclass
class SweepReport:
    """Outcome of a (possibly resumed) sweep."""

    attack: str
    cells: List[dict] = field(default_factory=list)
    executed: int = 0
    resumed: int = 0
    cached: int = 0
    failed: int = 0

    def aggregate(self) -> Dict[str, object]:
        """Deterministic roll-up; identical for resumed and clean runs.

        Derived only from the per-cell result payloads (never wall
        time), and serialised with sorted keys — json.dumps of this is
        the byte-identity the acceptance criterion compares.
        """
        results = [cell["result"] for cell in self.cells if cell.get("result")]
        successes = [r for r in results if r.get("success")]
        magnitudes = [
            float(r["magnitude"])
            for r in results
            if isinstance(r.get("magnitude"), (int, float))
        ]
        times = [
            float(r["time_to_success"])
            for r in results
            if isinstance(r.get("time_to_success"), (int, float))
        ]
        return {
            "attack": self.attack,
            "cells": len(self.cells),
            "completed": len(results),
            "failed": self.failed,
            "success_rate": (len(successes) / len(results)) if results else 0.0,
            "mean_magnitude": (sum(magnitudes) / len(magnitudes)) if magnitudes else None,
            "mean_time_to_success": (sum(times) / len(times)) if times else None,
        }

    def aggregate_json(self) -> str:
        return json.dumps(self.aggregate(), sort_keys=True)


def result_payload(result: AttackResult) -> dict:
    """The journaled form of one AttackResult (JSON-safe, no wall time)."""
    return {
        "attack": result.attack_name,
        "success": bool(result.success),
        "time_to_success": _jsonable(result.time_to_success),
        "magnitude": _jsonable(result.magnitude),
        "details": _jsonable(result.details),
    }

