"""Batched trial kernels for the Monte-Carlo hot paths.

Every quantitative claim in the paper rests on repeated stochastic
trials — Blink's flow-selector capture Monte-Carlo (Fig. 2), PCC's ±ε
rate experiments, bloom-filter and sketch pollution.  Each kernel here
is one batch-level call over plain Python containers, and each is
*exact* against the scalar code it batches:

* **Blink** — ``blink_flip_times`` samples, per run ``i``, the times at
  which each of the selector's cells first holds a malicious flow
  (Section 3.1's capture process) from ``random.Random(seed + i)``, the
  draw sequence of :func:`repro.blink.analysis.sample_flip_times`.
  Rows are ascending and contain only finite flips (< horizon).
  ``blink_occupancy_counts`` and ``blink_crossing_times`` are pure
  functions of the sampled rows.
* **PCC** — ``pcc_oscillation_stats`` reduces rate rows to the mean /
  coefficient-of-variation / peak-to-trough amplitude of the
  oscillation analysis (population stddev, CV = σ/|µ|).
* **Bloom** — bulk insert/query with the same FNV-1a
  Kirsch–Mitzenmacher double-hash family and bit layout as
  ``BloomFilter.add``/``__contains__``: the filter state and every
  membership answer equal the one-at-a-time path.
* **Sketch hashing** — ``fnv1a_bulk`` is ``fnv1a_64`` per item,
  ``sketch_indices`` is ``partitioned_indices`` per key, and
  ``bloom_index_rows`` exposes a filter's per-item bit indices so a
  caller needing *incremental* membership (FlowRadar's new-flow test)
  can hash in bulk but test and set bits in order.
* **Workload CDF sampling** — ``cdf_quantiles`` is the inverse
  transform over a piecewise-linear empirical CDF; callers draw the
  uniforms themselves off a ``random.Random`` stream.
* **Struct-of-arrays** — ``soa_pack_f64``/``soa_unpack_f64`` and
  ``soa_sort_pack_f64`` (de)serialise float64 columns for the sharded
  engines' pipes and canonical report hashes.

Metering: while a :mod:`repro.obs.metrics` registry is active, each
kernel call bumps ``kernels.calls.<kernel>`` and records its wall time
in the ``kernels.wall_s`` histogram; with none active the cost is one
``is None`` check per batch.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import struct
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.obs import metrics as obs_metrics

#: The kernel set's name, as recorded in benchmark fingerprints.
KERNELS_NAME = "python"


def resolve_backend_name(name: Optional[str] = None) -> str:
    """The name of the one kernel set, ``"python"``.

    Any other ``name`` is an error: there is no alternative set to
    select.
    """
    if name not in (None, KERNELS_NAME):
        raise ConfigurationError(
            f"unknown kernel set {name!r}; the only one is {KERNELS_NAME!r}"
        )
    return KERNELS_NAME


def derive_seed(*parts: object) -> int:
    """A stable 64-bit seed derived from ``parts`` via SHA-256.

    Used to split one experiment seed into independent per-role /
    per-round generator streams without collisions between offset
    seeds (the same scheme the fault injectors use for per-link RNGs).
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _metered(kernel):
    """Count each call of ``kernel`` and time it in the active registry.

    Kernels are batch-level calls (one call covers hundreds to
    thousands of trials), so a registry check per call is noise next to
    the work inside.
    """
    counter = f"kernels.calls.{kernel.__name__}"

    @functools.wraps(kernel)
    def wrapper(*args, **kwargs):
        registry = obs_metrics.current()
        if registry is None:
            return kernel(*args, **kwargs)
        started = time.perf_counter()
        try:
            return kernel(*args, **kwargs)
        finally:
            registry.inc(counter)
            registry.observe("kernels.wall_s", time.perf_counter() - started)

    return wrapper


# -- Blink flow-selector capture (Section 3.1, Fig. 2) ---------------------


@_metered
def blink_flip_times(
    qm: float, tr: float, cells: int, horizon: float, runs: int, seed: int
) -> List[List[float]]:
    """Per run: ascending finite cell-capture times (< horizon)."""
    from repro.blink.analysis import sample_flip_times

    rows: List[List[float]] = []
    for i in range(runs):
        rng = random.Random(seed + i)
        flips = sample_flip_times(qm, tr, cells, horizon, rng)
        rows.append(sorted(t for t in flips if not math.isinf(t)))
    return rows


@_metered
def blink_occupancy_counts(
    flip_rows: Sequence[Sequence[float]], times: Sequence[float]
) -> List[List[int]]:
    """Per run: number of captured cells at each (ascending) sample time."""
    counts: List[List[int]] = []
    for flips in flip_rows:
        captured: List[int] = []
        idx = 0
        for t in times:
            while idx < len(flips) and flips[idx] <= t:
                idx += 1
            captured.append(idx)
        counts.append(captured)
    return counts


@_metered
def blink_crossing_times(
    flip_rows: Sequence[Sequence[float]], threshold: int
) -> List[Optional[float]]:
    """Per run: time the ``threshold``-th cell flipped, or None."""
    return [
        flips[threshold - 1] if threshold <= len(flips) else None
        for flips in flip_rows
    ]


# -- PCC ±ε experiments (Section 4.2) --------------------------------------


@_metered
def pcc_oscillation_stats(
    rate_rows: Sequence[Sequence[float]],
) -> List[Dict[str, float]]:
    """Per row: ``{"mean", "cv", "amplitude"}`` of the rates."""
    from repro.core.metrics import coefficient_of_variation

    stats: List[Dict[str, float]] = []
    for row in rate_rows:
        values = list(row)
        if not values:
            stats.append({"mean": 0.0, "cv": 0.0, "amplitude": 0.0})
            continue
        mean = sum(values) / len(values)
        cv = coefficient_of_variation(values) if len(values) >= 2 else 0.0
        amplitude = (max(values) - min(values)) / mean if mean else 0.0
        stats.append({"mean": mean, "cv": cv, "amplitude": amplitude})
    return stats


# -- Bloom-filter pollution (Section 3.2) ----------------------------------


@_metered
def bloom_add_bulk(bloom, items: Sequence[bytes]) -> None:
    """Insert every item; mutates ``bloom`` exactly like ``add``."""
    from repro.sketches.bloom import _BITMASKS, _hash_pair

    array = bloom._array
    hashes = bloom.hashes
    bits = bloom.bits
    count = 0
    for item in items:
        h1, h2 = _hash_pair(item)
        for i in range(hashes):
            index = (h1 + i * h2) % bits
            array[index >> 3] |= _BITMASKS[index & 7]
        count += 1
    bloom.inserted += count


@_metered
def bloom_query_bulk(bloom, items: Sequence[bytes]) -> List[bool]:
    """Membership answer per item, identical to ``item in bloom``."""
    from repro.sketches.bloom import _BITMASKS, _hash_pair

    array = bloom._array
    hashes = bloom.hashes
    bits = bloom.bits
    answers: List[bool] = []
    for item in items:
        h1, h2 = _hash_pair(item)
        member = True
        for i in range(hashes):
            index = (h1 + i * h2) % bits
            if not array[index >> 3] & _BITMASKS[index & 7]:
                member = False
                break
        answers.append(member)
    return answers


# -- Invertible-sketch hashing (FlowRadar / LossRadar) ---------------------


@_metered
def fnv1a_bulk(items: Sequence[bytes]) -> List[int]:
    """``fnv1a_64`` per item — the 64-bit cell fingerprints."""
    from repro.flows.flow import fnv1a_64

    return [fnv1a_64(item) for item in items]


@_metered
def sketch_indices(keys: Sequence[bytes], hashes: int, cells: int) -> List[List[int]]:
    """``partitioned_indices(key, hashes, cells)`` per key."""
    from repro.sketches.hashing import partitioned_indices

    return [partitioned_indices(key, hashes, cells) for key in keys]


@_metered
def bloom_index_rows(bloom, items: Sequence[bytes]) -> List[List[int]]:
    """Per item: the k bit indices ``add``/``__contains__`` touch."""
    from repro.sketches.bloom import _hash_indices

    return [_hash_indices(item, bloom.hashes, bloom.bits) for item in items]


# -- Empirical-CDF workload sampling (repro.workloads) ---------------------


@_metered
def cdf_quantiles(
    fractions: Sequence[float], sizes: Sequence[float], us: Sequence[float]
) -> List[float]:
    """Inverse-transform each uniform through a piecewise-linear CDF.

    ``fractions`` are ascending cumulative probabilities ending at 1.0,
    ``sizes`` the matching ascending support points.  Each ``u`` maps
    to ``sizes`` by linear interpolation on its segment (a flat
    segment — equal neighbouring sizes — is an atom).
    """
    if len(fractions) != len(sizes) or len(fractions) < 2:
        raise ConfigurationError(
            "cdf_quantiles needs matching fractions/sizes with >= 2 points"
        )
    last = len(fractions) - 1
    out: List[float] = []
    for u in us:
        i = bisect_left(fractions, u)
        if i <= 0:
            out.append(sizes[0])
            continue
        if i > last:
            out.append(sizes[last])
            continue
        f_lo = fractions[i - 1]
        y_lo = sizes[i - 1]
        # EmpiricalCDF.quantile inlines this exact expression; keep the
        # operation order in sync or scalar and bulk sampling diverge.
        out.append(y_lo + (u - f_lo) * (sizes[i] - y_lo) / (fractions[i] - f_lo))
    return out


# -- Struct-of-arrays bulk (de)serialization (repro.netsim.sharded) --------


@_metered
def soa_pack_f64(columns: Sequence[Sequence[float]]) -> bytes:
    """Pack equal-length float64 columns into one contiguous buffer.

    The layout is column-major little-endian IEEE-754 doubles: column
    0's values, then column 1's, and so on.  Raises
    :class:`ConfigurationError` on ragged columns.
    """
    if not columns:
        return b""
    n = len(columns[0])
    for col in columns:
        if len(col) != n:
            raise ConfigurationError(
                "soa_pack_f64 needs equal-length columns, got "
                f"{[len(c) for c in columns]}"
            )
    if n == 0:
        return b""
    fmt = f"<{n}d"
    return b"".join(struct.pack(fmt, *col) for col in columns)


@_metered
def soa_unpack_f64(payload: bytes, columns: int) -> List[List[float]]:
    """Inverse of :func:`soa_pack_f64`: split ``payload`` back into
    ``columns`` equal-length float lists.  Raises
    :class:`ConfigurationError` when the payload length is not a
    multiple of ``columns`` doubles.
    """
    if columns < 1:
        raise ConfigurationError("soa_unpack_f64 needs columns >= 1")
    if not payload:
        return [[] for _ in range(columns)]
    stride = 8 * columns
    if len(payload) % stride:
        raise ConfigurationError(
            f"soa payload of {len(payload)} bytes does not split into "
            f"{columns} float64 columns"
        )
    n = len(payload) // stride
    fmt = f"<{n}d"
    return [list(struct.unpack_from(fmt, payload, 8 * n * c)) for c in range(columns)]


@_metered
def soa_sort_pack_f64(columns: Sequence[Sequence[float]]) -> bytes:
    """Sort rows lexicographically (column 0 first), then pack.

    The canonicalisation step behind the sharded forwarding engine's
    ``report_hash``: delivery records arrive per-window per-shard, so
    their *order* depends on the shard count, but the record *set* does
    not — a stable lexicographic row sort followed by
    :func:`soa_pack_f64` yields one canonical byte string for any
    arrival order.  Values must be NaN-free (NaN has no consistent sort
    order).
    """
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ConfigurationError(
            "soa_sort_pack_f64 needs equal-length columns, got "
            f"{[len(c) for c in columns]}"
        )
    if n == 0:
        return soa_pack_f64(columns)
    rows = sorted(zip(*columns))
    return soa_pack_f64([list(col) for col in zip(*rows)])
