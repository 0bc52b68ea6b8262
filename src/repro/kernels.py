"""Seed derivation, the kernel set's name and struct-of-arrays packing.

* ``derive_seed`` splits one experiment seed into independent per-role
  generator streams (workloads, flow schedules, the sharded engines).
* ``KERNELS_NAME``/``resolve_backend_name`` name the one kernel set in
  benchmark fingerprints and bench records.
* ``soa_pack_f64``/``soa_unpack_f64`` and ``soa_sort_pack_f64``
  (de)serialise float64 columns for the sharded engines' pipes and
  canonical report hashes.

The Monte-Carlo loops themselves (Blink capture sampling, PCC rate
statistics, bloom and sketch hashing, CDF sampling) live with the
models they belong to: :mod:`repro.blink.analysis`,
:mod:`repro.pcc.simulator`, :mod:`repro.sketches` and
:mod:`repro.workloads.cdf`.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Sequence

from repro.core.errors import ConfigurationError

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


# -- Struct-of-arrays bulk (de)serialization (repro.netsim.sharded) --------


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
