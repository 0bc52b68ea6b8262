"""Bloom filter with attack-relevant instrumentation.

"FlowRadar and LossRadar use probabilistic data structures such as
bloom filters to monitor network performance.  These data structures
are vulnerable against adversarial inputs because they are often
dimensioned for the average case, rather than the worst case.  An
attacker can pollute, or even saturate a bloom filter, resulting in
inaccurate network statistics."  (Section 3.2.)

The filter exposes its fill factor and the analytic false-positive
rate, which are the quantities the pollution bench tracks.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from repro.core.errors import ConfigurationError
from repro.flows.flow import FNV_PRIME_64, fnv1a_64

_MASK64 = (1 << 64) - 1

#: Preallocated per-bit masks so the hot loops never build ``1 << i``.
_BITMASKS = tuple(1 << i for i in range(8))


def _hash_pair(item: bytes) -> Tuple[int, int]:
    """(h1, h2) for Kirsch–Mitzenmacher double hashing, one FNV pass.

    h2 was historically ``fnv1a_64(item + b"\\x01") | 1`` — but FNV-1a
    is byte-serial, so hashing the suffixed copy equals folding one
    more byte into h1: ``((h1 ^ 0x01) * PRIME) mod 2^64``.  Computing
    it that way halves the hashing work and skips the per-item bytes
    concatenation, with identical values.
    """
    h1 = fnv1a_64(item)
    h2 = (((h1 ^ 0x01) * FNV_PRIME_64) & _MASK64) | 1  # odd => full period
    return h1, h2


def _hash_indices(item: bytes, k: int, m: int) -> List[int]:
    """k indices via double hashing (Kirsch–Mitzenmacher)."""
    h1, h2 = _hash_pair(item)
    return [(h1 + i * h2) % m for i in range(k)]


def optimal_parameters(expected_items: int, target_fpr: float) -> tuple:
    """(m bits, k hashes) minimising space for the target FPR."""
    if expected_items <= 0:
        raise ConfigurationError("expected_items must be positive")
    if not 0.0 < target_fpr < 1.0:
        raise ConfigurationError("target_fpr must be in (0, 1)")
    m = math.ceil(-expected_items * math.log(target_fpr) / (math.log(2) ** 2))
    k = max(1, round(m / expected_items * math.log(2)))
    return m, k


class BloomFilter:
    """Plain m-bit, k-hash Bloom filter over byte strings."""

    def __init__(self, bits: int, hashes: int):
        if bits <= 0 or hashes <= 0:
            raise ConfigurationError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray((bits + 7) // 8)
        self.inserted = 0

    @classmethod
    def for_capacity(cls, expected_items: int, target_fpr: float = 0.01) -> "BloomFilter":
        m, k = optimal_parameters(expected_items, target_fpr)
        return cls(m, k)

    def add(self, item: bytes) -> None:
        h1, h2 = _hash_pair(item)
        array = self._array
        for i in range(self.hashes):
            index = (h1 + i * h2) % self.bits
            array[index >> 3] |= _BITMASKS[index & 7]
        self.inserted += 1

    def add_all(self, items: Iterable[bytes]) -> None:
        for item in items:
            self.add(item)

    def add_bulk(self, items: Iterable[bytes]) -> None:
        """Insert many items through the bulk kernel.

        Identical filter state to ``add_all``.
        """
        from repro.kernels import bloom_add_bulk

        bloom_add_bulk(self, list(items))

    def add_unique_bulk(self, items: Iterable[bytes]) -> List[bool]:
        """Insert items not yet present; returns per-item "was new".

        Exactly equivalent to testing ``item not in self`` and calling
        ``add`` for each item in order: each membership test sees the
        bits set by every *earlier* item in the batch, so within-batch
        duplicates (and cross-item false positives) resolve the same
        way as the scalar loop.  The hashing is bulk; only the cheap
        bit test-and-set runs per item.
        """
        from repro.kernels import bloom_index_rows

        rows = bloom_index_rows(self, list(items))
        array = self._array
        fresh: List[bool] = []
        for row in rows:
            member = all(array[b >> 3] & _BITMASKS[b & 7] for b in row)
            if not member:
                for b in row:
                    array[b >> 3] |= _BITMASKS[b & 7]
                self.inserted += 1
            fresh.append(not member)
        return fresh

    def __contains__(self, item: bytes) -> bool:
        h1, h2 = _hash_pair(item)
        array = self._array
        for i in range(self.hashes):
            index = (h1 + i * h2) % self.bits
            if not array[index >> 3] & _BITMASKS[index & 7]:
                return False
        return True

    def query_bulk(self, items: Iterable[bytes]) -> List[bool]:
        """Membership answer per item, exactly ``item in self``."""
        from repro.kernels import bloom_query_bulk

        return bloom_query_bulk(self, list(items))

    @property
    def fill_factor(self) -> float:
        """Fraction of bits set — 0.5 is the design point; near 1.0 the
        filter is saturated and answers yes to everything."""
        set_bits = sum(bin(byte).count("1") for byte in self._array)
        return set_bits / self.bits

    @property
    def false_positive_rate(self) -> float:
        """Current (not design-time) FPR estimate: fill^k."""
        return self.fill_factor ** self.hashes

    def measured_false_positive_rate(self, probes: Iterable[bytes]) -> float:
        """Empirical FPR over ``probes`` assumed not to be members."""
        probe_list = list(probes)
        if not probe_list:
            raise ConfigurationError("need at least one probe")
        hits = sum(self.query_bulk(probe_list))
        return hits / len(probe_list)
