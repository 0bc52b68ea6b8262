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

    def add_if_absent(self, item: bytes) -> bool:
        """Insert ``item`` unless the filter already answers yes for it;
        return whether it was inserted.

        The bits and ``inserted`` count of ``if item not in self:
        self.add(item)``, hashing ``item`` once.
        """
        array = self._array
        indices = _hash_indices(item, self.hashes, self.bits)
        if all(array[index >> 3] & _BITMASKS[index & 7] for index in indices):
            return False
        for index in indices:
            array[index >> 3] |= _BITMASKS[index & 7]
        self.inserted += 1
        return True

    def __contains__(self, item: bytes) -> bool:
        h1, h2 = _hash_pair(item)
        array = self._array
        for i in range(self.hashes):
            index = (h1 + i * h2) % self.bits
            if not array[index >> 3] & _BITMASKS[index & 7]:
                return False
        return True

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
        hits = sum(probe in self for probe in probe_list)
        return hits / len(probe_list)
