"""Flow identities: 5-tuples and stable hashing.

Blink indexes its flow-selector cells by a hash of the 5-tuple; the
hash must be deterministic across processes (Python's builtin ``hash``
on strings is salted per process) and uniform.  We use a CRC-like
FNV-1a over the packed tuple, which is what software dataplane
prototypes typically ship.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterator

FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
FNV_PRIME_64 = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data`` — deterministic across runs."""
    value = FNV_OFFSET_BASIS_64
    for byte in data:
        value ^= byte
        value = (value * FNV_PRIME_64) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass(frozen=True)
class FiveTuple:
    """The classic (src, dst, sport, dport, protocol) flow identity."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: int = 6

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol out of range: {self.protocol}")
        # Flows key per-packet dicts (trace aggregation, Blink's index
        # cache), so the builtin hash is computed once.  It is the
        # dataclass-generated value, so dict and set order are unchanged.
        object.__setattr__(
            self,
            "_hash",
            hash((self.src, self.dst, self.src_port, self.dst_port, self.protocol)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # The dataclass __eq__, with the cached hashes compared first:
        # that settles most unequal pairs without building field tuples.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and (self.src, self.dst, self.src_port, self.dst_port, self.protocol)
            == (other.src, other.dst, other.src_port, other.dst_port, other.protocol)
        )

    def __reduce__(self):
        # Rebuild from the fields: the cached hash is salted per process
        # (PYTHONHASHSEED) and must never travel in a pickle or a copy.
        return (
            FiveTuple,
            (self.src, self.dst, self.src_port, self.dst_port, self.protocol),
        )

    def packed(self) -> bytes:
        """Canonical byte encoding used for hashing."""
        return (
            self.src.encode("ascii", errors="replace")
            + b"|"
            + self.dst.encode("ascii", errors="replace")
            + self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.protocol.to_bytes(1, "big")
        )

    def stable_hash(self) -> int:
        """Deterministic 64-bit hash (used by Blink's flow selector)."""
        return fnv1a_64(self.packed())

    def cell_index(self, cells: int, seed: int = 0) -> int:
        """Map this flow onto one of ``cells`` selector cells.

        ``seed`` lets Blink re-randomise the mapping on each sample
        reset so an attacker cannot precompute collisions forever.
        """
        if cells <= 0:
            raise ValueError("cells must be positive")
        mixed = fnv1a_64(self.packed() + seed.to_bytes(8, "big", signed=False))
        return mixed % cells

    def reversed(self) -> "FiveTuple":
        """The reverse direction of the same conversation."""
        return FiveTuple(self.dst, self.src, self.dst_port, self.src_port, self.protocol)

    def __str__(self) -> str:
        return f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}/{self.protocol}"


def ip_in_prefix(address: str, prefix: str) -> bool:
    """True if ``address`` falls inside CIDR ``prefix``.

    Non-IP node names (the simulators also allow symbolic hosts like
    ``"h1"``) never match any prefix.
    """
    try:
        return ipaddress.ip_address(address) in ipaddress.ip_network(prefix, strict=False)
    except ValueError:
        return False


def hosts_in_prefix(prefix: str, count: int, offset: int = 1) -> Iterator[str]:
    """Yield ``count`` host addresses from ``prefix``.

    Flow generators use this to synthesise per-prefix populations.
    """
    network = ipaddress.ip_network(prefix, strict=False)
    capacity = network.num_addresses - 2 if network.num_addresses > 2 else network.num_addresses
    if count > capacity - (offset - 1):
        raise ValueError(
            f"prefix {prefix} cannot supply {count} hosts starting at offset {offset}"
        )
    base = int(network.network_address)
    for i in range(count):
        yield str(ipaddress.ip_address(base + offset + i))
