"""LossRadar: locating lost packets with invertible Bloom digests.

LossRadar (Li et al., CoNEXT'16) places a small "meter" on each end of
a link segment.  Each meter folds every passing packet (flow key +
packet identifier) into an invertible Bloom filter; periodically the
downstream digest is *subtracted* from the upstream one, leaving
exactly the packets that entered but never exited — the losses — which
decode by the usual pure-cell peeling.

Attack surface (Section 3.2): the digests trust the packets they see.
An attacker who injects packets that cross only one meter (spoofed
insertions downstream, or extra packets upstream that are legitimately
dropped in between) inflates the difference digest past its decode
capacity, so the operator can no longer locate *real* losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple, fnv1a_64
from repro.sketches.hashing import partitioned_indices


@dataclass(frozen=True)
class PacketId:
    """Identity of one packet: flow plus a per-flow sequence number."""

    flow: FiveTuple
    sequence: int

    def packed(self) -> bytes:
        return self.flow.packed() + self.sequence.to_bytes(8, "big")


@dataclass
class _Cell:
    xor_sum: int = 0
    count: int = 0


class PacketDigest:
    """One meter's invertible Bloom filter over packet identities."""

    def __init__(self, cells: int, hashes: int = 3):
        if cells <= 0 or hashes <= 0:
            raise ConfigurationError("cells and hashes must be positive")
        self.cell_count = cells
        self.hashes = hashes
        self.cells: List[_Cell] = [_Cell() for _ in range(cells)]
        self.packets = 0
        self._keys: Dict[int, bytes] = {}

    def observe(self, packet: PacketId) -> int:
        """Fold ``packet`` into the digest; returns its fingerprint."""
        key = packet.packed()
        fingerprint = fnv1a_64(key)
        cells = self.cells
        for index in partitioned_indices(key, self.hashes, self.cell_count):
            cell = cells[index]
            cell.xor_sum ^= fingerprint
            cell.count += 1
        self.packets += 1
        self._keys[fingerprint] = key
        return fingerprint

    def subtract(self, other: "PacketDigest") -> "PacketDigest":
        """Upstream − downstream: the digest of the missing packets."""
        if self.cell_count != other.cell_count or self.hashes != other.hashes:
            raise ConfigurationError("digests must share dimensions to subtract")
        diff = PacketDigest(self.cell_count, self.hashes)
        for mine, theirs, target in zip(self.cells, other.cells, diff.cells):
            target.xor_sum = mine.xor_sum ^ theirs.xor_sum
            target.count = mine.count - theirs.count
        diff.packets = self.packets - other.packets
        diff._keys = dict(self._keys)
        diff._keys.update(other._keys)
        return diff

    def decode(self) -> Tuple[Set[int], bool]:
        """Peel the digest; returns (fingerprints, complete).

        Handles negative counts (packets present only downstream —
        injected traffic) by peeling cells with count == ±1
        symmetrically, as the LossRadar decoder does.
        """
        cells = [_Cell(c.xor_sum, c.count) for c in self.cells]
        found: Set[int] = set()
        progress = True
        while progress:
            progress = False
            for cell in cells:
                if abs(cell.count) != 1:
                    continue
                fingerprint = cell.xor_sum
                key = self._keys.get(fingerprint)
                if key is None:
                    continue
                sign = 1 if cell.count > 0 else -1
                found.add(fingerprint)
                for index in partitioned_indices(key, self.hashes, self.cell_count):
                    other = cells[index]
                    other.xor_sum ^= fingerprint
                    other.count -= sign
                progress = True
        complete = all(cell.count == 0 for cell in cells)
        return found, complete


class LossRadarSegment:
    """An (upstream, downstream) meter pair around a link segment."""

    def __init__(self, cells: int = 4096, hashes: int = 3):
        self.upstream = PacketDigest(cells, hashes)
        self.downstream = PacketDigest(cells, hashes)
        self._lost_truth: Set[int] = set()
        self._injected_truth: Set[int] = set()

    def transit(self, packet: PacketId, lost: bool = False) -> None:
        """A packet enters the segment; ``lost`` drops it inside."""
        fingerprint = self.upstream.observe(packet)
        if lost:
            self._lost_truth.add(fingerprint)
        else:
            self.downstream.observe(packet)

    def inject_downstream(self, packet: PacketId) -> None:
        """Attacker-injected packet that only the downstream meter sees."""
        self._injected_truth.add(self.downstream.observe(packet))

    def inject_upstream_only(self, packet: PacketId) -> None:
        """Attacker packet addressed to die inside the segment."""
        self._injected_truth.add(self.upstream.observe(packet))

    def locate_losses(self) -> Tuple[Set[int], bool]:
        """Run the periodic loss localisation."""
        return self.upstream.subtract(self.downstream).decode()

    def report(self) -> dict:
        """Operator-facing summary with ground-truth comparison."""
        found, complete = self.locate_losses()
        true_losses = set(self._lost_truth)
        return {
            "decode_complete": complete,
            "reported": len(found),
            "true_losses": len(true_losses),
            "true_losses_found": len(found & true_losses),
            "recall": (len(found & true_losses) / len(true_losses)) if true_losses else 1.0,
            "spurious": len(found - true_losses),
        }
