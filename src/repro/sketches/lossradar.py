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
from typing import Dict, List, Sequence, Set, Tuple

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

    def fingerprint(self) -> int:
        return fnv1a_64(self.packed())


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

    def observe(self, packet: PacketId) -> None:
        key = packet.packed()
        fingerprint = packet.fingerprint()
        for index in partitioned_indices(key, self.hashes, self.cell_count):
            cell = self.cells[index]
            cell.xor_sum ^= fingerprint
            cell.count += 1
        self.packets += 1
        self._keys[fingerprint] = key

    def observe_bulk(self, packet_ids: Sequence[PacketId]) -> List[int]:
        """Observe every packet through the bulk hashing kernels.

        Identical final digest state to calling :meth:`observe` per
        packet (the bulk hashes are exact).  Returns each packet's
        fingerprint so callers can update ground-truth sets without
        rehashing.
        """
        packet_ids = list(packet_ids)
        if not packet_ids:
            return []
        from repro.kernels import fnv1a_bulk, sketch_indices

        keys = [packet.packed() for packet in packet_ids]
        fingerprints = fnv1a_bulk(keys)
        index_rows = sketch_indices(keys, self.hashes, self.cell_count)
        cells = self.cells
        for fingerprint, indices in zip(fingerprints, index_rows):
            for index in indices:
                cell = cells[index]
                cell.xor_sum ^= fingerprint
                cell.count += 1
        self.packets += len(packet_ids)
        self._keys.update(zip(fingerprints, keys))
        return fingerprints

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
        self.upstream.observe(packet)
        if lost:
            self._lost_truth.add(packet.fingerprint())
        else:
            self.downstream.observe(packet)

    def inject_downstream(self, packet: PacketId) -> None:
        """Attacker-injected packet that only the downstream meter sees."""
        self.downstream.observe(packet)
        self._injected_truth.add(packet.fingerprint())

    def inject_upstream_only(self, packet: PacketId) -> None:
        """Attacker packet addressed to die inside the segment."""
        self.upstream.observe(packet)
        self._injected_truth.add(packet.fingerprint())

    # -- bulk variants (bulk-hashed, exact) ----------------------------------

    def transit_bulk(self, packets: Sequence[PacketId], lost: Sequence[bool]) -> None:
        """Bulk :meth:`transit`: packet ``i`` is dropped iff ``lost[i]``."""
        packets = list(packets)
        lost = list(lost)
        if len(packets) != len(lost):
            raise ConfigurationError("packets and lost flags must have equal length")
        fingerprints = self.upstream.observe_bulk(packets)
        survivors = [p for p, dropped in zip(packets, lost) if not dropped]
        self.downstream.observe_bulk(survivors)
        self._lost_truth.update(
            fp for fp, dropped in zip(fingerprints, lost) if dropped
        )

    def inject_downstream_bulk(self, packets: Sequence[PacketId]) -> None:
        """Bulk :meth:`inject_downstream`."""
        self._injected_truth.update(self.downstream.observe_bulk(packets))

    def inject_upstream_only_bulk(self, packets: Sequence[PacketId]) -> None:
        """Bulk :meth:`inject_upstream_only`."""
        self._injected_truth.update(self.upstream.observe_bulk(packets))

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
