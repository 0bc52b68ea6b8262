"""FlowRadar: the encoded flowset and its decoder.

FlowRadar (Li et al., NSDI'16) keeps, per switch, a constant-time
"encoded flowset": an array of cells, each holding ``flow_xor`` (XOR of
flow keys hashed here), ``flow_count`` and ``packet_count``, plus a
Bloom filter to detect whether a flow was already counted.  Decoding
peels *pure* cells (flow_count == 1): the cell's flow is recovered,
its contribution subtracted from its other cells, potentially making
them pure, and so on — exactly like an invertible Bloom lookup table.

Decoding succeeds w.h.p. only while the number of distinct flows stays
below the design capacity (≈ 0.8× cells / k for k hashes); beyond that
the 2-core of the hash hypergraph becomes non-empty and peeling stalls.
That cliff is the attack surface: an adversary who inserts enough
spoofed flows pushes the structure past capacity and the operator loses
per-flow counters for *everyone* (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ConfigurationError, DecodeError
from repro.flows.flow import FiveTuple, fnv1a_64
from repro.sketches.bloom import BloomFilter
from repro.sketches.hashing import partitioned_indices


def _flow_bytes(flow: FiveTuple) -> bytes:
    return flow.packed()


@dataclass
class _Cell:
    flow_xor: int = 0
    flow_count: int = 0
    packet_count: int = 0


@dataclass
class DecodeResult:
    """Outcome of decoding an encoded flowset."""

    flows: Dict[int, int]  # fingerprint -> packet count
    complete: bool
    undecoded_cells: int

    @property
    def decoded_count(self) -> int:
        return len(self.flows)


class FlowRadar:
    """The encoded flowset of one switch."""

    def __init__(self, cells: int, hashes: int = 3, bloom_bits: Optional[int] = None):
        if cells <= 0 or hashes <= 0:
            raise ConfigurationError("cells and hashes must be positive")
        self.cell_count = cells
        self.hashes = hashes
        self.cells: List[_Cell] = [_Cell() for _ in range(cells)]
        # The flow filter must have a negligible false-positive rate:
        # an FP skips the flow_count/flow_xor update and silently
        # corrupts neighbouring counters.  FlowRadar therefore sizes it
        # generously (unlike the counting table, it is cheap per bit).
        if bloom_bits is not None:
            self.bloom = BloomFilter(bloom_bits, hashes)
        else:
            self.bloom = BloomFilter.for_capacity(max(cells, 1), target_fpr=1e-6)
        self.flows_seen = 0
        self.packets_seen = 0
        # Ground-truth membership for evaluation (a real switch has no
        # such table — that is FlowRadar's entire point).
        self._truth: Dict[int, int] = {}
        # fingerprint -> packed flow key.  The real flowset XORs the
        # *full* flow key into the cell, so the decoder reads keys
        # directly; we XOR 64-bit fingerprints instead and keep this
        # side table, which is behaviourally identical.
        self._keys: Dict[int, bytes] = {}

    @classmethod
    def for_capacity(cls, expected_flows: int, hashes: int = 3, headroom: float = 1.4) -> "FlowRadar":
        """Size the flowset for ``expected_flows`` with IBLT headroom.

        Peeling needs cells ≈ 1.3–1.5 × flows for k = 3; ``headroom``
        is that multiplier.  Dimensioning "for the average case" with
        modest headroom is precisely what the pollution attack abuses.
        """
        if expected_flows <= 0:
            raise ConfigurationError("expected_flows must be positive")
        return cls(cells=int(expected_flows * headroom), hashes=hashes)

    def observe(self, flow: FiveTuple, packets: int = 1) -> None:
        """Count ``packets`` for ``flow`` (new flows enter the flowset)."""
        if packets <= 0:
            raise ConfigurationError("packets must be positive")
        key = _flow_bytes(flow)
        fingerprint = fnv1a_64(key)  # the XOR field's 64-bit fingerprint
        is_new = self.bloom.add_if_absent(key)
        if is_new:
            self.flows_seen += 1
        cells = self.cells
        for index in partitioned_indices(key, self.hashes, self.cell_count):
            cell = cells[index]
            if is_new:
                cell.flow_xor ^= fingerprint
                cell.flow_count += 1
            cell.packet_count += packets
        self.packets_seen += packets
        self._truth[fingerprint] = self._truth.get(fingerprint, 0) + packets
        self._keys[fingerprint] = key

    def observe_trace(self, flows: Iterable[Tuple[FiveTuple, int]]) -> None:
        for flow, packets in flows:
            self.observe(flow, packets)

    # -- decoding ------------------------------------------------------------

    def decode(self, flow_lookup: Optional[Dict[int, FiveTuple]] = None) -> DecodeResult:
        """Peel pure cells until none remain.

        ``flow_lookup`` maps fingerprints back to flows so peeled
        contributions can be removed from their other cells; the
        collector builds it from the fingerprints themselves in the real
        system (flow_xor stores the full key there).  We carry
        fingerprints through a side table built during encoding, which
        is behaviourally identical.
        """
        cells = [
            _Cell(c.flow_xor, c.flow_count, c.packet_count) for c in self.cells
        ]
        decoded: Dict[int, int] = {}
        fingerprint_cells = self._fingerprint_cells(flow_lookup)

        progress = True
        while progress:
            progress = False
            for cell in cells:
                if cell.flow_count != 1:
                    continue
                fingerprint = cell.flow_xor
                if fingerprint not in fingerprint_cells:
                    # Colliding XOR of several flows masquerading as
                    # pure — cannot verify; skip (decode may stall).
                    continue
                packets = cell.packet_count
                decoded[fingerprint] = packets
                for index in fingerprint_cells[fingerprint]:
                    other = cells[index]
                    other.flow_xor ^= fingerprint
                    other.flow_count -= 1
                    other.packet_count -= packets
                progress = True
        undecoded = sum(1 for cell in cells if cell.flow_count > 0)
        return DecodeResult(
            flows=decoded,
            complete=undecoded == 0,
            undecoded_cells=undecoded,
        )

    def decode_or_raise(self) -> DecodeResult:
        result = self.decode()
        if not result.complete:
            raise DecodeError(
                f"flowset decode stalled: {result.undecoded_cells} cells undecodable",
                decoded=result.decoded_count,
                remaining=result.undecoded_cells,
            )
        return result

    def _fingerprint_cells(
        self, flow_lookup: Optional[Dict[int, FiveTuple]]
    ) -> Dict[int, List[int]]:
        mapping: Dict[int, List[int]] = {}
        source = {fp: _flow_bytes(flow) for fp, flow in (flow_lookup or {}).items()}
        keys = dict(self._keys)
        keys.update(source)
        for fingerprint, key in keys.items():
            mapping[fingerprint] = partitioned_indices(key, self.hashes, self.cell_count)
        return mapping

    # -- evaluation helpers ------------------------------------------------------

    def decode_success_rate(self) -> float:
        """Fraction of true flows recovered by decoding."""
        if not self._truth:
            return 1.0
        result = self.decode()
        correct = sum(
            1
            for fingerprint, packets in result.flows.items()
            if self._truth.get(fingerprint) == packets
        )
        return correct / len(self._truth)

    @property
    def load_factor(self) -> float:
        """Distinct flows per cell — decode fails sharply above ~0.7-0.8
        for k=3."""
        return self.flows_seen / self.cell_count
