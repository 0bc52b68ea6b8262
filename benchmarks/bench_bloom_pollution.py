"""Bloom pollution hot path, isolated for the perf gate.

``bench_sketch_pollution`` sweeps the full attack (flow generation,
FlowRadar, LossRadar); this bench times *only* the structure-pollution
phase — inserting the crafted keys with ``BloomFilter.add_all`` and
probing the saturated filter with ``in``.  Keys are pre-packed outside
the timed region so the measurement covers the filter's hashing,
indexing and bit-setting, not shared Python setup.
"""

from __future__ import annotations

import time

from conftest import banner, bench_record, run_once

from repro.analysis import ascii_table
from repro.attacks.sketch_attack import synthetic_flows
from repro.kernels import KERNELS_NAME
from repro.sketches.bloom import BloomFilter

DESIGN_CAPACITY = 5_000
TARGET_FPR = 0.01
ATTACK_KEYS = 20_000
PROBE_KEYS = 4_000

#: Best-of-N reps inside the timed region keeps the perf gate's
#: trials/sec out of single-core scheduler noise.
REPS = 3


def test_bloom_pollution(benchmark):
    attack = [flow.packed() for flow in synthetic_flows(ATTACK_KEYS, subnet=2)]
    probes = [flow.packed() for flow in synthetic_flows(PROBE_KEYS, subnet=8)]
    timing = {}

    def pollute():
        best = None
        for _ in range(REPS):
            bloom = BloomFilter.for_capacity(DESIGN_CAPACITY, TARGET_FPR)
            started = time.perf_counter()
            bloom.add_all(attack)
            hits = sum(probe in bloom for probe in probes)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        timing["best_seconds"] = best
        return bloom, hits / len(probes)

    bloom, fpr = run_once(benchmark, pollute)

    banner("Bloom pollution hot path")
    ops = ATTACK_KEYS + PROBE_KEYS
    rows = [
        {"quantity": "design capacity", "value": DESIGN_CAPACITY},
        {"quantity": "attack keys inserted", "value": ATTACK_KEYS},
        {"quantity": "probe keys queried", "value": PROBE_KEYS},
        {"quantity": "false-positive rate after", "value": round(fpr, 4)},
        {"quantity": "fill factor after", "value": round(bloom.fill_factor, 4)},
        {"quantity": f"best-of-{REPS} wall (ms)", "value": round(timing["best_seconds"] * 1e3, 2)},
        {"quantity": "keys/second", "value": round(ops / timing["best_seconds"])},
    ]
    print(ascii_table(rows, title="4x-capacity pollution (designed for 1% FPR)"))

    # Shape: 4x the design capacity saturates the filter — the paper's
    # "pollute, or even saturate a bloom filter" claim.
    assert fpr > 0.5
    assert bloom.fill_factor > 0.9

    bench_record(
        benchmark,
        name="bloom_pollution",
        backend=KERNELS_NAME,
        trials=ops,
        wall_seconds=timing["best_seconds"],
    )
    benchmark.extra_info.update(
        {
            "fpr_after": fpr,
            "fill_factor_after": bloom.fill_factor,
            "keys_per_second": ops / timing["best_seconds"],
        }
    )
