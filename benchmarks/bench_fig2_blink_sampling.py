"""E1 (Fig. 2): malicious flows sampled by Blink over time.

Paper: theory curves (average, 5th/95th percentile) plus 50 simulated
runs at tR = 8.37 s, qm = 0.0525; "on average, it takes 172 s until the
sample contains enough (i.e., 32) malicious flows"; "after 200 s, there
is a high chance that at least 32 monitored flows are malicious".

Our closed form puts the mean-capture crossing at ≈ 108 s and the
success probability above 95 % by 200 s; the packet-level bench (E2)
adds the hash-coverage and eviction effects that push the measured
crossing toward the paper's 172 s.  See DESIGN.md, "Modeling notes".
"""

import time

from conftest import banner, bench_record, run_once

from repro.analysis import ascii_table, series_block
from repro.blink import (
    FIG2_QM,
    FIG2_SIMULATIONS,
    FIG2_TR,
    fig2_experiment,
    probability_at_least,
)
from repro.kernels import KERNELS_NAME

#: Best-of-N reps inside the timed region keeps the perf gate's
#: trials/sec out of single-core scheduler noise.
REPS = 3


def test_fig2_theory_and_simulation(benchmark):
    timing = {}

    def experiment():
        best = None
        for _ in range(REPS):
            started = time.perf_counter()
            result = fig2_experiment(
                qm=FIG2_QM,
                tr=FIG2_TR,
                runs=FIG2_SIMULATIONS,
                seed=0,
            )
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        timing["best_seconds"] = best
        return result

    result = run_once(benchmark, experiment)

    banner("E1 / Fig. 2 — malicious flows sampled by Blink over time")
    print(series_block("theory mean", result.theory.times, result.theory.mean))
    print(series_block("theory p5", result.theory.times, result.theory.p5))
    print(series_block("theory p95", result.theory.times, result.theory.p95))
    sample = result.runs[0]
    print(series_block("one of 50 simulations", sample.times, [float(v) for v in sample.captured]))
    print()

    p_at_200 = probability_at_least(32, 200.0, FIG2_QM, FIG2_TR)
    rows = [
        {"quantity": "paper: tR (s)", "value": FIG2_TR},
        {"quantity": "paper: qm", "value": FIG2_QM},
        {"quantity": "threshold cells (half of 64)", "value": result.threshold},
        {"quantity": "mean-capture crossing, theory (s)", "value": round(result.mean_crossing_theory, 1)},
        {"quantity": "expected hitting time, theory (s)", "value": round(result.expected_hitting_theory, 1)},
        {"quantity": "median success time, theory (s)", "value": round(result.median_success_time_theory, 1)},
        {"quantity": "mean crossing over 50 simulations (s)", "value": round(result.mean_crossing_simulated, 1)},
        {"quantity": "P(>=32 captured by 200 s)", "value": round(p_at_200, 4)},
        {"quantity": "simulations succeeding within budget", "value": f"{result.success_fraction:.0%}"},
    ]
    print(ascii_table(rows, title="Fig. 2 headline numbers (paper: ~172 s avg, high chance by 200 s)"))

    # Shape assertions: attack succeeds comfortably inside the 8.5 min
    # budget, and 200 s is indeed enough with high probability.
    assert result.success_fraction >= 0.95
    assert result.mean_crossing_simulated < 200.0
    assert p_at_200 > 0.95

    bench_record(
        benchmark,
        name="fig2_blink_sampling",
        backend=KERNELS_NAME,
        trials=FIG2_SIMULATIONS,
        wall_seconds=timing["best_seconds"],
    )
    benchmark.extra_info.update(
        {
            "mean_crossing_theory_s": result.mean_crossing_theory,
            "mean_crossing_simulated_s": result.mean_crossing_simulated,
            "p_success_at_200s": p_at_200,
            "success_fraction": result.success_fraction,
        }
    )
