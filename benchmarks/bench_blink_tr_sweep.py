"""E3: per-prefix tR statistics and the tR × qm feasibility frontier.

Paper: "We analyzed the top-20 prefixes of each CAIDA trace used in
[Blink] and found that for half of them the average time a flow remains
sampled is 10 s (the median is ∼5 s). ... With longer tR, the attack is
harder, i.e., requires higher qm."

Part 1 regenerates the top-20 prefix table from the synthetic
CAIDA-like traces (our substitution for the unavailable CAIDA data) and
checks the median/fraction statistics.  Part 2 sweeps tR and reports
the minimum qm for a 95 %-confident capture within the 8.5 min budget,
plus ablations of Blink's reset interval (a shorter reset shrinks the
attacker's budget — the design-choice ablation from DESIGN.md §6).
"""

from conftest import banner, run_once

from repro.analysis import ascii_table
from repro.blink import mean_crossing_time, minimum_qm
from repro.flows import SyntheticCaidaConfig, SyntheticCaidaTrace


def _frontier_point(tr):
    """(tR, minimum qm for a 95 %-confident capture, mean crossing at it)."""
    qm = minimum_qm(32, tr, budget=510.0, cells=64, confidence=0.95)
    return tr, qm, mean_crossing_time(32, qm, tr, 64)


def _experiment():
    backbone = SyntheticCaidaTrace(
        SyntheticCaidaConfig(prefixes=20, horizon=200.0, seed=7)
    )
    report = backbone.top_prefix_report()
    summary = backbone.summary()
    frontier = [
        _frontier_point(tr) for tr in (2.0, 5.0, 8.37, 10.0, 15.0, 20.0, 30.0)
    ]
    resets = {
        budget: minimum_qm(32, 8.37, budget=budget, confidence=0.95)
        for budget in (510.0, 255.0, 120.0, 60.0)
    }
    return report, summary, frontier, resets


def test_tr_statistics_and_feasibility(benchmark):
    report, summary, frontier, resets = run_once(benchmark, _experiment)

    banner("E3 — per-prefix tR statistics (synthetic CAIDA substitute)")
    rows = [
        {
            "prefix": row["prefix"],
            "flows": row["flows"],
            "mean sampled time tR (s)": round(row["mean_sampled_time"], 2),
        }
        for row in report
    ]
    print(ascii_table(rows, title="Top-20 prefixes by tR"))
    print()
    print(
        ascii_table(
            [
                {
                    "flow-median sampled time (s) [paper: ~5]": round(
                        summary["flow_median_sampled_time"], 2
                    ),
                    "prefixes with mean tR >= 10 s [paper: ~half]": round(
                        summary["fraction_at_least_10s"], 2
                    ),
                }
            ],
            title="Cross-prefix summary",
        )
    )
    print()

    rows = [
        {
            "tR (s)": tr,
            "min qm for 95% capture": round(qm, 4),
            "mean crossing at that qm (s)": round(crossing, 1),
        }
        for tr, qm, crossing in frontier
    ]
    print(ascii_table(rows, title="Feasibility frontier: longer tR needs higher qm"))
    print()

    rows = [
        {"reset interval tB (s)": budget, "min qm": round(qm, 4)}
        for budget, qm in sorted(resets.items(), reverse=True)
    ]
    print(ascii_table(rows, title="Ablation: shorter sample reset raises the attack bar"))

    # Shape assertions.
    trs = [row["mean_sampled_time"] for row in report]
    assert 3.0 < summary["flow_median_sampled_time"] < 8.0
    assert 0.3 <= summary["fraction_at_least_10s"] <= 0.9
    qms = [qm for _, qm, _ in frontier]
    assert qms == sorted(qms)  # monotone in tR
    reset_qms = [resets[b] for b in sorted(resets, reverse=True)]
    assert reset_qms == sorted(reset_qms)  # monotone in shrinking budget

    benchmark.extra_info.update(
        {
            "flow_median_sampled_time_s": summary["flow_median_sampled_time"],
            "median_tr_s": summary["median_tr"],
            "fraction_tr_ge_10s": summary["fraction_at_least_10s"],
            "min_qm_at_paper_tr": dict(
                (str(tr), qm) for tr, qm, _ in frontier
            )["8.37"],
        }
    )
