"""Fails when a step-benchmark workload sends more, or peaks higher, than
EXPERIMENTS.md records (rounded there to four decimals).

    python3 .github/stepbench-gates.py benchmark/out/latest.json

Both numbers are exact and repeat from run to run.
- comm_mib_per_step (§Hosted vectors travel once per step): a checkpointed
  2D layer's backward reads the panels its recompute received, and the tied
  head's backward those of the logits product; a step's top layer is not
  recomputed, and a stage's vectors travel in one region per step.
- peak_mem_mib (§The immediate update is the step): a device builds only its
  shard, drawing each parameter piece from its stream, and an SGD step
  applies and drops each weight gradient as soon as it is complete, so no
  layer's gradients outlive its backward.
"""

import json
import sys

RECORDED = {
    "comm_mib_per_step": {
        "opt2d_2x2_h256": 73.8047,
        "opt2d_4x4_h128": 87.7560,
        "meg1d_p4_h256": 72.0352,
        "hyb_pp2_dp2_2x2_h128": 84.0568,
    },
    "peak_mem_mib": {
        "opt2d_2x2_h256": 8.8750,
        "opt2d_4x4_h128": 0.9062,
        "meg1d_p4_h256": 14.5000,
        "hyb_pp2_dp2_2x2_h128": 2.2812,
    },
}

runs = json.load(open(sys.argv[1]))["workloads"]
bad = []
for metric, limits in RECORDED.items():
    for name, limit in limits.items():
        got = runs[name]["end_to_end"][metric]["value"]
        print(f"{name}: {metric} {got:.4f} (recorded {limit:.4f})")
        if round(got, 4) > limit:
            bad.append(f"{name} {metric}")
sys.exit(f"above what is recorded: {bad}" if bad else 0)
