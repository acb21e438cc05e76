"""Check one traced benchmark result line against the pinned seed-1 counts.

    python perfbench/run.py --workload deep-overlap --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python tests/check_trace_counts.py deep-overlap

Prints one summary line and exits 1 unless the result is correct, every
per-layer metric that BENCHMARK.json declares is present, and every count
pinned for the workload in tests/data/trace_counts_seed1.json equals its pin,
compared as numbers (a median count can print as 446.0).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(workload: str, line: str) -> int:
    result = json.loads(line)
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    pinned = json.loads((ROOT / "tests" / "data" / "trace_counts_seed1.json").read_text())[workload]
    moved = {
        name: [metrics[name]["value"] if name in metrics else None, count]
        for name, count in pinned.items()
        if name not in metrics or float(metrics[name]["value"]) != count
    }
    print(workload, "correct:", result["correct"], "missing:", missing,
          "moved [got, pinned]:", moved)
    return int(not (result["correct"] is True and not missing and not moved))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.stdin.read()))
