"""End-to-end minimization and the benchmark harness on the bundled
synthetic dataset (40 inputs, 38 planted blocks, known optimum).

Run: python3 demos/05_pipeline_bench.py
"""

from covmin.config import RunConfig
from covmin.harness import bench, run_pipeline
from covmin.synthetic import make_synthetic_dataset, planted_optimum_cost

ds = make_synthetic_dataset()
config = RunConfig(generations=50)

result = run_pipeline(ds, config, seed=7)
print("config:", result.config_label)
print("blocks:", result.block_count)
print("necessary inputs:", len(result.necessary))
print("component sizes:", result.component_sizes)
print("selected", len(result.selected), "of", len(ds.inputs), "inputs")
print("cost:", result.total_cost, "of", result.original_cost,
      "| planted optimum:", planted_optimum_cost())
print("vulnerability detection rate:", result.vdr)

print("\nbenchmark, 2 repetitions:")
report = bench(ds, config, repetitions=2, seed=7)  # mocco, greedy, random, art
print(f"{'algorithm':<10} {'rep':>3} {'size':>4} {'cost':>5} {'vdr':>5} covers")
for row in report["rows"]:
    print(f"{row['algorithm']:<10} {row['repetition']:>3} {row['size']:>4} "
          f"{row['cost']:>5} {row['vdr']:>5.2f} {row['covers_all']}")

print("\nA12 effect sizes on cost (row is cheaper than column when < 0.5):")
for pair, v in sorted(report["a12_cost"].items()):
    a, b = pair.split("|")
    print(f"  {a:<8} vs {b:<8} {v:.2f}")
