"""From raw pages to coverage objectives: the double clustering.

First clustering groups output pages into classes; within each class the
action occurrences are split by request method and clustered again by
action distance. Each resulting subclass is one coverage block.

Run: python3 demos/02_clustering_blocks.py
"""

import numpy as np

from covmin.blocks import build_coverage, cluster_outputs
from covmin.clustering import DistanceMatrix, select_hyperparams
from covmin.config import RunConfig
from covmin.synthetic import make_synthetic_dataset

# Hyper-parameters are not hand-picked: every grid point is scored by mean
# silhouette (up) and Gini dispersion (down), and the best Pareto-front
# member wins.
toy = DistanceMatrix(np.array([
    [0, 1, 9, 9],
    [1, 0, 9, 9],
    [9, 9, 0, 1],
    [9, 9, 1, 0],
], dtype=float))
choice = select_hyperparams(toy, RunConfig(eps_range=(1, 8)).grid("dbscan"))
print("toy matrix labels:", choice.labels)
print("picked:", choice.params,
      "silhouette", round(choice.silhouette_mean, 3),
      "gini", round(choice.gini, 3))

ds = make_synthetic_dataset()
config = RunConfig()

assignments = cluster_outputs(ds, config, seed=0)
classes = sorted(set(assignments.values()))
print("\noutput classes found:", len(classes))

coverage = build_coverage(ds, config, seed=0)
print("coverage blocks:", len(coverage.all_blocks()))
some_input = 31
print(f"input {some_input} covers:",
      sorted(bl.as_str() for bl in coverage.cover[some_input]))
bl = sorted(coverage.cover[some_input])[0]
print(f"block {bl.as_str()} is covered by inputs:",
      sorted(i for i, blocks in coverage.cover.items() if bl in blocks))
