"""Time one pipeline run on a benchmark workload scaled past its size, or
bound the memory of the output distance matrices and the coverage stage at
scale.

    python tests/check_scale.py deep-overlap 20
    python tests/check_scale.py --memory

Builds `_oracles.workload_corpus(workload, 1, dir, scale)` (the workload's
inputs, cycles, duplicates and dominated copies times `scale`) and times one
`run_pipeline` call on it at seed 1, with timing wrappers around the entry
points where their callers look them up. Prints one JSON line:
- `pages`: page occurrences; `distinct`: distinct raw pages;
- `total_s`: the `run_pipeline` call;
- `preprocess_s`, `matrix_s`, `select_s`, `silhouette_s`, `reduce_s`,
  `search_s`, `gain_s`, `admit_s`: the summed wall seconds of every
  `blocks.preprocess_all`, `blocks.pairwise_matrix`,
  `blocks.select_hyperparams`, `clustering.silhouette`,
  `harness.reduce_problem`, `harness.solve`, `search.valid_orders_gain`
  and `search.update_populations` call (`silhouette_s` is part of
  `select_s`; `gain_s`, the search's removal-memo misses, and `admit_s`,
  its admissions of children into the populations, are parts of
  `search_s`). A stage whose entry point is never called has no key;
- `gc_s`: the garbage collector's wall seconds during the `run_pipeline`
  call, timed through `gc.callbacks`. A collection is charged to the stage
  it lands in as well, so a stage that moved by about `gc_s` between two
  runs may only have caught a collection;
- `peak_rss_mib`: the process's resident-set high-water mark, corpus
  generation included.

Single runs on a shared 2-core VM varied by 1.5x at one commit, so compare
medians of alternating runs.

`--memory` builds corpora the same way and measures the `tracemalloc` peak
of four calls, the returned value included and corpus generation and
preprocessing excluded. It prints one JSON line per check and exits 1 when
any peak passes its bound:
- `lev_matrix` on the distinct preprocessed documents of `long-pages` x5
  and `bag_matrix` on those of `many-pages` x5, as `pairwise_matrix` passes
  them. The bounds are the measured peaks (4.5 and 5.1 MiB, for results of
  1.3 and 3.6 MiB) plus more than 25% headroom; a match table as wide as
  all the documents, or three matrix-sized temporaries, fails them (12.8
  and 11.5 MiB).
- `blocks.build_coverage` on `many-pages` x20 and `long-pages` x20. The
  bounds are the measured peaks (178.0 and 61.4 MiB) plus about 11%
  headroom. Keeping the distinct-document matrix alive beside the
  occurrence matrix, as `cluster_outputs` once did, peaks at 224.9 and
  75.8 MiB and fails them, and so does one more occurrence-sized float64
  matrix (122 and 37 MiB at x20).
The four checks take about 10 s.
"""

import gc
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from covmin import blocks, clustering, distance, harness, search  # noqa: E402

from _oracles import workload_corpus  # noqa: E402

# Stage -> the module and name its entry point is looked up by.
STAGES = {
    "preprocess_s": (blocks, "preprocess_all"),
    "matrix_s": (blocks, "pairwise_matrix"),
    "select_s": (blocks, "select_hyperparams"),
    "silhouette_s": (clustering, "silhouette"),
    "reduce_s": (harness, "reduce_problem"),
    "search_s": (harness, "solve"),
    "gain_s": (search, "valid_orders_gain"),
    "admit_s": (search, "update_populations"),
}

# (workload, scale, the call measured, the bound in MiB on its peak).
MEMORY_BOUNDS_MIB = (
    ("long-pages", 5, "lev_matrix", 6.0),
    ("many-pages", 5, "bag_matrix", 7.0),
    ("many-pages", 20, "build_coverage", 198.0),
    ("long-pages", 20, "build_coverage", 68.0),
)


def _timed(totals: dict, stage: str, function):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[stage] = totals.get(stage, 0.0) + time.perf_counter() - started
    return wrapper


def _collector_clock(totals: dict):
    """A `gc.callbacks` entry adding each collection's wall seconds to
    `totals["gc_s"]`."""
    totals["gc_s"] = 0.0
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            totals["gc_s"] += time.perf_counter() - started.pop()
    return callback


def measure(workload: str, scale: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        dataset, config = workload_corpus(workload, 1, tmp, scale)
    pages = [out for rec in dataset.inputs for out in rec.outputs]
    totals: dict = {}
    originals = {stage: getattr(module, name) for stage, (module, name) in STAGES.items()}
    clock = _collector_clock(totals)
    try:
        for stage, (module, name) in STAGES.items():
            setattr(module, name, _timed(totals, stage, originals[stage]))
        gc.callbacks.append(clock)
        started = time.perf_counter()
        harness.run_pipeline(dataset, config, 1)
        total_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(clock)
        for stage, (module, name) in STAGES.items():
            setattr(module, name, originals[stage])
    return {
        "workload": workload, "scale": scale, "pages": len(pages),
        "distinct": len(set(pages)), "total_s": total_s, **totals,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def memory_call(workload: str, scale: int, call: str) -> tuple:
    """The function that `call` names and its arguments on the workload's
    corpus at seed 1: `build_coverage` on the dataset, or an output matrix on
    its distinct documents. Only these outlive this call: a corpus kept
    alive beside a matrix call raised the `bag_matrix` peak by 0.1 MiB."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset, config = workload_corpus(workload, 1, tmp, scale)
    if call == "build_coverage":
        return blocks.build_coverage, (dataset, config, 1)
    docs = blocks.preprocess_all(dataset, config)
    return getattr(distance, call), (list(dict.fromkeys(docs[k] for k in sorted(docs))),)


def memory_peak_mib(workload: str, scale: int, call: str) -> float:
    """The `tracemalloc` peak of one `call` (see `memory_call`), the returned
    value included."""
    function, args = memory_call(workload, scale, call)
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def check_memory() -> int:
    failed = False
    for workload, scale, call, bound in MEMORY_BOUNDS_MIB:
        peak = memory_peak_mib(workload, scale, call)
        failed |= peak > bound
        print(json.dumps({
            "workload": workload, "scale": scale, "call": call,
            "peak_mib": round(peak, 2), "bound_mib": bound,
        }))
    return int(failed)


if __name__ == "__main__":
    if sys.argv[1:] == ["--memory"]:
        sys.exit(check_memory())
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} WORKLOAD SCALE | --memory")
    print(json.dumps(measure(sys.argv[1], int(sys.argv[2]))))
