"""covmin benchmark: one caller hands a recorded corpus to covmin and waits
for the minimized selection.

    python3 perfbench/run.py --workload long-pages --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; covmin is imported from its `src`
directory. The workload's corpus is generated from --seed by the planted-
corpus generator in this directory, written to `.perfbench_work/` and loaded
through `covmin.load_dataset`; covmin then sees only that file. The pipeline
runs through `covmin.run_pipeline` in a closed loop (one client, one process)
for --seconds, and every result is checked against the planted structure.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of traced calls with --trace 1 (see README.md).
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import Corpus, CorpusSpec, generate  # noqa: E402
from speed import SpeedProbe  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    spec: CorpusSpec
    config: dict = field(default_factory=dict)


# No workload sets time_budget_ms: it would make the selected cost depend on
# wall time.
WORKLOADS = {
    # Long pages with shared boilerplate and recurring templates: the word
    # Levenshtein output matrix dominates.
    "long-pages": Workload(CorpusSpec(
        inputs=40, cycles=2, cycle_length=6, duplicates=2, dominated=2,
        pages_per_template=3, content_tokens=40, boilerplate_tokens=30,
        post_share=0.25,
    )),
    # Many short pages, two URL families per template (GET and POST with
    # typed params), bag distance: output hyper-parameter selection dominates.
    "many-pages": Workload(CorpusSpec(
        inputs=44, cycles=2, cycle_length=6, duplicates=2, dominated=2,
        blocks_per_necessary=3, families=2, post_share=0.5,
        pages_per_template=3, content_tokens=12, boilerplate_tokens=4,
    ), {"output_metric": "bag"}),
    # Overlap cycles plus duplicate and dominated copies: reduction removes
    # the copies and the genetic search over the cycles dominates.
    "deep-overlap": Workload(CorpusSpec(
        inputs=60, cycles=8, cycle_length=6, duplicates=4, dominated=4,
        pages_per_template=2, content_tokens=12, boilerplate_tokens=4,
        post_share=0.25,
    ), {"output_metric": "bag", "generations": 200}),
}


def dataset_path(root: Path, workload: str) -> Path:
    return root / WORK_DIR / f"{workload}.json"


def setup(workload: str, seed: int, path: Path):
    """Generate the corpus, write it and load it through covmin."""
    from covmin import load_dataset

    corpus = generate(WORKLOADS[workload].spec, seed)
    corpus.write(path)
    return corpus, load_dataset(path)


def setup_child(workload: str, seed: int, path: Path) -> int:
    """Set-up in a fresh interpreter, timed from before the package import
    and rescaled to the reference machine speed. numpy, a third-party
    dependency, is imported before the clock starts: its import is mostly
    loading shared libraries, which the speed probe does not rescale, and it
    varied by half between minutes on a shared VM."""
    import numpy  # noqa: F401

    with SpeedProbe() as timer:
        setup(workload, seed, path)
    print(json.dumps({"setup_s": timer.reference_s}))
    return 0


def measure_setup(root: Path, workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, in reference seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def result_bytes(result) -> bytes:
    """The result as `covmin minimize` writes it."""
    return (json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def detection_rate(selected, vulnerabilities) -> float:
    chosen = frozenset(selected)
    hits = sum(1 for _, groups in vulnerabilities if any(g <= chosen for g in groups))
    return hits / len(vulnerabilities)


class Checker:
    """Checks every pipeline result against the planted structure and the
    first result's bytes."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.reference: bytes | None = None
        self.first = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, result) -> None:
        self.attempted += 1
        problems = self.problems(result)
        if problems:
            self.failures.append("; ".join(problems))

    def raised(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"run_pipeline raised {exc!r}")

    def problems(self, result) -> list[str]:
        corpus = self.corpus
        out = []
        unknown = set(result.selected) - set(corpus.cover)
        if unknown:
            out.append(f"selected unknown inputs {sorted(unknown)}")
        covered = set().union(*(corpus.cover.get(i, ()) for i in result.selected))
        if len(covered) != corpus.blocks:
            out.append(f"selection misses {corpus.blocks - len(covered)} planted blocks")
        if result.block_count != corpus.blocks:
            out.append(f"{result.block_count} blocks, planted {corpus.blocks}")
        if result.total_cost < corpus.optimum:
            out.append(f"cost {result.total_cost} undercuts the planted optimum {corpus.optimum}")
        data = result_bytes(result)
        if self.reference is None:
            self.reference, self.first = data, result
        elif data != self.reference:
            out.append("result bytes differ from the first run")
        return out


def measure(corpus: Corpus, dataset, config, seed: int, seconds: float,
            traced: bool, trace_path: Path | None = None, label: str = "") -> dict:
    """Call the pipeline in a closed loop for `seconds` and check every
    result. The first call warms up and is not timed. Untraced, it reports
    the end-to-end metrics other than set-up time, with every call timed in
    reference seconds (see speed.py); traced, it alternates untraced and
    traced calls (at least one of each after the warm-up), times both in
    wall seconds and reports the per-layer metrics."""
    import covmin
    import tracer as tracing

    fallbacks = tracing.FallbackCounter()
    reduction_log = logging.getLogger("covmin.reduction")
    reduction_log.addHandler(fallbacks)
    tracer = tracing.Tracer()
    traced_pipeline = tracer.traced(covmin.run_pipeline, tracing.RUN_PIPELINE)
    checker = Checker(corpus)
    untraced_s: list[float] = []
    wall_s: list[float] = []
    per_call: list[dict] = []

    min_calls = 3 if traced else 2
    deadline = time.perf_counter() + seconds
    call = 0
    try:
        while call < min_calls or time.perf_counter() < deadline:
            trace_this = traced and call % 2 == 1
            fallbacks.reset()
            if trace_this:
                tracer.call_id = call
                tracer.install()
            timer = nullcontext() if traced else SpeedProbe()
            started = time.perf_counter()
            try:
                with timer:
                    result = (traced_pipeline if trace_this else covmin.run_pipeline)(
                        dataset, config, seed)
            except Exception as exc:  # a failed run is counted, not fatal
                checker.raised(exc)
            else:
                elapsed = time.perf_counter() - started
                checker.check(result)
                if trace_this:
                    per_call.append(tracing.call_metrics(tracer.spans_of_call(call), fallbacks))
                elif call > 0:
                    untraced_s.append(elapsed if traced else timer.reference_s)
                    wall_s.append(elapsed if traced else timer.wall_s)
            finally:
                tracer.uninstall()
            call += 1
    finally:
        reduction_log.removeHandler(fallbacks)

    for failure in checker.failures[:5]:
        print(f"check failed: {failure}", file=sys.stderr)
    report = {"correct": not checker.failures, "attempted": checker.attempted,
              "failed": len(checker.failures), "metrics": {}}
    if checker.first is None or not untraced_s or (traced and not per_call):
        report["correct"] = False
        return report

    minimize_s = statistics.median(untraced_s)
    print(f"{len(untraced_s)} timed calls, median wall time {statistics.median(wall_s):.3f} s",
          file=sys.stderr)
    if traced:
        layers = tracing.median_metrics(per_call)
        if "harness.run_pipeline_s" in layers:
            layers["trace.overhead_frac"] = layers["harness.run_pipeline_s"] / minimize_s - 1.0
        missing = sorted(set(tracing.LAYER_METRICS) - set(layers))
        if missing:
            print(f"missing layer metrics (entry point not called or not found: "
                  f"{tracer.missing}): {missing}", file=sys.stderr)
        if trace_path is not None:
            tracer.write(trace_path, {
                "schema": 1, "workload": label, "seed": seed, "untraced_s": untraced_s,
                "unwrapped": tracer.missing, "metrics": layers,
            })
        report["metrics"] = {name: {"value": value, "unit": tracing.LAYER_METRICS[name][0]}
                             for name, value in layers.items()}
    else:
        first = checker.first
        report["metrics"] = {
            "minimize_s": {"value": minimize_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "cost_ratio": {"value": first.total_cost / corpus.optimum, "unit": "ratio"},
            "vdr": {"value": detection_rate(first.selected, corpus.vulnerabilities),
                    "unit": "ratio"},
        }
    return report


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    path = dataset_path(root, workload)
    path.parent.mkdir(exist_ok=True)
    setup_s = measure_setup(root, workload, seed)
    corpus, dataset = setup(workload, seed, path)

    import covmin

    config = covmin.RunConfig(**WORKLOADS[workload].config)
    trace_path = root / WORK_DIR / f"trace-{workload}.json"
    report = measure(corpus, dataset, config, seed, seconds, traced, trace_path, workload)
    if not traced and report["metrics"]:
        report["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "covmin" / "__init__.py").is_file():
        print(f"error: no covmin sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_child:
        return setup_child(args.workload, args.seed, dataset_path(root, args.workload))
    report = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
