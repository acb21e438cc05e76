"""Fast self-test of the benchmark code, about a second.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks the generator's brute-force
cycle optimum and planted invariants, then runs the benchmark's measurement
loop, checks and tracer on the bundled `data/synthetic.json` (40 inputs,
seed 7), whose planted optimum is 151: the cost ratio must be 1.0, no run may
fail, and exactly the per-layer metrics of entry points the dataset never
reaches must be missing. It also checks that the machine-speed probe fires
while a timed block runs and restores the signal handler it replaced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from corpus import Corpus, CorpusSpec, cycle_optimum, generate  # noqa: E402

BUNDLED = Path("data") / "synthetic.json"


def check_cycle_optimum() -> None:
    # The two four-cycles of the bundled dataset: two optimal halves, then one.
    assert cycle_optimum([5, 5, 5, 5])[:2] == (10, 2)
    assert cycle_optimum([4, 6, 4, 6]) == (8, 1, 0b0101)
    assert cycle_optimum([20, 21, 22]) == (41, 1, 0b011)


def check_generator() -> None:
    spec = CorpusSpec(inputs=20, cycles=2, cycle_length=4, duplicates=2, dominated=2,
                      families=2, post_share=0.5, boilerplate_tokens=3)
    a, b = generate(spec, 3), generate(spec, 3)
    assert json.dumps(a.payload) == json.dumps(b.payload), "same seed, different corpus"
    assert json.dumps(a.payload) != json.dumps(generate(spec, 4).payload)
    assert len(a.payload["inputs"]) == 20 and len(a.cover) == 20
    assert set().union(*a.cover.values()) == set(range(a.blocks))
    assert a.blocks == spec.necessary * spec.blocks_per_necessary + 8
    methods = {act["method"] for rec in a.payload["inputs"] for act in rec["actions"]}
    assert methods == {"GET", "POST"}


def bundled_corpus() -> Corpus:
    """Planted structure of the bundled dataset, read from its URLs: every
    URL path is one planted block."""
    from covmin.synthetic import planted_optimum_cost

    payload = json.loads(BUNDLED.read_text(encoding="utf-8"))
    cover = {rec["id"]: frozenset(act["url"] for act in rec["actions"])
             for rec in payload["inputs"]}
    vulnerabilities = tuple(
        (v["id"], tuple(frozenset(g) for g in v["detecting_groups"]))
        for v in payload["vulnerabilities"]
    )
    return Corpus(payload=payload, cover=cover, blocks=len(set().union(*cover.values())),
                  optimum=planted_optimum_cost(), vulnerabilities=vulnerabilities)


def check_bundled() -> None:
    import covmin

    corpus = bundled_corpus()
    assert corpus.optimum == 151 and corpus.blocks == 38
    dataset = covmin.load_dataset(BUNDLED)
    config = covmin.RunConfig()

    plain = run.measure(corpus, dataset, config, 7, 0, traced=False)
    assert plain["correct"] and plain["attempted"] == 2 and plain["failed"] == 0, plain
    assert plain["metrics"]["cost_ratio"]["value"] == 1.0, plain

    layers = run.measure(corpus, dataset, config, 7, 0, traced=True)
    assert layers["correct"] and layers["attempted"] == 3, layers
    values = {k: v["value"] for k, v in layers["metrics"].items()}
    # Every action part of the bundled dataset is one repeated GET, so action
    # hyper-parameter selection never runs and its metrics are missing.
    missing = set(tracer.LAYER_METRICS) - set(values)
    assert missing == {"clustering.action_select_s", "clustering.action_select_calls",
                       "clustering.action_grid_points"}, missing
    assert values["blocks.blocks"] == corpus.blocks
    assert values["dataset.pages"] == sum(len(r["outputs"]) for r in corpus.payload["inputs"])
    assert values["reduction.necessary"] == 30 and values["reduction.components"] == 2
    assert values["search.mocco_calls"] == 2
    assert 0 < values["distance.output_matrix_s"] < values["harness.run_pipeline_s"]

    # Entry points must be restored after a traced call.
    assert not hasattr(covmin.blocks.pairwise_matrix, "__wrapped__")
    assert not hasattr(covmin.search.ComponentProblem.exposure, "__wrapped__")


def check_speed_probe() -> None:
    """The probe fires while the timed block runs, excludes its own time and
    restores the previous SIGALRM handler."""
    import signal
    import time

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with SpeedProbe() as timer:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - started
    assert timer.probes >= 3, timer.probes
    assert 0.05 < timer.wall_s < elapsed and timer.reference_s > 0
    assert signal.getsignal(signal.SIGALRM) is before


def check_missing_entry_point() -> None:
    """A span that never occurred yields no metric rather than 0 s."""
    fallbacks = tracer.FallbackCounter()
    spans = [("harness.run_pipeline", None, 1.0, 1.0, {})]
    metrics = tracer.call_metrics(spans, fallbacks)
    assert "search.mocco_s" not in metrics and "harness.run_pipeline_s" in metrics
    assert metrics["reduction.greedy_fallbacks"] == 0


def main() -> int:
    if not BUNDLED.is_file():
        print(f"error: {BUNDLED} not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    check_cycle_optimum()
    check_generator()
    check_missing_entry_point()
    check_speed_probe()
    check_bundled()
    print("perfbench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
