"""Command line front end.

Subcommands: ingest, cluster, reduce, minimize, bench, oracle.
Exit codes: 0 on success, 2 on validation errors (including a file that
cannot be read or written and a component too large for the exact solver).

Each command imports the pipeline modules it runs, so `covmin ingest`, which
only loads, imports neither numpy nor the pipeline.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import TYPE_CHECKING

from .config import RunConfig
from .dataset import Dataset, ValidationError, load_dataset, read_json

if TYPE_CHECKING:
    from .reduction import CoverageMap, ReductionResult

EXIT_OK = 0
EXIT_VALIDATION = 2


def _load(args) -> tuple[Dataset, RunConfig]:
    dataset = load_dataset(args.dataset)
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return dataset, config


def _write_json(obj, path) -> None:
    if path is None or path == "-":
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_ingest(args) -> int:
    dataset, _ = _load(args)
    costs = dataset.costs()
    summary = {
        "inputs": len(dataset.inputs),
        "actions": sum(len(rec) for rec in dataset.inputs),
        "total_cost": sum(costs.values()),
        "vulnerabilities": len(dataset.vulnerabilities),
    }
    _write_json(summary, args.out)
    return EXIT_OK


def coverage_to_dict(coverage: CoverageMap) -> dict:
    return {
        "blocks": [
            {
                "id": bl.as_str(),
                "output_class": bl.output_class,
                "method": bl.method,
                "subclass_index": bl.subclass_index,
            }
            for bl in sorted(coverage.all_blocks())
        ],
        "cover": {
            str(i): sorted(bl.as_str() for bl in blocks)
            for i, blocks in sorted(coverage.cover.items())
        },
    }


def coverage_from_dict(obj: dict, path) -> CoverageMap:
    """Inverse of `coverage_to_dict`; a malformed file at `path`, or one that
    lists an input id twice (as "1" and " 01", say), is a ValidationError."""
    from .blocks import BlockId
    from .reduction import CoverageMap

    try:
        entries = [
            (int(i), frozenset(BlockId.from_str(s) for s in blocks))
            for i, blocks in obj["cover"].items()
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed coverage file {path}: {exc!r}") from exc
    cover = {}
    for i, blocks in entries:
        if i in cover:
            raise ValidationError(f"coverage file {path} lists input id {i} twice")
        cover[i] = blocks
    return CoverageMap(cover)


def cmd_cluster(args) -> int:
    from .blocks import build_coverage

    dataset, config = _load(args)
    coverage = build_coverage(dataset, config, args.seed)
    _write_json(coverage_to_dict(coverage), args.out)
    return EXIT_OK


def reduction_to_dict(reduction: ReductionResult) -> dict:
    return {
        "necessary": sorted(reduction.necessary),
        "components": [
            {
                "inputs": sorted(comp.inputs),
                "objectives": sorted(bl.as_str() for bl in comp.all_blocks()),
            }
            for comp in reduction.components
        ],
        "iterations": reduction.iterations,
    }


def cmd_reduce(args) -> int:
    from .blocks import build_coverage
    from .reduction import reduce_problem

    dataset, config = _load(args)
    costs = dataset.costs()
    if args.coverage:
        coverage = coverage_from_dict(read_json(args.coverage, "coverage"), args.coverage)
        missing = sorted(set(costs) - set(coverage.cover))
        unknown = sorted(set(coverage.cover) - set(costs))
        if missing or unknown:
            raise ValidationError(
                f"coverage file {args.coverage} does not match the dataset: "
                f"missing input ids {missing}, unknown input ids {unknown}")
    else:
        coverage = build_coverage(dataset, config, args.seed)
    reduction = reduce_problem(coverage.cover, costs)
    _write_json(reduction_to_dict(reduction), args.out)
    return EXIT_OK


def cmd_minimize(args) -> int:
    from . import harness

    dataset, config = _load(args)
    result = harness.run_pipeline(dataset, config, args.seed)
    _write_json(result.to_dict(), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import harness

    dataset, config = _load(args)
    algorithms = ([a for entry in args.algo for a in entry.split(",") if a]
                  if args.algo else harness.DEFAULT_ALGORITHMS)
    report = harness.bench(
        dataset, config,
        algorithms=algorithms,
        repetitions=args.reps,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.out and args.out.endswith(".csv"):
        harness.write_bench_csv(report, args.out)
    else:
        _write_json(report, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import harness
    from .blocks import build_coverage
    from .reduction import reduce_problem

    dataset, config = _load(args)
    coverage = build_coverage(dataset, config, args.seed)
    costs = dataset.costs()
    reduction = reduce_problem(coverage.cover, costs)
    solution = harness.solve(reduction, costs, "exhaustive", config, args.seed)
    _write_json({
        "selected": sorted(solution.selected),
        "total_cost": solution.total_cost,
        "necessary": sorted(reduction.necessary),
    }, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmin",
        description="Coverage-preserving minimization of action-sequence test suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.add_argument("--dataset", required=True, help="dataset JSON file")
        p.add_argument("--config", help="run configuration JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(run=run)

    common(sub.add_parser("ingest", help="validate a dataset and print a summary"), cmd_ingest)
    common(sub.add_parser("cluster", help="build the coverage map"), cmd_cluster)
    p_reduce = sub.add_parser("reduce", help="reduce the minimization problem")
    common(p_reduce, cmd_reduce)
    p_reduce.add_argument("--coverage", help="precomputed coverage JSON file")
    common(sub.add_parser("minimize", help="run the full minimization pipeline"), cmd_minimize)
    p_bench = sub.add_parser("bench", help="compare algorithms over repetitions")
    common(p_bench, cmd_bench)
    p_bench.add_argument("--algo", action="append",
                         help="algorithm name, repeatable or comma separated")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--jobs", type=int, default=1)
    common(sub.add_parser("oracle", help="exact optimum via branch and bound"), cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.run(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
