import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each script runs in a fresh interpreter: the test process has imported the
# whole package.
BARE_IMPORT = """
import sys

import covmin

# A bare import binds no submodule; each is imported by name.
assert not [m for m in sys.modules if m.startswith("covmin.")], sorted(sys.modules)
for name in ("blocks", "clustering", "config", "dataset", "harness", "reduction", "search"):
    assert not hasattr(covmin, name), name

import covmin.blocks

assert covmin.blocks.pairwise_matrix
"""

LAZY_SURFACE = """
import sys

from covmin import load_dataset

dataset = load_dataset(sys.argv[1])
assert len(dataset.inputs) == 40
loaded = {"numpy", "covmin.harness", "covmin.search", "covmin.clustering",
          "covmin.stemming"} & set(sys.modules)
assert not loaded, f"loading a dataset imported {sorted(loaded)}"

import covmin

assert set(covmin.__all__) <= set(dir(covmin)), sorted(set(covmin.__all__) - set(dir(covmin)))

import covmin.harness

assert covmin.harness is sys.modules["covmin.harness"]
assert covmin.run_pipeline is covmin.harness.run_pipeline
for name in covmin.__all__:
    value = getattr(covmin, name)
    if name != "__version__":
        assert value is getattr(sys.modules[value.__module__], name), name

star = {}
exec("from covmin import *", star)
assert set(covmin.__all__) <= set(star), sorted(set(covmin.__all__) - set(star))
try:
    covmin.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("covmin.no_such_name resolved")
"""


# `covmin ingest` only loads: with or without a config, it runs without numpy,
# the pipeline or the stemmer, and its output is the golden summary.
INGEST = """
import sys

from covmin.cli import main

dataset, config, out = sys.argv[1:]
assert main(["ingest", "--dataset", dataset, "--out", out]) == 0
assert main(["ingest", "--dataset", dataset, "--config", config, "--out", out]) == 0
pipeline = {"numpy", "covmin.blocks", "covmin.clustering", "covmin.distance",
            "covmin.reduction", "covmin.search", "covmin.harness", "covmin.baselines",
            "covmin.stemming"}
loaded = pipeline & set(sys.modules)
assert not loaded, f"covmin ingest imported {sorted(loaded)}"
"""


def _run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_bare_import_binds_no_submodule():
    _run_fresh(BARE_IMPORT)


def test_top_level_names_load_their_submodule_on_first_use():
    _run_fresh(LAZY_SURFACE, ROOT / "data" / "synthetic.json")


def test_ingest_imports_neither_numpy_nor_the_pipeline(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"generations": 10, "eps_range": [1.0, 4.0]}')
    out = tmp_path / "summary.json"
    _run_fresh(INGEST, ROOT / "data" / "synthetic.json", config, out)
    assert out.read_bytes() == (ROOT / "tests" / "data" / "ingest_synthetic.json").read_bytes()
