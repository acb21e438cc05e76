"""Check the peak memory of the two output distance matrices at scale.

    python tests/check_matrix_memory.py

Builds the distinct preprocessed documents of `long-pages` x5 and
`many-pages` x5 at seed 1, as `pairwise_matrix` does, and measures the
`tracemalloc` peak of one `lev_matrix` call on the first and one
`bag_matrix` call on the second, the result matrix included. Prints one
line per matrix and exits 1 when either peak passes its bound. The bounds are
the measured peaks (4.5 and 5.1 MiB, for results of 1.3 and 3.6 MiB) plus
more than 25% headroom; a match table as wide as all the documents, or three
matrix-sized temporaries, passes them (12.8 and 11.5 MiB).
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from covmin.blocks import preprocess_all  # noqa: E402
from covmin.distance import bag_matrix, lev_matrix  # noqa: E402

from _oracles import workload_corpus  # noqa: E402

BOUNDS_MIB = {"long-pages": (lev_matrix, 6.0), "many-pages": (bag_matrix, 7.0)}


def distinct_documents(name: str, scale: int) -> list:
    """The distinct output documents of a workload's corpus at seed 1."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset, config = workload_corpus(name, 1, tmp, scale)
    docs = preprocess_all(dataset, config)
    return list(dict.fromkeys(docs[k] for k in sorted(docs)))


def peak_mib(matrix_of, docs) -> float:
    tracemalloc.start()
    try:
        matrix_of(docs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    failed = False
    for name, (matrix_of, bound) in BOUNDS_MIB.items():
        docs = distinct_documents(name, 5)
        peak = peak_mib(matrix_of, docs)
        failed |= peak > bound
        print(f"{name} x5: {matrix_of.__name__} over {len(docs)} documents peaks at "
              f"{peak:.2f} MiB (bound {bound} MiB)")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
