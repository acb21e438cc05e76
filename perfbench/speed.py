"""Machine-speed probe that rescales timings to a fixed reference speed.

On a small shared VM the same pure-Python loop runs up to twice as fast in
one second as in the next, and the slow phases can last for minutes, so raw
wall times of identical work spread by 15 to 40% between runs. `SpeedProbe`
samples the machine's speed while the timed code runs: an interval timer
interrupts it every `INTERVAL_S` and runs a fixed probe, a small sample of
the kind of work covmin does (a word edit-distance table and multiset
differences over short token lists). The time between two probes is rescaled
by the later probe's speed relative to `REFERENCE_PROBE_S`:

    reference_s = sum(segment_s * REFERENCE_PROBE_S / probe_s)

so `reference_s` is the time the timed code would take on a machine on which
the probe takes exactly `REFERENCE_PROBE_S`. The probe's own time is excluded
from both `wall_s` and `reference_s`. The probe is benchmark code with fixed
inputs and never changes with the program, so a faster program still reads
as faster.

The timer uses SIGALRM and must be used from the main thread.
"""

from __future__ import annotations

import random
import signal
import time
from collections import Counter

INTERVAL_S = 0.02
REFERENCE_PROBE_S = 1e-3
_EDIT_ROUNDS = 6
_BAG_ROUNDS = 8

_rng = random.Random(0)
_SHORT = tuple([_rng.randrange(30) for _ in range(14)] for _ in range(2))
_WORDS = tuple([f"w{_rng.randrange(40)}" for _ in range(60)] for _ in range(2))
del _rng


def probe() -> int:
    """Fixed work: edit-distance tables over two 14-token sequences, then
    multiset differences over two 60-word lists."""
    a, b = _SHORT
    distance = 0
    for _ in range(_EDIT_ROUNDS):
        prev = list(range(len(b) + 1))
        for i, xa in enumerate(a, start=1):
            cur = [i]
            for j, xb in enumerate(b, start=1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (xa != xb)))
            prev = cur
        distance += prev[-1]
    u, v = _WORDS
    for _ in range(_BAG_ROUNDS):
        ca, cb = Counter(u), Counter(v)
        distance += sum((ca - cb).values()) + len(sorted(set(u) | set(v)))
    return distance


class SpeedProbe:
    """Context manager: time a block, rescaled to the reference speed."""

    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.probes = 0

    def _sample(self) -> None:
        started = time.perf_counter()
        probe()
        ended = time.perf_counter()
        segment = started - self._segment_start
        self.wall_s += segment
        self.reference_s += segment * REFERENCE_PROBE_S / (ended - started)
        self.probes += 1
        self._segment_start = ended

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> SpeedProbe:
        self.wall_s = self.reference_s = 0.0
        self.probes = 0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._segment_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # The last segment is rescaled by a probe taken right after it.
        self._sample()
