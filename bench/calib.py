"""Calibration loop: a fixed piece of pure-Python work that the benchmark
times next to the stage chain, to measure the machine's current speed.

On a machine shared with other work, the speed of the CPU the benchmark
gets drifts over minutes, by up to a factor of two, and everything that
runs on it (stage processes, set-up, this loop) slows down together.
Averaging over a longer run does not remove such a drift. Dividing the
measured times by this loop's time, measured alongside them, does.

The loop does the kinds of work the fintag stages do (JSON lines in and
out, a number regex over prose, splitting, sorting, counting) on inputs
fixed here. It uses nothing from fintag, so a change to the program
cannot move it.
"""

from __future__ import annotations

import json
import random
import re
import statistics
from time import perf_counter

# Times are converted to "reference seconds": the time the same work
# would take on a machine where `run()` takes REFERENCE_S. That is about
# its time on the machine of the baseline in README.md at its faster speed.
REFERENCE_S = 0.05

# Samples on each side of a piece of work that its speed is taken from.
NEIGHBOURS = 5

_NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?")
_PASSES = 4


def _rows() -> list:
    rng = random.Random(0)
    words = ("revenue", "net", "income", "rose", "fell", "fiscal", "quarter", "margin",
             "cash", "debt", "of", "the", "to", "in")
    rows = []
    for i in range(400):
        text = " ".join(rng.choice(words) if rng.random() < 0.8 else f"{rng.randint(1, 99999):,}"
                        for _ in range(60))
        rows.append({"id": f"r{i}", "text": text, "tags": [rng.randint(0, 50) for _ in range(8)]})
    return rows


_ROWS = _rows()


def run() -> float:
    """Seconds one pass of the fixed work takes now."""
    start = perf_counter()
    for _ in range(_PASSES):
        blob = "\n".join(json.dumps(row) for row in _ROWS)
        counts: dict = {}
        for line in blob.split("\n"):
            row = json.loads(line)
            for match in _NUMBER.finditer(row["text"]):
                counts[match.group()] = counts.get(match.group(), 0) + 1
            row["words"] = sorted(set(row["text"].split()))
    return perf_counter() - start


class Scale:
    """Converts measured seconds into reference seconds. A sample of
    `run()` is taken at the start and right after each timed piece of
    work (`mark`). The work is scaled by REFERENCE_S over the mean of the
    NEIGHBOURS samples on each side of it. The machine's speed switches
    between modes every few seconds, so samples next to the work track it
    far better than a mean over the run; a few on each side, rather than
    one, average out the jitter of single samples."""

    def __init__(self) -> None:
        self.samples = [run()]

    def mark(self) -> int:
        """Samples right after a piece of work; returns the mark that
        `reference_s` takes for that work."""
        self.samples.append(run())
        return len(self.samples) - 1

    def reference_s(self, seconds: float, mark: int) -> float:
        near = self.samples[max(0, mark - NEIGHBOURS):mark + NEIGHBOURS]
        return seconds * REFERENCE_S / statistics.mean(near)
