"""Host-speed calibration for timings on a shared machine.

On a shared host the same work can run twice as slowly for seconds at a
time while other tenants are busy, which swamps any change in the
program. Between blocks of operations the benchmark times fixed
reference routines and scales each operation's wall time by
(nominal reference time) / (reference time measured around it). A slow
host then cancels out; a slow program does not, because the reference
routines never call it.

Contention slows interpreter-bound code, numpy and system calls by
different amounts, so each workload names the routines that match its
own work: "python" (dict and string operations, like the text layers and
most set-up), "numpy" (an argsort, like scoring and top-k selection) and
"io" (reading a small file, like loading the rule files).
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.1        # operation time between two calibrations

_ARRAY = np.random.default_rng(0).random(50_000)
_TEXT = "alpha beta gamma delta " * 4


def _python_routine() -> None:
    counts: dict[str, int] = {}
    for i in range(3000):
        key = _TEXT[i % 50:i % 50 + 5]
        counts[key] = counts.get(key, 0) + 1


def _numpy_routine() -> None:
    np.argsort(_ARRAY)


def _io_routine() -> None:
    for _ in range(20):
        with open(__file__, "rb") as fp:
            fp.read()


# routine and its time on an idle 2-vCPU Intel Xeon VM; scaled times read
# as wall times on that machine at that speed
ROUTINES = {
    "python": (_python_routine, 0.55e-3),
    "numpy": (_numpy_routine, 0.85e-3),
    "io": (_io_routine, 0.2e-3),
}


def nominal(kinds: tuple[str, ...]) -> float:
    return sum(ROUTINES[k][1] for k in kinds)


def reference_time(kinds: tuple[str, ...], repeats: int = 2) -> float:
    """Sum over `kinds` of the best of `repeats` timings, in seconds."""
    total = 0.0
    for kind in kinds:
        routine = ROUTINES[kind][0]
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            routine()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def factor(kinds: tuple[str, ...], ref_before: float, ref_after: float) -> float:
    """Scale for work done between two reference timings: the nominal
    time over their mean."""
    return 2 * nominal(kinds) / (ref_before + ref_after)


def scale_factors(kinds: tuple[str, ...], marks: list[tuple[int, float]]) -> list[float]:
    """Per-operation factors from calibration marks (operation index,
    reference time), the first at index 0 and the last at the number of
    operations."""
    out: list[float] = []
    for (a, ref_a), (b, ref_b) in zip(marks, marks[1:]):
        out.extend([factor(kinds, ref_a, ref_b)] * (b - a))
    return out
