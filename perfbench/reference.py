"""Reference loop that measures how fast the host runs Python at the moment.

The benchmark's host lends its CPU to other tenants: the same code takes
up to half as long again at some times as at others, in spells lasting
minutes.
Timed figures are therefore scaled by the speed of this fixed loop,
sampled in the same process between the timed operations:

    scaled time = CPU time x REFERENCE_S / (median CPU time of the loop)

The loop touches no treksep code.  It searches a dict keyed by tuples and
sorts the result, the kind of work the library does: of the loops tried,
its speed tracked the three workloads' speed most closely.  It runs with
the garbage collector paused so that heap state left by the library cannot
slow it.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque
from time import process_time

# CPU seconds of one loop on the host the benchmark was defined on, at a
# typical moment; it only fixes the scale of the reported times.
REFERENCE_S = 0.00095


def _network() -> dict:
    """A three-level network keyed by (vertex, level, side), shaped like the
    library's flow network: each out-node reaches two vertices of its level
    and the next level of its own vertex."""
    net = {}
    for v in range(300):
        for level in range(3):
            net[(v, level, "in")] = [(v, level, "out")]
            net[(v, level, "out")] = ([((7 * v + k) % 300, level, "in") for k in (1, 5)]
                                      + ([(v, level + 1, "in")] if level < 2 else []))
    return net


_NETWORK = _network()


def _loop():
    start = (0, 0, "in")
    seen = {start}
    queue = deque([start])
    while queue:
        for node in _NETWORK[queue.popleft()]:
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return sorted(seen)


def sample(samples: list, repeats: int = 2) -> None:
    """Append the CPU time of `repeats` runs of the loop to `samples`."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = process_time()
            _loop()
            samples.append(process_time() - start)
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """Factor that turns CPU time measured alongside `samples` into scaled time."""
    return REFERENCE_S / statistics.median(samples)
