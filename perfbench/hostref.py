"""A fixed reference workload that measures how fast the host runs Python now.

On a shared host the same Python work runs up to twice as fast or slow from
one minute to the next, which no run length averages out.  The benchmark
therefore times this reference just before and just after every simulated
window and reports the window's time scaled by ``NOMINAL_S / reference``:
the time the window would have taken on a host where the reference takes
``NOMINAL_S``.

The reference does not touch the program under test, so a change to the
program moves the scaled figures exactly as it moves the wall-clock ones.  It
mimics what the simulator spends its time on (a heap of timed events whose
handlers read and update slotted objects, their neighbour lists and sets,
spread over a working set of some megabytes).  Over four minutes of
``city_sharded`` windows on the host the benchmark was tuned on, a window's
wall time spread by 29% (interquartile range over median) and its time over
this reference by 12%.  In a stretch where the wall time of a window rose by
65%, its time over a smaller version of this reference stayed within 3%, and
over a plain dict-update loop it still rose by 14%.
"""

from __future__ import annotations

import heapq
import random
import time

__all__ = ["NOMINAL_S", "measure"]

#: the reference's time on the 2-core host the benchmark was tuned on, in a
#: quiet stretch (rounded); the unit of every scaled figure
NOMINAL_S = 0.03

_NODES = 20000
_DEGREE = 6
_EVENTS = 8000


class _Node:
    __slots__ = ("id", "nbrs", "val", "seen")

    def __init__(self, ident: int) -> None:
        self.id = ident
        self.nbrs: list = []
        self.val = 0
        self.seen: set = set()

    def step(self, now: int) -> int:
        acc = self.val
        for other in self.nbrs:
            acc += other.val & 7
            other.seen.add(self.id)
        self.val = (acc * 31 + now) & 0xFFFF
        return self.val


def _graph() -> list:
    rng = random.Random(1)
    nodes = [_Node(i) for i in range(_NODES)]
    for node in nodes:
        node.nbrs = rng.sample(nodes, _DEGREE)
    return nodes


_GRAPH = _graph()


def _run() -> int:
    nodes = _GRAPH
    for node in nodes:
        node.val = 0
        node.seen.clear()
    heap = [(0, i) for i in range(0, _NODES, 7)]
    heapq.heapify(heap)
    checksum = 0
    for now in range(_EVENTS):
        due, index = heapq.heappop(heap)
        value = nodes[index].step(now)
        checksum ^= value
        heapq.heappush(heap, (due + 1 + (value & 3), (index * 13 + value * 101) % _NODES))
    return checksum


_EXPECTED = _run()


def measure() -> float:
    """Wall seconds of one run of the reference (checked against its result)."""
    t0 = time.perf_counter()
    checksum = _run()
    elapsed = time.perf_counter() - t0
    if checksum != _EXPECTED:
        raise RuntimeError("the host reference workload gave another result")
    return elapsed
