"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the speed of execution itself swings by up to a
factor of two within seconds, and every operation of a run swings with it.
The kernel is fixed work shaped like the package's own. Its Python part is a
depth-first walk of a random binary tree held in ``array('i')`` columns, with
a ``bytearray`` of visited flags and a dict of inorder ranks, then a short
integer loop. Its numpy part stacks slices and takes minima over them, as the
``minimax_price`` dynamic program does, then streams through large arrays.

``run.py`` times the kernel right before every timed call and scales the
call's time by the kernel's nominal time over its measured time, which gives
seconds at the speed the host had when the nominal times were measured. A
host slowdown hits numpy's vectorised loops less than interpreted Python,
and a numpy-bound call is long enough for the speed to change while it runs;
so such a call is scaled by the whole kernel, timed before and after it. The
kernel never changes with the package, so a slower package still reads
slower.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

import numpy as np

NODES = 1 << 16
SPIN = 60_000
# Median kernel times on the reference host (2-vCPU Intel Xeon virtual
# machine, Python 3.11.7, numpy 2.4.6) at a quiet minute: the Python part
# alone, and the Python and numpy parts together.
NOMINAL_S = 0.03
NOMINAL_NUMPY_S = 0.09


class ReferenceKernel:
    def __init__(self):
        rng = random.Random(1)
        left = array("i", [-1]) * NODES
        right = array("i", [-1]) * NODES
        open_slots = [0]
        for v in range(1, NODES):
            u = open_slots[rng.randrange(len(open_slots))]
            if left[u] < 0:
                left[u] = v
            else:
                right[u] = v
                open_slots.remove(u)
            open_slots.append(v)
            if len(open_slots) > 64:
                open_slots.pop(rng.randrange(len(open_slots)))
        self.left, self.right = left, right
        self.base = np.arange(4096, dtype=np.int64)
        self.samples = []  # times of the Python part

    def _python(self):
        left, right = self.left, self.right
        seen = bytearray(NODES)
        rank = {}
        stack = [0]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = 1
            rank[v] = len(rank)
            if right[v] >= 0:
                stack.append(right[v])
            if left[v] >= 0:
                stack.append(left[v])
        acc = 0
        for i in range(SPIN):
            acc = (acc * 31 + i) & 0xFFFF
        return len(rank), acc

    def _numpy(self):
        base = self.base
        acc = 0
        for length in range(256, 264):
            rows = np.stack([base[d:d + 2048] for d in range(length)])
            acc += int((rows + rows[::-1]).min(axis=0).sum())
        a = np.arange(1 << 20, dtype=np.int64)
        out = np.empty_like(a)
        for _ in range(12):
            np.add(a, a[::-1], out=out)
            np.minimum(out, a, out=out)
        return acc

    def _time_python(self):
        start = time.perf_counter()
        self._python()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def _time_whole(self):
        python = self._time_python()
        start = time.perf_counter()
        self._numpy()
        return python + time.perf_counter() - start

    def timed(self, call, numpy=False):
        """Run ``call``; return its result, its time, and its time in
        seconds at the reference speed."""
        before = self._time_whole() if numpy else self._time_python()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        if numpy:
            kernel = (before + self._time_whole()) / 2
            return result, elapsed, elapsed * NOMINAL_NUMPY_S / kernel
        return result, elapsed, elapsed * NOMINAL_S / before

    def median_scale(self):
        """The factor for the run as a whole, for spans of many calls."""
        return NOMINAL_S / statistics.median(self.samples)
