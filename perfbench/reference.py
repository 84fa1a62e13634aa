"""The host-speed reference: a fixed chunk of work timed between points.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2x within minutes, in spells longer than a repetition.  So a timed
benchmark process also times this chunk just before each simulated
point, on the same CPU and in the same process as the workload.  The
chunk never changes with the program under test, so its time measures
how fast the host ran at that moment.  ``run.py`` scales each point's
latency by it into *reference seconds*: seconds at the host speed at
which one chunk takes :data:`CHUNK_NS`.

The chunk allocates nothing and works on a 64-entry list, so the state
the program leaves behind (heap, garbage collector, caches) barely
changes its time.
"""

from __future__ import annotations

import time

#: Nominal time of one chunk, about its median on the 2-vCPU Intel Xeon
#: virtual machine the benchmark was defined on.
CHUNK_NS = 800_000


def chunk() -> int:
    """One fixed unit of work: small-integer arithmetic and indexing."""
    table = [0] * 64
    x = 1
    for _ in range(8_000):
        x = (x * 5 + 3) & 63
        table[x] = (table[x] + x) & 255
    return x


def timed_chunk() -> int:
    """Run one chunk; return how long it took (ns)."""
    start = time.perf_counter_ns()
    chunk()
    return time.perf_counter_ns() - start
