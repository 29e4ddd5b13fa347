"""Host-speed reference for the benchmark's time metrics.

The speed of a shared VM drifts with its neighbours' load: on a 2-vCPU
guest the same unit of work took up to 1.8x as long from one minute to
the next, and whole 25-second runs were 20-60% slower than others.  CPU
time of the benchmark thread does not remove that, because the
neighbours slow the core itself (shared caches, frequency), not only
take it away.

So the benchmark times a fixed reference kernel between units of work.
The kernel calls no code of this repository: a mix of pure-Python
dictionary and list work, ``hashlib.sha256`` over small buffers and small
numpy integer arrays, the same kinds of work the workloads do.  Busy time
measured while the kernel took ``k`` seconds (the median probe of the
run) is reported as ``busy * (REFERENCE_KERNEL_S / k) ** SENSITIVITY``:
about the time it would have taken on a host running the kernel in
``REFERENCE_KERNEL_S``.  A change to the repository's code moves the
workload's time and leaves the kernel's alone, so it shows in full; a
slow period of the host moves both, and largely cancels.  The report
line carries the unscaled CPU-time figures too.
"""

from __future__ import annotations

import hashlib
import statistics
from time import thread_time
from typing import List

import numpy as np

#: The kernel's CPU time on an unloaded host (2-vCPU x86-64 VM,
#: Python 3.11, numpy 2), in seconds.
REFERENCE_KERNEL_S = 1.0e-3
#: How the workloads' time follows the kernel's: busy time grows as the
#: kernel time to this power.  Between quiet and loaded periods of such a
#: VM the exponent was about 0.5-0.6 for ``cohort``, 0.65 for
#: ``filter-sync`` and 0.7 for ``handshake``; the kernel, being short and
#: compute-bound, reacts more than they do.
SENSITIVITY = 0.6

_BUFFER = bytes(range(256)) * 2
_MULTIPLIER = np.uint64(6364136223846793005)
_SHIFT = np.uint64(7)


def kernel() -> int:
    """A fixed amount of interpreter, hashing and numpy work."""
    table: dict = {}
    acc = 0
    for i in range(600):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + 1
        start = i % 200
        digest = hashlib.sha256(_BUFFER[start : start + 64]).digest()
        acc ^= int.from_bytes(digest[:8], "big")
        acc += len([x for x in range(8) if x & 1])
    words = np.arange(2048, dtype=np.uint64)
    for _ in range(20):
        words = (words * _MULTIPLIER) ^ (words >> _SHIFT)
    return acc ^ int(words[-1])


def probe() -> float:
    """CPU seconds of one kernel run."""
    start = thread_time()
    kernel()
    return thread_time() - start


def scale(kernel_times: List[float]) -> float:
    """Factor that turns CPU time measured alongside ``kernel_times``
    into reference time."""
    return (REFERENCE_KERNEL_S / statistics.median(kernel_times)) ** SENSITIVITY
