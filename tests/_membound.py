"""Memory bound for decoders of untrusted bytes.

A decoder may allocate in proportion to the bytes it was handed, never in
proportion to a size field inside them. :func:`allocation_bound` runs a
block under :mod:`tracemalloc` and fails when its peak exceeds
``BYTES_PER_INPUT_BYTE * len(input) + SLACK_BYTES``. Both constants are
fixed here, so neither host RAM nor the kernel's overcommit policy can
decide whether a decode that asks for gigabytes passes.
"""

import tracemalloc
from contextlib import contextmanager

#: A decoded AMQ table holds one uint64 per packed slot — up to 32x the
#: wire size at the narrowest (2-bit) fields — and the bit-unpacking
#: kernels keep a few slot-sized temporaries alive alongside it.
BYTES_PER_INPUT_BYTE = 128

#: Fixed costs independent of the input: lazily built codec tables,
#: hash-state and parser objects.
SLACK_BYTES = 1 << 20


@contextmanager
def allocation_bound(input_len: int):
    """Assert the block's peak traced allocation stays within the bound
    for an input of ``input_len`` bytes. The check also runs when the
    block raises, so a decoder cannot escape it by failing late."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        yield
    finally:
        peak = tracemalloc.get_traced_memory()[1] - base
        if not tracing:
            tracemalloc.stop()
        limit = BYTES_PER_INPUT_BYTE * input_len + SLACK_BYTES
        assert peak <= limit, (
            f"decoding {input_len} bytes peaked at {peak} traced bytes "
            f"(bound {limit})"
        )
