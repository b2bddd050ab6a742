"""A fixed piece of pure-Python work that gauges how fast the host runs now.

On a small shared host the same code runs tens of percent faster or
slower from one minute to the next, in CPU time as much as in wall time:
the contention is for the core and its caches, not for the scheduler, so
no choice of clock or of median inside a run removes it.  The benchmark
times this kernel right before every timed query and reports each
latency also as a multiple of it (unit ``ref``), which cancels most of
that drift.

The kernel does the kind of work the package does most (free reduction
of words held as tuples, hashing them into a dict, rendering them as
text) on fixed data.  It is the benchmark's own code, so no change to the
package makes it faster or slower; the garbage collector is off while it
runs, so the size of the package's heap does not reach it either.
"""

from __future__ import annotations

import gc
import random
import time

_rng = random.Random("pochette-bench-reference")
WORDS = tuple(
    tuple((_rng.choice("xyzw"), _rng.choice((1, -1))) for _ in range(400)) for _ in range(60)
)
del _rng


def kernel(words=WORDS) -> int:
    """Freely reduce, count and render every word; returns the letters left."""
    seen: dict[tuple, int] = {}
    left = 0
    for word in words:
        out: list[tuple[str, int]] = []
        for letter in word:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        key = tuple(out)
        seen[key] = seen.get(key, 0) + 1
        left += len(" ".join(f"{name}^{sign}" for name, sign in out).split())
    return left


def seconds() -> float:
    """Time one run of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
