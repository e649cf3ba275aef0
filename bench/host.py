"""Host speed, measured with a fixed kernel that does not touch oscsym.

The benchmark runs on a shared VM whose vCPUs slow down by up to ~1.7x for
seconds to minutes at a time when the host is busy.  The harness times the
kernel between operations, off the loop's clock, as a *slowness*: its time
over its time on the reference VM.  Every end-to-end time is reported at
the reference speed: a raw time measured next to samples of median slowness
``s`` is reported divided by ``s``.  A change to the program cannot change
the kernel, so it moves the reported times as it moves the raw ones; a
change of host speed moves both and cancels.

The kernel is interpreted Python and small numpy arrays, the work the CLI,
certification and thermal workloads spend their time on, and the work of
every workload's set-up (imports).  It does not track the Fock ladder's
large BLAS products, and neither did a kernel of 512x512 complex products,
so that workload's operations are reported unscaled.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

#: seconds of loop clock between two kernel samples
EVERY_S = 0.1
#: most kernel samples taken back to back, after an operation longer than EVERY_S
BURST = 5
#: seconds of loop clock on each side of an operation whose samples set its speed
WINDOW_S = 1.0
#: fewest samples on each side of an operation that set its speed
NEIGHBOURS = 2
#: samples taken right before and as many right after each set-up probe
PROBE_SAMPLES = 3
#: the kernel's time on the reference VM (shared 2-vCPU Xeon, see bench/README.md)
REF_S = 0.0055

_M4 = np.eye(4) * 0.5 + 0.01


def slowness() -> float:
    """Time of one pass of the kernel over ``REF_S``."""
    start = perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    a = _M4
    for _ in range(300):
        a = a @ _M4 + _M4
        a = a / np.abs(a).max()
    return (perf_counter() - start) / REF_S


def scale(spans: Sequence[Tuple[float, float]],
          samples: List[Tuple[float, float]]) -> List[float]:
    """Factor that brings a time to the reference speed, per (start, end) of loop clock.

    ``samples`` are (clock, slowness) in clock order.  The factor is one over
    the median slowness of the samples taken within ``WINDOW_S`` of the
    span, and of at least ``NEIGHBOURS`` samples on each side of it.  With
    no samples it is 1.
    """
    if not samples:
        return [1.0] * len(spans)
    clocks = [c for c, _ in samples]
    out = []
    for start, end in spans:
        lo = min(bisect.bisect_left(clocks, start - WINDOW_S),
                 bisect.bisect_right(clocks, start) - NEIGHBOURS)
        hi = max(bisect.bisect_right(clocks, end + WINDOW_S),
                 bisect.bisect_right(clocks, end) + NEIGHBOURS)
        out.append(1.0 / statistics.median(s for _, s in samples[max(0, lo):hi]))
    return out
