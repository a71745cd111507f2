"""Host-speed probe: a fixed piece of CPU work that never touches pnsqkd.

On a shared host the CPU time of identical work changes by up to about
2x, in phases that last from seconds to minutes (a busy sibling
hyperthread, frequency changes).  A run long enough to average that out
would not fit the benchmark's time budget.  Instead the benchmark runs
``probe()`` before the first timed invocation and after every one, and
scales each invocation's CPU time by ``REFERENCE_MS`` over the mean of the
two probes around it.  The result is the invocation's time on a host where
the probe takes ``REFERENCE_MS``: the host's phase cancels, while a change
to pnsqkd, which the probe does not run, shows in full.

The probe mixes the kinds of work the CLI does: interpreted float
arithmetic, string formatting and parsing, and small NumPy matrix
operations including dim-8 Hermitian eigensolves.
"""
from __future__ import annotations

import math
import time

# The reported times are those of a host on which the probe takes this long.
# It is near the probe's median on the 2-vCPU VM the benchmark was written
# on, so scaled times are close to the raw CPU times there.
REFERENCE_MS = 4.0


def _work():
    # NumPy is imported here, not at module level, so that importing this
    # module neither starts NumPy before the BLAS threads are pinned nor
    # takes NumPy's import out of the timed set-up.
    import numpy as np

    matrix = np.cos(np.add.outer(np.arange(8.0), np.arange(8.0)) / 3.0)
    hermitian = matrix @ matrix.T + 1j * (matrix - matrix.T)
    acc = 0.0
    for i in range(1, 2500):
        x = i * 1e-3
        acc += math.exp(-x) * math.log1p(x) + x ** 0.5
    lines = [f"{i * 0.1:.12g},{acc / i:.12g}" for i in range(1, 350)]
    acc += sum(float(line.split(",")[1]) for line in lines)
    for i in range(35):
        values = np.linalg.eigvalsh(hermitian + i * np.eye(8))
        acc += float(np.kron(matrix[:2, :2], matrix[:4, :4]).sum() + values[-1])
    return acc


def probe():
    """Thread CPU seconds of one run of the fixed probe work."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start
