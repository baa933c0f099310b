"""A host speed index sampled while an operation runs.

On the 2-core host this benchmark was built on, the same code runs up to
1.7x slower for stretches of seconds to minutes, and process CPU time grows
as much as wall time: the slowdown is in the CPU the process gets (other
tenants of the machine), not in waiting.

``Sampler`` times one short kernel of small-array numpy calls every
INTERVAL_S seconds while an operation runs, from a SIGALRM handler in the
benchmark's own thread (no extra thread or process).  The kernel is written
apart from polygauss, so no change to the program moves it.  ``slowdown``
is the index: the kernel's mean measured time over NOMINAL_S, its time at
the host's fast speed, so 1.0 means fast.  It is the same for every workload
and every commit; ``run.py`` divides wall times by it.

Parent and change are divided by the same index in the same host state, so
their ratio is the ratio of their raw wall times.  The index does not undo
that the host slows some kinds of work more than others (README.md): a
change that moves work from one kind to another shows a gain that depends
on how slow the host was, in raw and normalised time alike.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# 5th percentile of kernel_time() over 40 s of back-to-back samples on the
# host named in README.md: its fast speed.
NOMINAL_S = 65e-6

_XS = np.linspace(-1.0, 1.0, 300)


def _small_arrays() -> None:
    # numpy calls on arrays of a few hundred elements, as in the chain LP.
    vs = -np.abs(_XS)
    for _ in range(6):
        attain = np.flatnonzero(vs == vs.max())
        j1, j2 = attain[0], attain[-1]
        xs2 = np.concatenate([_XS[: j1 + 1] - 0.01, _XS[j2:] + 0.01])
        vs2 = np.concatenate([vs[: j1 + 1], vs[j2:]])
        np.interp(-1.0, xs2, vs2)


def kernel_time() -> float:
    """The kernel's time, best of two back-to-back calls: the first call
    after an interruption also pays for refilling caches the operation
    evicted, which is not host speed."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _small_arrays()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Collects ``kernel_time()`` on entry, every INTERVAL_S seconds of wall
    time inside the ``with`` block, and on exit."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        self.samples.append(kernel_time())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


def slowdown(samples: list[float]) -> float:
    """The host speed index over ``samples``."""
    return statistics.fmean(samples) / NOMINAL_S
