"""Calibration probe: how fast the host runs this kind of work right now.

The benchmark's machine is a few cores of a shared host.  The speed of
the core a pass runs on drifts by a quarter or more within seconds as
other tenants load it, and the other core's speed does not follow it.
So a pass is timed in short intervals, each between two runs of a fixed
piece of work on the same core, and ``SpeedClock`` rescales each
interval's wall time to a host on which the probe takes ``PROBE_REF_S``.

The probe is the benchmark's own frozen code, never the package's, so a
change to the package cannot move it.  It has the shape of a descent
iteration at N = 200: a dense projected Riesz gradient on the sphere, a
retraction and two trial energies, all small numpy calls.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

N, ITERS, REPEATS = 200, 10, 3
PERIOD_S = 0.75  # wall time between probes inside a pass
# the probe's median time on an unloaded core of the 2-core Xeon host
# the bounds were set on; it only fixes the scale of adjusted times
PROBE_REF_S = 0.03

_X0 = np.random.default_rng(12345).normal(size=(N, 3))
_X0 /= np.linalg.norm(_X0, axis=1, keepdims=True)


def _r2(X):
    diff = X[:, None, :] - X[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, np.inf)
    return diff, r2


def _once():
    X = _X0.copy()
    t0 = time.perf_counter()
    for _ in range(ITERS):
        diff, r2 = _r2(X)
        G = -2.0 * np.einsum("ij,ijk->ik", r2 ** -2.0, diff)
        G -= np.sum(G * X, axis=1, keepdims=True) * X
        step = 1e-5 / (1.0 + float(np.linalg.norm(G)))
        for trial in (step, 0.5 * step):
            Y = X - trial * G
            Y /= np.linalg.norm(Y, axis=1, keepdims=True)
            float((1.0 / _r2(Y)[1]).sum())
        X = Y
    return time.perf_counter() - t0


def probe_s():
    """Median wall time of a few probe runs, in seconds."""
    return statistics.median(_once() for _ in range(REPEATS))


class SpeedClock:
    """Times the code run inside ``with clock:``, probes excluded.

    A probe runs on entry, on exit and, when ``periodic``, every
    ``PERIOD_S`` in between: a SIGALRM handler runs it in the main
    thread at the next bytecode boundary, so a long numpy call finishes
    first.  ``wall_s`` is the time between probes; ``adjusted_s`` scales
    each interval by ``PROBE_REF_S`` over the mean of its two probes.
    A traced pass must not be periodic: its spans would hold the probes.
    """

    def __init__(self, periodic=True):
        self.periodic = periodic
        self.probes, self.intervals = [], []
        self._last = None

    def _point(self):
        now = time.perf_counter()
        if self._last is not None:
            self.intervals.append(now - self._last)
        self.probes.append(probe_s())
        self._last = time.perf_counter()

    def _on_alarm(self, signum, frame):
        self._point()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)  # one-shot, re-armed after the probe

    def __enter__(self):
        self._point()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._point()
        return False

    @property
    def wall_s(self):
        return sum(self.intervals)

    @property
    def adjusted_s(self):
        return sum(
            t * PROBE_REF_S / (0.5 * (before + after))
            for t, before, after in zip(self.intervals, self.probes, self.probes[1:])
        )
