"""Host-speed reference for rescaling wall times.

The speed of a shared host drifts by tens of percent within seconds, so raw
wall times of one unchanged program spread too widely to compare two
versions. `HostSpeed` times a fixed reference chunk (the same mix of small
matrix products, elementwise ufuncs and interpreter work that dominates the
pipeline) every SAMPLE_INTERVAL_S of wall time while the pipeline runs, on
the same thread, so each sample sees the host as the pipeline does.
`rescale` turns a wall time into reference seconds: the time the same work
would take on a host where one chunk takes exactly NOMINAL_CHUNK_S. The chunk
is fixed here, so a change to the program moves the rescaled time and a
change in host speed does not.
"""

import signal
import time

import numpy as np

NOMINAL_CHUNK_S = 1e-3
SAMPLE_INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_W = _rng.normal(scale=0.1, size=(56, 128))
_X = _rng.normal(size=(8, 56))


def reference_chunk() -> float:
    h = _X
    for _ in range(50):
        z = h @ _W
        gates = 1.0 / (1.0 + np.exp(-z[:, :96]))
        cell = np.tanh(z[:, 96:]) * gates[:, :32]
        h = np.concatenate([cell * gates[:, 32:64], h[:, :24]], axis=1)
    total = 0
    for i in range(1250):
        total += i * i
    return float(h.sum()) + total


class HostSpeed:
    """Reference-chunk timings taken on demand or from a wall-clock timer."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_chunk()
        self.samples.append(time.perf_counter() - start)

    def probe(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        """Take one sample every SAMPLE_INTERVAL_S of wall time (SIGALRM)."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        return sum(self.samples)

    def rescale(self, wall_s: float) -> float:
        """Wall seconds (sampling time already taken out) in reference
        seconds. Samples are evenly spaced in wall time, so the mean of the
        per-sample speeds is the host's average speed over the interval."""
        speed = sum(NOMINAL_CHUNK_S / s for s in self.samples) / len(self.samples)
        return wall_s * speed
