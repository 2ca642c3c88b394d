"""Wall time corrected for the CPU's momentary speed.

On a shared machine the same job can take twice as long when another
tenant loads the core, for stretches of a few seconds to minutes; CPU
time slows down with the wall clock, so it does not help.  A
``SpeedClock`` interrupts the process every ``interval`` seconds
(``SIGALRM``) and times a fixed ~0.5 ms loop of fraction-like
arithmetic, the probe.  The
probe's duration tracks how fast the interpreter runs right now, so

    corrected = (elapsed - probe time) * mean(PROBE_REF_S / probe duration)

is the elapsed time the measured code would have taken at the speed
where one probe takes ``PROBE_REF_S`` -- about the uncontended speed of
the machine the benchmark was calibrated on.  The probes cost about 1%
of the measured time; ``raw`` is the plain elapsed time minus the probes.

Used by the benchmark for ``wall_s`` and ``setup_s``; the uncorrected
figures go into the run record next to them.
"""

from __future__ import annotations

import signal
from math import gcd
from time import perf_counter

PROBE_REF_S = 0.00045
PROBE_STEPS = 400


class _Ratio:
    """Just enough of a fraction to allocate and reduce like ``Fraction``
    (which the probe cannot import: ``setup_s`` times the import of
    ``fractions`` as part of ``eucdyn``)."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g


def probe() -> _Ratio:
    """Fixed interpreter work shaped like the program's exact arithmetic:
    small objects, big-int products and gcd reductions."""
    s = _Ratio(0, 1)
    for i in range(1, PROBE_STEPS):
        a, b = _Ratio(1, i), _Ratio(i, 3)
        p = _Ratio(a.n * b.n, a.d * b.d)
        s = _Ratio(s.n * p.d + p.n * s.d, s.d * p.d)
    return s


class SpeedClock:
    """Context manager: probe every ``interval`` seconds while inside."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.elapsed = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        probe()
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._old)
        return False

    @property
    def raw(self) -> float:
        return self.elapsed - sum(self.samples)

    @property
    def corrected(self) -> float:
        samples = self.samples
        if not samples:  # shorter than one interval: probe once now
            start = perf_counter()
            probe()
            samples = [perf_counter() - start]
        return self.raw * sum(PROBE_REF_S / d for d in samples) / len(samples)
