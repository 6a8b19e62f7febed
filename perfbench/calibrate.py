"""Machine-speed reference for host-time metrics.

On a shared 2-core virtual machine, host speed changed by up to a fifth
from one minute to the next, through load from outside the process: one
pinned csof_peak round took 5.2 s to 7.9 s within a single run, and ten
runs of it ranged from 75 to 109 simulated seconds per host second.  A
fixed pure-Python loop timed between engine steps slows down with the
engine: over rounds whose engine time ranged from 6.8 s to 8.2 s, engine
time over loop time stayed within 1 %.

So every host time the benchmark reports is scaled by the loop's nominal
time over its time measured alongside it: it reads as the time the work
would take on a machine where one loop takes ``NOMINAL_S``, a round figure
near what the loop took on that machine (see README.md).
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.005


class _Particle:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float) -> None:
        self.x = x
        self.v = v


def reference_loop() -> float:
    """Attribute updates, float arithmetic and dict stores, as in a step."""
    particles = [_Particle(i * 1.5, (i % 7) * 0.3) for i in range(200)]
    cells: dict[int, _Particle] = {}
    acc = 0.0
    for _ in range(30):
        for p in particles:
            p.x += p.v * 0.1
            acc += min(p.v, 2.0) * max(0.0, p.x - 3.0)
            cells[int(p.x) % 97] = p
    return acc


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """Nominal over mean measured loop time; host time times this is nominal."""
    return NOMINAL_S * len(samples) / sum(samples)


class NominalClock:
    """Host time scaled stretch by stretch to the nominal machine speed.

    ``mark`` times the loop and closes a stretch: the host time added since
    the previous mark is scaled by the mean of the loop times at its two
    ends.  Pairing each stretch with its own loop times weights the factor
    by where host time is spent, which matters when late steps cost more.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.nominal_s = 0.0
        self._stretch_s = 0.0
        self._last = time_reference()

    def add(self, host_s: float) -> None:
        self.host_s += host_s
        self._stretch_s += host_s

    def mark(self) -> None:
        sample = time_reference()
        self.nominal_s += self._stretch_s * 2.0 * NOMINAL_S / (self._last + sample)
        self._stretch_s = 0.0
        self._last = sample
