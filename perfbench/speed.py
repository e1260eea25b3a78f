"""Host-speed sampling, to report pass times at a reference speed.

Other tenants of a shared host change this core's effective speed by
±20% from one second to the next, and by 2x over minutes; CPU time slows
with wall time, and the VM exposes no hardware counters.  A
:class:`SpeedProbe` interrupts the pass every ``interval`` seconds
(``SIGALRM``) and times a fixed pure-Python loop: integer arithmetic plus
a random read from an 8 MB buffer, so that it slows under cache and
memory contention as well as under a slower core, as the pipeline does.
(A loop that stays in L1 tracked the pipeline's slowdowns less well.)
Across the host's slow and fast phases the pipeline slows as about the
power :data:`SLOWDOWN_EXPONENT` of the loop's slowdown (fitted per
workload: 1.1 for saturate, 1.3–1.4 for the other three), so each sample's
speed is the loop's reference duration over its measured one, raised to
that power.  Their mean is the share of reference speed the pass ran at;
:meth:`SpeedProbe.normalise` scales a wall time by it.  The probe costs a pass about 2.5% and runs in
the pass's own thread, so it samples the core the pass runs on.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Seconds the probe loop takes at reference speed (a 2-core x86 host).
REFERENCE_LOOP_S = 0.001
LOOP_ITERATIONS = 4_000
BUFFER_MASK = (1 << 23) - 1  # an 8 MB buffer: well past L2
SLOWDOWN_EXPONENT = 1.3


class SpeedProbe:
    """Samples the speed of the running core while a pass runs."""

    def __init__(self, interval: float = 0.04) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._buffer = bytearray(bytes(range(256)) * ((BUFFER_MASK + 1) // 256))
        self._previous = None

    def _sample(self, signum, frame) -> None:
        buffer, total, k = self._buffer, 0, len(self.samples)
        start = perf_counter()
        for _ in range(LOOP_ITERATIONS):
            k = (k * 1103515245 + 12345) & 0x7FFFFFFF
            total += buffer[k & BUFFER_MASK]
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def speed(self) -> float:
        """Mean speed over the pass, as a share of reference speed."""
        if not self.samples:
            return 1.0
        return statistics.fmean(
            (REFERENCE_LOOP_S / s) ** SLOWDOWN_EXPONENT for s in self.samples
        )

    def normalise(self, seconds: float) -> float:
        """*seconds* of wall time, expressed at reference speed."""
        return seconds * self.speed
