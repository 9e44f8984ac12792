"""The host's speed while a round runs, from a fixed calibration loop.

The 2-core Xeon VM of README.md is a share of a host whose speed
changes by up to 1.8x within seconds and can stay slow for minutes, for
every kind of work alike (process CPU time slows with wall time, so it is
not time stolen by the hypervisor).  So the timed rounds are scaled by the
speed at which they ran: a timer signal interrupts the round every PERIOD
seconds and times one pass of a fixed calibration loop, in the same
process, between two bytecodes of the program.  A round's time, less the
time its calibration passes took, is scaled by REFERENCE_S over the mean
time of those passes.  The result is the time the round would take on a
host where one calibration pass takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PERIOD = 0.05  # seconds between calibration passes
# seconds one calibration pass takes on the 2-core Xeon VM of README.md
# when it runs at full speed
REFERENCE_S = 0.0023

_WORDS = [str(i * 7919 % 10007) for i in range(600)]
_TABLE = {w: i for i, w in enumerate(_WORDS)}


def calibrate() -> int:
    """Fixed interpreter work of the kinds the program does: integer
    formatting, dict lookups and a sort of short strings.  It frees what it
    allocates, so it starts no garbage collection of the program's objects."""
    total = 0
    for _ in range(5):
        for i in range(1500):
            total += _TABLE.get(str(i), -1)
        for word in sorted(_WORDS):
            total += len(word)
    return total


def setup_factor(passes: int = 2) -> float:
    """REFERENCE_S over the mean time of `passes` calibration passes taken
    now, after one untimed pass: the scale for a span too short for the
    timer, taken on both sides of it."""
    calibrate()
    start = perf_counter()
    for _ in range(passes):
        calibrate()
    return REFERENCE_S * passes / (perf_counter() - start)


class SpeedProbe:
    """Calibration passes taken from a timer signal while it is running.
    One that was never started takes none and scales by 1."""

    def __init__(self) -> None:
        self.passes: list[float] = []  # seconds of each calibration pass
        self.spent = 0.0  # seconds of all calibration passes

    def _on_timer(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        calibrate()
        took = perf_counter() - start
        if enabled:
            gc.enable()
        self.passes.append(took)
        self.spent += took

    def start(self) -> None:
        calibrate()  # warm
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.passes), self.spent

    def scale(self, since: tuple[int, float], wall: float) -> tuple[float, float]:
        """(the wall time less calibration since `since`, the factor that
        scales it to the reference speed).  Without a pass since `since`,
        the last pass before it stands in."""
        first, spent = since
        passes = self.passes[first:] or self.passes[-1:]
        factor = REFERENCE_S / (sum(passes) / len(passes)) if passes else 1.0
        return wall - (self.spent - spent), factor
