"""The host's pace, so timings can be read at the speed of a quiet host.

The machines this benchmark runs on are shared.  Neighbours that contend
for caches and memory slow every process on them, by up to 2x for minutes
at a time, and a wall-clock timing moves with them.  A repetition of the
same code at the same seed then reads 40% slower in one minute than in the
next, far more than any change worth measuring.

:class:`Pace` times a fixed beat — :data:`WALK` lookups, in shuffled order,
in a dict of :data:`TABLE` integers, then :data:`ARITHMETIC` steps of
integer arithmetic — every :data:`INTERVAL_S` seconds from a ``SIGALRM``
handler.  The lookups pay the memory latency that neighbours drive up, the
arithmetic the share of the core they take.  Over fifteen minutes of
repetitions on the baseline host, the two together followed the
workloads' wall time more closely than either alone or than a memory
copy.  The handler runs on the measured thread itself, between two
bytecodes of whatever it is doing, so the beat sees the host as that
thread sees it at that moment.  :meth:`Pace.seconds` turns a
stretch of wall time into *reference seconds*: the stretch, less the beats
inside it, times the mean of ``REFERENCE_S / beat`` over those beats.  A
reference second is a second of a host on which one beat takes
:data:`REFERENCE_S`.

How long a beat takes also depends on how much of the beat's dict the
measured code has pushed out of the caches since the last beat, so the
ratio between reference and wall seconds differs from workload to
workload; only reference seconds of one workload compare with each other.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from typing import Optional

#: Seconds between two beats.
INTERVAL_S = 0.05
#: Entries in the beat's dict: about 14 MB, well past the per-core caches.
TABLE = 1 << 17
#: Lookups per beat.
WALK = 4000
#: Arithmetic steps per beat.
ARITHMETIC = 3000
#: A beat's time on the reference host.
REFERENCE_S = 1.0e-3


def _resident_mb() -> float:
    """The process's resident set now, in MB (0 where unknown)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


class Pace:
    """Beats on the main thread while started, to time the host's pace."""

    def __init__(self) -> None:
        before = _resident_mb()
        order = list(range(TABLE))
        random.Random(7).shuffle(order)
        self._table = dict(zip(order, range(TABLE)))
        self._walk = order[:WALK]
        #: Resident memory the beat's dict holds, so a peak RSS can leave
        #: it out.
        self.resident_mb = max(0.0, _resident_mb() - before)
        #: ``time.perf_counter()`` at each beat's start, and its duration.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def start(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._beat)
        # Restart system calls the alarm interrupts, in whichever thread it
        # lands, rather than fail them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _beat(self, _signum, _frame) -> None:
        # Runs between any two bytecodes, imports included: it must import
        # nothing and touch nothing but its own state.
        table = self._table
        started = time.perf_counter()
        total = 0
        for key in self._walk:
            total += table[key]
        for step in range(ARITHMETIC):
            total += step * step % 7
        self.durations.append(time.perf_counter() - started)
        self.starts.append(started)

    def seconds(self, begin: float, end: float) -> float:
        """Reference seconds worth of the wall-clock stretch from ``begin``
        to ``end`` (``time.perf_counter()`` readings).

        A stretch no beat fell into is read at the pace of every beat so
        far; with no beat at all it counts as its wall time.
        """
        inside = [duration for start, duration
                  in zip(self.starts, self.durations) if begin <= start < end]
        paces = inside or self.durations
        if not paces:
            return end - begin
        speed = statistics.fmean(REFERENCE_S / duration for duration in paces)
        return (end - begin - sum(inside)) * speed

    def slowdown(self) -> Optional[float]:
        """Median beat time over :data:`REFERENCE_S`, for the record."""
        if not self.durations:
            return None
        return statistics.median(self.durations) / REFERENCE_S
