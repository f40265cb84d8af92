"""Host-speed meter: a frozen reference kernel sampled during timed work.

A shared virtual machine's core does not run at one speed.  Neighbours
on the same physical core, cache and memory bus slow it down, by tens
of per cent and at times by half, for stretches from milliseconds to
minutes, and CPU time grows with them.  :class:`HostMeter` measures
that speed while the benchmark runs.  Every :data:`INTERVAL_S` of the
process's user CPU time a ``SIGVTALRM`` handler runs :func:`kernel`, a
fixed piece of pure-Python work that does not change with the program,
and records the CPU seconds it took.  A span's CPU time times
:func:`speed_ratio` of the samples taken during it is the span's
*reference time*: its CPU time on a host where one kernel sample takes
exactly :data:`REFERENCE_S`.

Times are read with ``time.thread_time()``: while an interval timer is
armed, Linux serves ``CLOCK_PROCESS_CPUTIME_ID`` (``process_time``) from
a tick-granular accumulator, so short spans read 0.  The benchmark runs
the program in its one thread.

Each sample first runs a short warm-up of the kernel, untimed, so the
timed part does not pay for caches the program left cold.  The kernel
touches a few kilobytes and allocates no container objects, so it does
not advance the garbage collector's counters.  The handler's own CPU
time is reported (:meth:`HostMeter.since`) so a caller can take it out
of a span it timed.
"""

from __future__ import annotations

import heapq
import signal
import time

#: CPU seconds one timed :func:`kernel` call takes on the reference
#: host: the unit that reference times are expressed in.  It is about
#: what the call takes inside the workloads on a 2-vCPU Intel Xeon KVM
#: guest with Python 3.11.7.
REFERENCE_S = 0.001
#: User CPU seconds of the process between two samples.
INTERVAL_S = 0.02
#: Kernel rounds of the timed part of a sample, and of its warm-up.
ROUNDS = 1000
WARMUP_ROUNDS = 200

_HEAP_SIZE = 512
_TABLE_SIZE = 256


def _tables() -> tuple[list, dict]:
    heap = [(7919 * k) % 104729 for k in range(_HEAP_SIZE)]
    heapq.heapify(heap)
    table = {(k * 2654435761) % (1 << 31): k for k in range(_TABLE_SIZE)}
    return heap, table


_INITIAL_HEAP, _TABLE = _tables()
_HEAP = list(_INITIAL_HEAP)
_KEYS = list(_TABLE)
_STATE = [0]


def _step(state: list, value: int) -> int:
    state[0] += value & 7
    return state[0]


def kernel(rounds: int = ROUNDS) -> int:
    """Fixed pure-Python work: heap churn, dict probes, calls.

    Every call starts from the same heap and state, so calls with the
    same ``rounds`` do identical work.
    """
    heap, table, keys, state = _HEAP, _TABLE, _KEYS, _STATE
    heap[:] = _INITIAL_HEAP
    state[0] = 0
    total = 0
    index = 1
    for _round in range(rounds):
        value = heapq.heappop(heap)
        index = (index * 1103515245 + 12345 + value) % _TABLE_SIZE
        total += table.get(keys[index], 0) + _step(state, value)
        heapq.heappush(heap, value + (total & 1023) + 1)
    return total


class HostMeter:
    """Samples :func:`kernel` every :data:`INTERVAL_S` of user CPU time.

    Use as a context manager around timed work.  :meth:`mark` returns a
    position; :meth:`since` gives the samples taken after it and the
    CPU seconds the handler spent.  :meth:`sample` takes one sample on
    demand, for a span too short for the timer to hit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> float:
        """Run the kernel once (after its warm-up) and record its CPU time."""
        self._busy = True
        began = time.thread_time()
        kernel(WARMUP_ROUNDS)
        start = time.thread_time()
        kernel()
        end = time.thread_time()
        self.samples.append(end - start)
        self.spent += end - began
        self._busy = False
        return end - start

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """(samples, handler CPU seconds) after ``mark``."""
        count, spent = mark
        return self.samples[count:], self.spent - spent

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)


def speed_ratio(samples: list[float]) -> float:
    """Reference seconds per CPU second: :data:`REFERENCE_S` over the mean sample.

    The timer fires evenly in CPU time, so the mean sample weights each
    stretch of host speed by the CPU time the span spent in it.
    """
    return REFERENCE_S * len(samples) / sum(samples)
