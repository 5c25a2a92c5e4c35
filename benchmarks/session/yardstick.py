"""A fixed piece of interpreter work, to tell the host's speed from the program's.

This sandbox shares its cores: the same session has read 790 CPU-µs per
frame in a quiet minute and 1,300 a few minutes later, while a neighbour
was busy — in ``process_time``, with nothing else running here.  Whole
runs are slowed, so neither more repetitions nor a median removes it, and
a 10% regression bound cannot be checked against a 60% swing.

What does remove it: the contention slows *any* interpreter-bound code by
about the same factor at the same moment.  So the benchmark runs this
yardstick — a fixed loop of dict, attribute, list and integer bytecodes
that no change to ``src/`` can touch — next to every time it takes, and
reports the time scaled to the speed at which the yardstick takes
:data:`REFERENCE_S`.  On ten sets of sessions measured under heavy
contention this took the spread of the median frame cost from 16% to 4%.

The price is stated in every metric's description: a calibrated time is
"CPU time on a host that runs the yardstick in 350 µs" (this sandbox when
quiet), not the time a stopwatch showed.  The raw times are kept in the
``--out`` record.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable

#: The yardstick's CPU time on the quiet reference host (2.1 GHz Xeon
#: sandbox, CPython 3.11).  A constant of the benchmark, never re-measured:
#: changing it rescales every calibrated metric.
REFERENCE_S = 350e-6

_ROUNDS = 3000


class _State:
    def __init__(self) -> None:
        self.word = 1
        self.table = {index: index for index in range(64)}
        self.log: list = []


def yardstick() -> float:
    """Do the fixed work once; returns the CPU seconds it took just now."""
    state = _State()  # fresh every time: each reading does identical work
    table = state.table
    accumulator = 0
    started = time.process_time()
    for index in range(_ROUNDS):
        accumulator += table[index & 63] ^ state.word
        if accumulator & 1:
            state.log.append(accumulator)
        else:
            state.word = (state.word + index) & 0xFFFF
    return time.process_time() - started


def calibrated(raw: float, yardsticks: Iterable[float]) -> float:
    """``raw`` (any unit of time) at the reference host's speed, given the
    yardstick readings taken around it."""
    return raw * REFERENCE_S / statistics.median(yardsticks)
