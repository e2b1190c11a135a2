"""The benchmark's time unit: one call of :func:`ref_loop` is one *ref*.

Host speed on a shared machine drifts by tens of percent within a minute,
so no raw wall-clock time repeats closely enough to gate on.  Every
end-to-end time is therefore divided by the time of this fixed,
stdlib-only loop, measured right next to the operation it normalises:
drift that slows both cancels, while a change to the program moves only
the numerator.

The loop mixes the kinds of interpreter work the program itself does
(see :func:`ref_loop`): on a shared host, slowdowns hit each kind by a
different amount, and a mixed loop tracks every workload better than
any single kind does.  Never
change it: a different loop is a different unit, and every recorded
``*_ref`` figure would stop being comparable.
"""

from __future__ import annotations

import gc
import heapq
import time
from fractions import Fraction


class _Token:
    __slots__ = ("when", "seq")

    def __init__(self, when: Fraction, seq: int) -> None:
        self.when = when
        self.seq = seq


def _process(steps: int, log: list[int]):
    for i in range(steps):
        got = yield i
        log.append(got)


def ref_loop() -> int:
    """Run the fixed reference workload once; returns a checksum.

    Five parts of roughly equal time: exact fractions, a heap of small
    objects, a table of tuple keys too large for the innermost caches,
    generator coroutines resumed round-robin, and plain integer work.
    """
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 480):
        acc += Fraction(i, i + 7)
        table[(i, i & 7)] = acc

    heap: list[tuple[Fraction, int, _Token]] = []
    step = Fraction(1, 3)
    done = 0
    for i in range(120):
        tok = _Token(step * (i % 13) + Fraction(i % 5, 7), i)
        heapq.heappush(heap, (tok.when, i, tok))
        if len(heap) > 16:
            _when, _seq, old = heapq.heappop(heap)
            if all(t.seq >= 0 for t in (old, tok)):
                done += 1

    states: dict[tuple[int, int, int, int], int] = {}
    for i in range(3000):
        states[(i % 97, i % 89, i // 7, i % 13)] = i
    for i in range(3000):
        if (i % 97, i % 89, i // 7, i % 13) in states:
            done += 1

    log: list[int] = []
    live = [_process(60, log) for _ in range(60)]
    for proc in live:
        next(proc)
    tick = 0
    while live:
        resumed = []
        for proc in live:
            tick += 1
            try:
                proc.send(tick)
            except StopIteration:
                continue
            resumed.append(proc)
        live = resumed

    mix = 0
    for i in range(20000):
        mix = (mix * 31 + i) & 0xFFFF
    return done + mix + len(table) + len(log)


def time_ref() -> float:
    """Seconds for one :func:`ref_loop` call, garbage collected beforehand."""
    gc.collect()
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0
