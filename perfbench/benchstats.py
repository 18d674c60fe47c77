"""Pure arithmetic of the benchmark: percentiles, the rate ladder, self times.

Nothing here touches a clock, a process or the program under test, so
``test_selftest.py`` can pin every rule on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is only reported where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that still
    has ``TAIL_BEYOND`` samples above it.

    Sorted ascending, that is the sample at index ``n - 1 - TAIL_BEYOND``,
    the empirical ``100 * (n - TAIL_BEYOND) / n``-th percentile. Below
    ``2 * TAIL_BEYOND + 1`` samples that would not even reach the median,
    so the maximum is returned, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan
    if n <= 2 * TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    index = n - 1 - TAIL_BEYOND
    return float(ordered[index]), 100.0 * (index + 1) / n


class Phase:
    """One open-loop rate phase as the load generator measured it.

    ``latencies_s`` hold one entry per request due in the phase, counted
    from the request's scheduled send time; a failed or refused request
    is ``inf``, so it misses any latency limit.
    """

    def __init__(self, name: str, rate_rps: float,
                 latencies_s: Sequence[float], backlog: int,
                 late_s: Sequence[float], window_s: float) -> None:
        self.name = name
        self.rate_rps = rate_rps
        self.latencies_s = list(latencies_s)
        #: Requests released but unsent when the phase's window closed.
        self.backlog = backlog
        self.late_s = list(late_s)
        #: The phase's scheduled length as the generator's clock measured
        #: it, from its start to its scheduled end.
        self.window_s = window_s

    @property
    def sent(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        return sum(1 for x in self.latencies_s if math.isinf(x))

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    @property
    def offered_rps(self) -> float:
        """Requests released per second of the phase's window."""
        if self.window_s <= 0:
            return 0.0
        return self.sent / self.window_s

    def backlog_grew(self) -> bool:
        """True when requests piled up unsent over the phase.

        Each phase starts with an empty queue. A stable open loop ends it
        with a handful of requests queued at most; more than 5% of the
        phase's arrivals (plus four) still waiting means arrivals outran
        service.
        """
        return self.backlog > 0.05 * self.sent + 4

    def tail_ms(self) -> float:
        return tail(self.latencies_s)[0] * 1e3

    def passes(self, limit_ms: float) -> bool:
        return self.sent > 0 and self.tail_ms() < limit_ms \
            and not self.backlog_grew()


class Ladder:
    """The search for the highest sustainable rate.

    Rung ``k`` offers ``base * step ** k`` requests per second. A coarse
    climb tries every ``stride``-th rung in a short phase, from rung 0,
    running a failed rung once more (one stall can sink a short phase),
    until one fails twice. A short phase only catches gross overload (a
    queue needs time to grow), so the coarse climb brackets the limit and
    full phases decide it: the fine search starts on the last coarse
    pass and climbs one rung per pass, running a failed rung once more
    (one stall can sink a phase) and stopping where a rung fails twice;
    when its first rung fails twice it descends one rung per failure
    instead and stops at the first pass. Only fine phases count toward the maximum.
    The coarse climb keeps the start far below today's capacity at
    little cost, so a much slower program still finds its limit.
    """

    def __init__(self, base: float, step: float, stride: int,
                 top: int) -> None:
        self.base = base
        self.step = step
        self.stride = stride
        #: The highest rung ever tried.
        self.top = top
        self.coarse = True
        self.rung = 0
        #: 1 while a failed rung is being run again.
        self.attempt = 0
        self._passed = -1
        self._fine_passed = False
        self._descending = False
        self._done = False

    def rate(self, rung: int) -> float:
        return round(self.base * self.step ** rung, 2)

    def next(self) -> Optional[Tuple[int, bool, int]]:
        """(rung, coarse?, attempt) of the next phase, or None when done."""
        if self._done:
            return None
        return self.rung, self.coarse, self.attempt

    def record(self, passed: bool) -> None:
        """The outcome of the phase :meth:`next` named."""
        if self.coarse:
            if passed:
                self._passed = self.rung
                self.attempt = 0
                self.rung += self.stride
            elif self.attempt == 0:
                self.attempt = 1
            else:
                self.coarse = False
                self.attempt = 0
                self.rung = max(self._passed, 0)
        elif self._descending:
            if passed or self.rung == 0:
                self._done = True
            else:
                self.rung -= 1
        elif passed:
            self._fine_passed = True
            self.attempt = 0
            self.rung += 1
        elif self.attempt == 0:
            self.attempt = 1
        elif self._fine_passed or self.rung == 0:
            self._done = True
        else:
            self._descending = True
            self.attempt = 0
            self.rung -= 1
        if self.rung > self.top:
            self._done = True


def max_rate_rps(phases: Iterable[Phase], limit_ms: float) -> float:
    """Offered rate of the highest-rate phase that meets the limit.

    A phase meets it when its tail latency (failures counting as
    infinitely late) is under ``limit_ms`` and its backlog did not grow,
    so everything offered was answered in time. Returns 0.0 when no
    phase does.
    """
    passing = [p for p in phases if p.passes(limit_ms)]
    if not passing:
        return 0.0
    return max(passing, key=lambda p: p.rate_rps).offered_rps


# -- spans -------------------------------------------------------------
#: One recorded span: (name, start_ns, end_ns, parent index or -1).
Span = Tuple[str, int, int, int]


def _covered_ns(start: int, end: int, children: List[Tuple[int, int]]) -> int:
    """Length of the union of ``children`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return covered


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered_ns(start, end, children.get(i, []))
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span],
                 window: Optional[Tuple[int, int]] = None
                 ) -> Dict[str, Tuple[float, float, int]]:
    """Per span name: (self seconds, inclusive seconds, calls).

    A span directly inside one of the same name (a wrapped function
    calling another wrapped under the same layer) adds its self time but
    is not another call. With ``window`` only spans that start inside it
    count (the server records its start-up too; metrics cover a phase).
    """
    selfs = self_times_ns(spans)
    totals: Dict[str, Tuple[float, float, int]] = {}
    for (name, start, end, parent), self_ns in zip(spans, selfs):
        if window is not None and not window[0] <= start < window[1]:
            continue
        s, inc, n = totals.get(name, (0.0, 0.0, 0))
        if parent >= 0 and spans[parent][0] == name:
            totals[name] = (s + self_ns / 1e9, inc, n)
        else:
            totals[name] = (s + self_ns / 1e9, inc + (end - start) / 1e9,
                            n + 1)
    return totals

