"""Statistics and the span tracer the benchmark records around public calls.

Spans are recorded only in a traced run, from this package: the tracer
replaces a public function or method with a wrapper that times each call
(:meth:`Tracer.patch`) and restores the original when the run ends.
Compile phases come from the existing :func:`repro.obs.observe` observer,
installed around ``compile_program`` only while tracing; its events become
child spans of the compile span.
"""

from __future__ import annotations

import bisect
import functools
import gc
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

clock = time.perf_counter


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(count: int) -> int:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it among ``count`` samples."""
    for q in (99, 95, 90, 75):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return 50


# -- host speed ----------------------------------------------------------------


class _Item:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value
        self.links: list[int] = []


def reference_task() -> int:
    """A fixed pure-Python task that uses no ``repro`` code: object
    creation, attribute and dict access, string formatting, small calls
    and a sort, the operations a compile pass is made of.  Its time says
    how fast the host runs Python at that moment."""
    table: dict[str, int] = {}
    items = []
    for i in range(600):
        item = _Item(f"k{i % 53}", (i * 7919) % 1009)
        item.links.append(i % 11)
        table[item.key] = table.get(item.key, 0) + item.value
        items.append(item)
    items.sort(key=lambda it: (it.key, -it.value))
    return sum(table.values()) + sum(len(it.links) for it in items)


#: The time :func:`reference_task` stands for.  On the reference machine
#: (2-vCPU VM, Python 3.11) it took about 0.6 ms in the host's fast state
#: and 1.1 ms in its slow one; a round 1 ms keeps normalised times close
#: to the wall times seen there.
REFERENCE_SECONDS = 0.001


class HostSpeed:
    """How fast the shared host runs at each moment of a run.

    The benchmark's machine shares its cores with other tenants, and its
    speed moves by a third or more from one second to the next and from
    one run to another: a fixed Python loop timed in slices ranged from
    24 to 38 ms within one run, with wall and CPU time agreeing, so the
    work is not descheduled but runs slower.  :meth:`tick`, called before
    each timed stretch of work and outside its timing, times
    :func:`reference_task`; :meth:`normalise` rescales a stretch by the
    mean of the reference times just before and just after it.  A timed
    metric then reads the same whether the host was slow or fast, while a
    change to the program's own speed moves it in full: the reference
    task runs no program code.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        #: Seconds spent in :meth:`tick`, which callers leave out of the
        #: work they time.
        self.spent = 0.0

    def tick(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference_task()
            t1 = clock()
        finally:
            if enabled:
                gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += clock() - t0

    def normalise(self, seconds: float, started: float) -> float:
        """``seconds`` of work that started at ``started``, rescaled to a
        host on which the reference task takes ``REFERENCE_SECONDS``."""
        i = bisect.bisect_left(self.at, started)
        around = self.took[max(0, i - 1):i + 1]
        if not around:
            raise ValueError("no reference samples")
        return seconds * REFERENCE_SECONDS * len(around) / sum(around)

    def summary(self) -> dict[str, Any]:
        if not self.took:
            return {"samples": 0}
        return {
            "samples": len(self.took),
            "reference_p10_ms": round(percentile(self.took, 10) * 1e3, 4),
            "reference_p50_ms": round(median(self.took) * 1e3, 4),
            "reference_p90_ms": round(percentile(self.took, 90) * 1e3, 4),
        }


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: Any

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.sid, "name": self.name, "parent": self.parent,
            "unit": self.unit, "start": self.start, "end": self.end,
        }


class Tracer:
    """In-memory spans plus the counters and phase seconds gathered at the
    same boundaries.  Single-threaded: the parent of a span is the span
    open on this tracer when it starts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        #: Phase seconds read from an observer the benchmark did not install.
        self.seconds: dict[str, float] = {}
        self.unit: Any = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, unit: Any = None) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent,
                               self.unit if unit is None else unit))
        return sid

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, clock(), 0.0, parent)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid].end = clock()

    def count(self, counters: dict[str, int]) -> None:
        for name, amount in counters.items():
            self.counters[name] = self.counters.get(name, 0) + amount

    def add_seconds(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    # -- wrapping public entry points ------------------------------------------

    def patch(self, owner: Any, attr: str, name: str,
              wrapper: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper (or with
        ``wrapper(original)`` when given); :meth:`restore` undoes it."""
        original = getattr(owner, attr)
        if wrapper is None:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            replacement = traced
        else:
            replacement = wrapper(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def observed(self, original: Callable) -> Callable:
        """Wrap ``compile_program``: a span around the call, the
        ``repro.obs`` observer installed for it, and its phase events
        turned into child spans named ``phase.<name>``."""
        from repro.obs import CompileObserver, current, observe

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer = current()
            observer = CompileObserver()
            with self.span("compile_program") as sid:
                origin = clock()
                try:
                    with observe(observer):
                        return original(*args, **kwargs)
                finally:
                    self._add_phases(observer, origin, sid)
                    self.count(observer.counters)
                    if outer is not None:
                        # Hand the counts on to the caller's own observer
                        # (a fuzz case or a batch compile) unchanged.
                        for key, amount in observer.counters.items():
                            outer.count(key, amount)
        return traced

    def _add_phases(self, observer: Any, origin: float, parent: int) -> None:
        events = sorted(observer.events, key=lambda e: (e.at, -e.seconds))
        open_: list[tuple[float, int]] = []
        for event in events:
            start = origin + event.at
            end = start + event.seconds
            while open_ and open_[-1][0] <= start:
                open_.pop()
            sid = self.add(f"phase.{event.name}", start, end,
                           open_[-1][1] if open_ else parent)
            open_.append((end, sid))

    # -- analysis --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time by span name: each span's duration minus the time
        its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span in self.spans:
            own = max(0.0, span.end - span.start - child_time[span.sid])
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def total_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end - span.start
            )
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": [span.to_dict() for span in self.spans],
                 "counters": self.counters},
                handle,
            )
