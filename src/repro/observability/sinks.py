"""Event sinks: where published events go.

A sink is anything with ``handle(event)``.  The stock sinks:

* :class:`RingBufferSink` — keep the last N events in memory (or all of
  them) for interactive inspection and tests.
* :class:`JsonlSink` — stream every event as one JSON line (the schema
  is ``{"event": <type>, "cycle": <cpu cycle>, ...fields}``), suitable
  for offline timeline tooling and the golden-trace tests.
* :class:`~repro.observability.report.BusCycleReporter` (in report.py)
  — aggregate bus events into a cycle-accounting table.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Protocol, TextIO

from repro.observability.events import Event


class EventSink(Protocol):
    """Anything that can receive published events."""

    def handle(self, event: Event) -> None: ...


class RingBufferSink:
    """Keeps the most recent ``capacity`` events (all events if None).

    ``predicate`` optionally filters what is kept — e.g.
    ``RingBufferSink(predicate=lambda e: isinstance(e, FlushCommitted))``.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("ring buffer capacity must be >= 1")
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._predicate = predicate
        self.seen = 0

    def handle(self, event: Event) -> None:
        if self._predicate is not None and not self._predicate(event):
            return
        self.seen += 1
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def of_kind(self, kind: str) -> List[Event]:
        """All buffered events whose type name is ``kind``."""
        return [event for event in self._events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event-type name -> number buffered."""
        histogram: Dict[str, int] = {}
        for event in self._events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return dict(sorted(histogram.items()))

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink:
    """Writes each event as one JSON line to a stream.

    ``extra`` keys (e.g. ``{"job": "fig3c-csb-1024"}``) are merged into
    every record, which lets several runs share one output file and
    still be separable.  Keys are emitted in a fixed order (``event``,
    ``cycle``, extras, then event fields) so traces diff cleanly.
    """

    def __init__(self, stream: TextIO, extra: Optional[Dict[str, object]] = None):
        self._stream = stream
        self._extra = dict(extra) if extra else None
        self.written = 0

    def handle(self, event: Event) -> None:
        document = event.to_dict()
        if self._extra is not None:
            merged = {"event": document.pop("event"), "cycle": document.pop("cycle")}
            merged.update(self._extra)
            merged.update(document)
            document = merged
        self._stream.write(json.dumps(document, separators=(",", ":")))
        self._stream.write("\n")
        self.written += 1
