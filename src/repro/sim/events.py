"""Event queue and simulated clock.

A minimal discrete-event core: events are ``(time, sequence, callback)``
entries in a binary heap; the simulator pops them in time order and advances
its clock.  Sequence numbers make the order of simultaneous events
deterministic (FIFO among equal timestamps), which keeps every experiment
reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple


@dataclass(order=True)
class _QueuedEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventQueue:
    """A heap of scheduled callbacks.

    Heap entries are plain ``(time, sequence, event)`` tuples so sift
    comparisons run at C speed (the unique sequence number breaks every
    timestamp tie before the event object would be compared); the ordering is
    exactly the dataclass ordering of :class:`_QueuedEvent`.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, _QueuedEvent]] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callable[[], None]) -> _QueuedEvent:
        event = _QueuedEvent(time=time, sequence=next(self._counter), callback=callback)
        heapq.heappush(self._heap, (time, event.sequence, event))
        return event

    def pop(self) -> Optional[_QueuedEvent]:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return sum(1 for _time, _seq, event in self._heap if not event.cancelled)


class Simulator:
    """The discrete-event loop: a clock plus an :class:`EventQueue`."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()

    def schedule(self, delay: float, callback: Callable[[], None]) -> _QueuedEvent:
        """Schedule *callback* to run *delay* time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        return self.queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> _QueuedEvent:
        """Schedule *callback* at an absolute simulation time."""
        if time < self.now:
            raise ValueError("cannot schedule an event in the past")
        return self.queue.push(time, callback)

    def cancel(self, event: _QueuedEvent) -> None:
        """Cancel a previously scheduled event."""
        event.cancelled = True

    def step(self) -> bool:
        """Process one event; returns ``False`` when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.now = event.time
        event.callback()
        return True

    def run_until(self, time: float) -> None:
        """Process events until the clock passes *time* (or the queue drains)."""
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > time:
                self.now = max(self.now, time)
                return
            self.step()


class FifoServer:
    """One server in simulated time: a job waits for the work queued ahead
    of it (FIFO), then takes its service time."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.busy_until = 0.0

    def serve(self, service: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` when this job is served (at once if now)."""
        now = self.simulator.now
        finish = max(now, self.busy_until) + service
        self.busy_until = finish
        if finish <= now:
            callback(*args)
        else:
            self.simulator.schedule_at(finish, lambda: callback(*args))
