"""Server-side admission control: a bounded concurrency gate.

At most ``capacity`` requests execute at once; up to ``max_queue`` more
may wait ``queue_timeout_s`` for a slot.  Anything beyond that is shed
immediately with :class:`~repro.resilience.errors.Overloaded` — the
server maps it to HTTP 429 + ``Retry-After`` — instead of stacking
threads until the process keels over.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.resilience.errors import Overloaded


class AdmissionGate:
    """A concurrency limiter with a small bounded wait queue."""

    def __init__(
        self,
        capacity: int = 8,
        max_queue: int = 16,
        queue_timeout_s: float = 0.5,
        retry_after_s: float = 1.0,
        clock=time.monotonic,
        site: str = "server.admission",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.capacity = capacity
        self.max_queue = max_queue
        self.queue_timeout_s = queue_timeout_s
        self.retry_after_s = retry_after_s
        #: Where this gate sits (``Overloaded.site`` in 429 bodies and
        #: the ``site`` field of :meth:`snapshot`) — per-tenant slice
        #: gates use ``tenant.<name>.admission`` so shed requests are
        #: attributable to the tenant that exhausted its quota.
        self.site = site
        self._clock = clock
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        #: Requests shed so far (monitoring).
        self.shed = 0

    # ------------------------------------------------------------------

    def acquire(self) -> None:
        """Take a slot, waiting briefly in the bounded queue.

        Raises
        ------
        Overloaded
            When the queue is full, or no slot freed up within
            ``queue_timeout_s``.
        """
        with self._cond:
            if self._active < self.capacity:
                self._active += 1
                return
            if self._waiting >= self.max_queue:
                self.shed += 1
                raise Overloaded(
                    "admission queue full",
                    retry_after=self.retry_after_s,
                    site=self.site,
                )
            self._waiting += 1
            give_up_at = self._clock() + self.queue_timeout_s
            try:
                while self._active >= self.capacity:
                    remaining = give_up_at - self._clock()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if self._active >= self.capacity:
                            self.shed += 1
                            raise Overloaded(
                                "timed out waiting for a server slot",
                                retry_after=self.retry_after_s,
                                site=self.site,
                            )
                self._active += 1
            finally:
                self._waiting -= 1

    def try_acquire(self) -> bool:
        """Take a slot only if one is free right now; never waits.

        False when every slot is taken or requests are already queued
        for one (a newcomer does not jump the queue).  A refusal is not
        a shed — the caller is expected to fall back to :meth:`acquire`.
        """
        with self._cond:
            if self._active < self.capacity and not self._waiting:
                self._active += 1
                return True
            return False

    def release(self) -> None:
        """Give the slot back and wake one waiter."""
        with self._cond:
            if self._active <= 0:
                raise RuntimeError("release() without a matching acquire()")
            self._active -= 1
            self._cond.notify()

    @contextmanager
    def slot(self):
        """``with gate.slot():`` — acquire around a request."""
        self.acquire()
        try:
            yield self
        finally:
            self.release()

    def resize(self, capacity: int, max_queue: int | None = None) -> None:
        """Change the gate's limits in place, keeping its counters.

        Used by the tenant registry: when tenants are added, every
        default-quota slice shrinks so the slices still partition the
        global capacity.  Requests already holding slots keep them —
        shrinking only affects future admissions — and any waiters that
        a capacity *increase* could now admit are woken.
        """
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        with self._cond:
            self.capacity = capacity
            if max_queue is not None:
                self.max_queue = max_queue
            self._cond.notify_all()

    def snapshot(self) -> dict:
        """Current gate state (monitoring / tests)."""
        with self._cond:
            return {
                "capacity": self.capacity,
                "active": self._active,
                "waiting": self._waiting,
                "max_queue": self.max_queue,
                "shed": self.shed,
                # Mirrors the ``retry_after_s``/``site`` fields of the 429
                # body (resilience.errors.Overloaded) so monitoring and
                # error payloads agree on names and units.
                "retry_after_s": self.retry_after_s,
                "site": self.site,
            }


class ConnectionGate:
    """Admission control one layer down: concurrent *connections*.

    The event-driven transport holds a connection open across many
    requests (keep-alive), so the request gate alone no longer bounds
    resource use — a crowd of idle sockets is its own overload shape.
    This gate counts live connections; once ``capacity`` are open,
    further accepts are turned away immediately (the server answers 429
    + ``Retry-After`` and closes).  Unlike :class:`AdmissionGate` there
    is no wait queue: a connection is either accepted or refused, and
    refusal is cheap enough to do at accept time on the loop thread.
    """

    def __init__(self, capacity: int = 256, retry_after_s: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._active = 0
        #: Connections refused at the cap (monitoring).
        self.refused = 0
        #: Connections dropped by the idle/slow-loris timeout.
        self.idle_dropped = 0

    def try_acquire(self) -> bool:
        """Claim a connection slot; False (and counted) at capacity."""
        with self._lock:
            if self._active >= self.capacity:
                self.refused += 1
                return False
            self._active += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise RuntimeError("release() without a matching try_acquire()")
            self._active -= 1

    def count_idle_drop(self) -> None:
        """Record a connection dropped by the idle timeout."""
        with self._lock:
            self.idle_dropped += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "active": self._active,
                "refused": self.refused,
                "idle_dropped": self.idle_dropped,
                "retry_after_s": self.retry_after_s,
                "site": "server.connections",
            }
