"""Per-request deadlines and step budgets, checked cooperatively.

A :class:`Deadline` combines a wall-clock deadline with an optional step
budget.  Engine loops call :meth:`Deadline.check` at iteration
boundaries; once either limit is exceeded the check raises
:class:`~repro.resilience.errors.DeadlineExceeded` and the request
unwinds to the nearest graceful-degradation point (``search()`` returns
the partial top-k, the server returns a typed error).

The wall clock is only consulted every :data:`CLOCK_CHECK_INTERVAL`
steps, so a check in a tight join loop costs a couple of integer
operations — cheap enough to sprinkle everywhere that matters.  Every
check is also a fault-injection point (see
:mod:`repro.resilience.faults`), which is how the resilience tests
deterministically trip timeouts without real waiting.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sized
from typing import TypeVar

from repro.resilience import faults as _faults
from repro.resilience.errors import DeadlineExceeded

#: Steps between wall-clock consultations in :meth:`Deadline.check`.
CLOCK_CHECK_INTERVAL = 64

#: Items :func:`charged` lets through between two checks.
CHARGE_EVERY = 512

_T = TypeVar("_T")


class Deadline:
    """Wall-clock deadline + step budget for one request.

    ``timeout_s=None`` means no wall-clock limit; ``max_steps=None``
    means no step budget.  With neither, checks never trip (but remain
    fault-injection points).  ``clock`` is injectable for tests.
    """

    __slots__ = (
        "clock",
        "expires_at",
        "max_steps",
        "started_at",
        "steps",
        "timeout_s",
        "tripped",
        "_countdown",
        "_forced",
    )

    def __init__(
        self,
        timeout_s: float | None = None,
        max_steps: int | None = None,
        clock=time.monotonic,
    ) -> None:
        self.clock = clock
        self.timeout_s = timeout_s
        self.started_at = clock()
        self.expires_at = None if timeout_s is None else self.started_at + timeout_s
        self.max_steps = max_steps
        self.steps = 0
        self.tripped = False
        # First check consults the clock immediately, then every interval.
        self._countdown = 1
        self._forced = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def after_ms(cls, timeout_ms: float, **kwargs) -> Deadline:
        """A deadline ``timeout_ms`` milliseconds from now."""
        return cls(timeout_s=timeout_ms / 1000.0, **kwargs)

    @classmethod
    def none(cls) -> Deadline:
        """An unlimited deadline (never trips on its own)."""
        return cls()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return self.clock() - self.started_at

    def remaining(self) -> float | None:
        """Seconds left before the wall deadline; None when unlimited."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - self.clock())

    def expired(self) -> bool:
        """True once any limit has been crossed (no raise)."""
        if self._forced or self.tripped:
            return True
        if self.max_steps is not None and self.steps > self.max_steps:
            return True
        return self.expires_at is not None and self.clock() >= self.expires_at

    def near(self, fraction: float = 0.25) -> bool:
        """True when less than ``fraction`` of the wall budget remains
        (or the deadline already expired) — the signal optional work like
        rewrite exploration uses to stand down early."""
        if self._forced or self.tripped:
            return True
        if self.max_steps is not None and self.steps > self.max_steps:
            return True
        if self.timeout_s is None:
            return False
        remaining = self.remaining()
        return remaining is not None and remaining < self.timeout_s * fraction

    # ------------------------------------------------------------------
    # The cooperative checkpoint
    # ------------------------------------------------------------------

    def check(self, site: str = "", cost: int = 1) -> None:
        """Charge ``cost`` steps and raise :class:`DeadlineExceeded` if a
        limit has been crossed.  Called at iteration boundaries; also a
        fault-injection point named ``site``."""
        if _faults.active():
            _faults.fire(site, self)
        self.steps += cost
        if self._forced or (
            self.max_steps is not None and self.steps > self.max_steps
        ):
            self._trip(site)
        if self.expires_at is not None:
            self._countdown -= cost
            if self._countdown <= 0:
                self._countdown = CLOCK_CHECK_INTERVAL
                if self.clock() >= self.expires_at:
                    self._trip(site)

    def exhaust(self) -> None:
        """Force expiry: the next :meth:`check` raises.  Used by the
        fault harness to simulate budget exhaustion deterministically."""
        self._forced = True

    def _trip(self, site: str) -> None:
        self.tripped = True
        remaining = self.remaining()
        raise DeadlineExceeded(
            site=site,
            elapsed_ms=self.elapsed() * 1000.0,
            steps=self.steps,
            remaining_ms=None if remaining is None else remaining * 1000.0,
        )

    def __repr__(self) -> str:
        limits = []
        if self.timeout_s is not None:
            limits.append(f"timeout={self.timeout_s * 1000:.0f}ms")
        if self.max_steps is not None:
            limits.append(f"max_steps={self.max_steps}")
        state = "tripped" if self.tripped else f"steps={self.steps}"
        return f"Deadline({', '.join(limits) or 'unlimited'}, {state})"


def charged(
    items: Iterable[_T], deadline: Deadline | None, site: str
) -> Iterable[_T]:
    """``items``, with each one charged to ``deadline`` as one step.

    The steps are charged in bulk — one :meth:`Deadline.check` per
    :data:`CHARGE_EVERY` items and one for the remainder when the items
    run out — so a walk over a summary pays a few checks however large
    it is, yet cannot run far past an expired deadline.  A collection of
    at most :data:`CHARGE_EVERY` items is charged up front in one check
    and returned as is; so is ``items`` without a deadline.
    """
    if deadline is None:
        return items
    if isinstance(items, Sized) and len(items) <= CHARGE_EVERY:
        if items:
            deadline.check(site, cost=len(items))
        return items
    return _charging(items, deadline, site)


def _charging(items: Iterable[_T], deadline: Deadline, site: str) -> Iterator[_T]:
    count = 0
    for item in items:
        yield item
        count += 1
        if count == CHARGE_EVERY:
            deadline.check(site, cost=count)
            count = 0
    if count:
        deadline.check(site, cost=count)
