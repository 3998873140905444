"""Deterministic fault injection at named engine sites.

The engine calls :func:`fire` (directly or through
:meth:`repro.resilience.deadline.Deadline.check`) at *named sites* —
``"twig.twig_stack"``, ``"keyword.slca"``, ``"server.request"`` … — and
this module decides whether a registered fault strikes there.  Faults can

* inject **latency** (``latency_s``: a real ``time.sleep``),
* raise an **exception** (``error``: an instance or a class),
* **exhaust the deadline** (``exhaust_deadline``: the site's
  :class:`~repro.resilience.deadline.Deadline` trips on its next check,
  which simulates budget exhaustion without any real waiting — the trick
  the tier-1 resilience tests use to stay fast).

``times``/``skip`` make firing deterministic ("strike the third hit
only"), and sites match exactly or by ``fnmatch`` wildcard
(``"twig.*"``).  When nothing is registered, :func:`fire` is a single
global-flag test — cheap enough to leave in hot loops.
"""

from __future__ import annotations

import fnmatch
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Fast-path flag: True iff at least one fault is registered.  Read
#: without the lock (benign race: worst case one extra locked check).
_ACTIVE = False

_LOCK = threading.Lock()


@dataclass
class Fault:
    """One registered fault.

    ``site`` is an exact site name or an ``fnmatch`` pattern.  Hits are
    counted per fault: the first ``skip`` hits pass through untouched,
    then the fault strikes at most ``times`` times (``None`` = always).
    """

    site: str
    latency_s: float = 0.0
    error: BaseException | type[BaseException] | None = None
    exhaust_deadline: bool = False
    times: int | None = None
    skip: int = 0
    #: Bookkeeping, mutated under the registry lock.
    hits: int = 0
    fired: int = 0

    def matches(self, site: str) -> bool:
        return self.site == site or fnmatch.fnmatch(site, self.site)


_FAULTS: list[Fault] = []


def install(fault: Fault) -> Fault:
    """Register ``fault`` and return it (for later :func:`remove`)."""
    global _ACTIVE
    with _LOCK:
        _FAULTS.append(fault)
        _ACTIVE = True
    return fault


def inject(site: str, **kwargs) -> Fault:
    """Shorthand: build and install a :class:`Fault` for ``site``."""
    return install(Fault(site, **kwargs))


def remove(fault: Fault) -> None:
    """Unregister ``fault`` (no-op if already gone)."""
    global _ACTIVE
    with _LOCK:
        if fault in _FAULTS:
            _FAULTS.remove(fault)
        _ACTIVE = bool(_FAULTS)


def clear() -> None:
    """Unregister every fault."""
    global _ACTIVE
    with _LOCK:
        _FAULTS.clear()
        _ACTIVE = False


def active() -> bool:
    """True iff any fault is registered (the hot-loop fast path)."""
    return _ACTIVE


@contextmanager
def injected(site: str, **kwargs):
    """Context manager: the fault exists only inside the ``with`` block."""
    fault = inject(site, **kwargs)
    try:
        yield fault
    finally:
        remove(fault)


def fire(site: str, deadline=None) -> None:
    """Run every matching registered fault at ``site``.

    ``deadline`` (when the site has one) is what ``exhaust_deadline``
    faults act on.  Latency is injected before errors so a fault can
    model "slow, then dead".
    """
    if not _ACTIVE:
        return
    struck: list[Fault] = []
    with _LOCK:
        for fault in _FAULTS:
            if not fault.matches(site):
                continue
            fault.hits += 1
            if fault.hits <= fault.skip:
                continue
            if fault.times is not None and fault.fired >= fault.times:
                continue
            fault.fired += 1
            struck.append(fault)
    for fault in struck:
        if fault.latency_s > 0:
            time.sleep(fault.latency_s)
        if fault.exhaust_deadline and deadline is not None:
            deadline.exhaust()
        if fault.error is not None:
            error = fault.error
            raise error() if isinstance(error, type) else error


#: Alias for call sites that read better as "this is a fault point".
fault_point = fire


# ----------------------------------------------------------------------
# Declarative fault specs (CLI / CI hook)
# ----------------------------------------------------------------------

#: Environment variable holding a fault spec applied at server start.
FAULT_SPEC_ENV = "LOTUSX_FAULT_SPEC"


def parse_spec(spec: str) -> list[Fault]:
    """Parse a declarative fault spec into (uninstalled) :class:`Fault`\\ s.

    Grammar: faults separated by ``;``, each ``site:opt=value,opt=value``
    with options ``error`` (message; raises ``RuntimeError``), ``latency``
    (seconds), ``exhaust`` (``1``/``true``), ``times`` and ``skip``
    (ints).  Example::

        fleet.replica.0.1:error=crash;fleet.replica.1.*:latency=0.05,times=3

    This is the CI / operator surface for deterministic fault drills —
    ``LOTUSX_FAULT_SPEC`` feeds :func:`install_from_env`.
    """
    faults = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        site, _, options = part.partition(":")
        site = site.strip()
        if not site:
            raise ValueError(f"fault spec entry without a site: {part!r}")
        kwargs: dict = {}
        for option in filter(None, (o.strip() for o in options.split(","))):
            key, _, value = option.partition("=")
            key, value = key.strip(), value.strip()
            if key == "error":
                kwargs["error"] = RuntimeError(value or "injected fault")
            elif key == "latency":
                kwargs["latency_s"] = float(value)
            elif key == "exhaust":
                kwargs["exhaust_deadline"] = value.lower() in ("", "1", "true")
            elif key in ("times", "skip"):
                kwargs[key] = int(value)
            else:
                raise ValueError(f"unknown fault option {key!r} in {part!r}")
        faults.append(Fault(site, **kwargs))
    return faults


def install_spec(spec: str) -> list[Fault]:
    """Parse ``spec`` and install every fault; returns them."""
    return [install(fault) for fault in parse_spec(spec)]


def install_from_env(variable: str = FAULT_SPEC_ENV) -> list[Fault]:
    """Install the faults declared in ``variable`` (no-op when unset).

    Called by ``lotusx serve`` and the fault-matrix CI job so a whole
    serving process can be started with deterministic injected faults.
    """
    spec = os.environ.get(variable, "")
    return install_spec(spec) if spec else []
