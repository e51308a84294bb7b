"""Distributed lock manager: FIFO-fair named locks over the fleet clock.

The fleet needs exactly one serialisation primitive: a **snapshot epoch**
lock, held by whichever wave (or sub-wave) of replicas is currently
forking.  Rather than simulate a consensus protocol per message, the DLM
is analytic in the markkampe style: an acquire costs a fixed round-trip
pair to the lock master (request + grant), and a busy lock queues the
request FIFO — the grant time is simply ``max(request, holder release) +
acquire cost``, chained in request order, so fairness is deterministic
and starvation impossible.

The lock-order discipline is the same one :mod:`repro.smp.locks` enforces
inside a machine, re-used at fleet scope: no recursive acquisition, and
multiple locks only in ascending name order (violations raise the same
:class:`~repro.smp.locks.LockOrderError` the SMP checker uses, so one
exception type covers both layers).

The ``dlm.acquire_timeout`` fail-point models a lock master that never
answers: ``acquire`` abandons the request at no cost and returns
``None``; the caller (the snapshot coordinator) skips that sub-wave
cleanly and its replicas snapshot at the next scheduled wave.
"""

from __future__ import annotations

from ..errors import InvalidArgumentError
from ..smp.locks import LockOrderError
from ..trace import points


class _NamedLock:
    """One lock's analytic state: who holds it and when it frees."""

    __slots__ = ("name", "holder", "free_at_ns", "grants", "queued_grants",
                 "wait_ns_total", "grant_log")

    def __init__(self, name):
        self.name = name
        self.holder = None
        self.free_at_ns = 0
        self.grants = 0
        self.queued_grants = 0
        self.wait_ns_total = 0
        self.grant_log = []     # (owner, request_ns, grant_ns) in FIFO order


class Dlm:
    """Fleet-wide named locks with FIFO grants and analytic timing."""

    def __init__(self, acquire_rtt_us=20.0, failpoints=None):
        if acquire_rtt_us < 0:
            raise InvalidArgumentError("DLM costs cannot be negative")
        self.acquire_ns = int(acquire_rtt_us * 1_000)
        self.failpoints = failpoints
        self._locks = {}
        self._held = {}          # owner -> set of lock names
        self.timeouts = 0

    def _lock(self, name):
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = _NamedLock(name)
        return lock

    # ---- client API ------------------------------------------------------

    def acquire(self, name, owner, request_ns):
        """Request ``name`` for ``owner``; returns the grant time (ns).

        A busy lock queues the request: the grant lands after the current
        holder's release, in request order (calls arrive in fleet-time
        order, so chaining off ``free_at_ns`` *is* FIFO).  Returns ``None``
        when the ``dlm.acquire_timeout`` fail-point fires — the request is
        abandoned at no cost, leaving the lock untouched, and the caller
        (the snapshot coordinator) skips that sub-wave.
        """
        held = self._held.setdefault(owner, set())
        if name in held:
            raise LockOrderError(f"recursive DLM acquire of {name!r} "
                                 f"by {owner!r}")
        for already in held:
            if already >= name:
                raise LockOrderError(
                    f"{owner!r} acquires {name!r} while holding "
                    f"{already!r} — DLM locks must be taken in ascending "
                    f"name order")
        if (self.failpoints is not None
                and self.failpoints.fails("dlm.acquire_timeout")):
            self.timeouts += 1
            return None
        lock = self._lock(name)
        queued = lock.holder is not None or lock.free_at_ns > request_ns
        grant_ns = max(request_ns, lock.free_at_ns) + self.acquire_ns
        lock.holder = owner
        lock.free_at_ns = grant_ns
        lock.grants += 1
        if queued:
            lock.queued_grants += 1
        lock.wait_ns_total += grant_ns - request_ns
        lock.grant_log.append((owner, request_ns, grant_ns))
        held.add(name)
        if points.enabled:
            points.tracepoint("dlm.acquire", dur_ns=grant_ns - request_ns,
                              lock=name, owner=owner, queued=queued)
        return grant_ns

    def release(self, name, owner, at_ns):
        """Release ``name``; later acquires queue behind ``at_ns``."""
        lock = self._locks.get(name)
        if lock is None or lock.holder != owner:
            raise LockOrderError(f"{owner!r} released DLM lock {name!r} "
                                 f"it does not hold")
        lock.holder = None
        lock.free_at_ns = max(lock.free_at_ns, at_ns)
        self._held[owner].discard(name)
        if points.enabled:
            points.tracepoint("dlm.release", lock=name, owner=owner)

    # ---- introspection ---------------------------------------------------

    def holder(self, name):
        """Current holder of ``name`` (None when free or never taken)."""
        lock = self._locks.get(name)
        return lock.holder if lock is not None else None

    def grant_order(self, name):
        """Owners in the order they were granted ``name`` (FIFO check)."""
        lock = self._locks.get(name)
        return [owner for owner, _, _ in lock.grant_log] if lock else []

    def stats(self):
        """Aggregate tallies across all named locks."""
        return {
            "locks": len(self._locks),
            "grants": sum(l.grants for l in self._locks.values()),
            "queued_grants": sum(l.queued_grants
                                 for l in self._locks.values()),
            "wait_ns_total": sum(l.wait_ns_total
                                 for l in self._locks.values()),
            "timeouts": self.timeouts,
        }
