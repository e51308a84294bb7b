"""Lock-context and ownership annotations (sparse's ``__must_hold`` family).

These decorators are **runtime no-ops**: they return the function
unchanged, tagging it with a ``__sancheck__`` attribute the static
checker (and nothing else) reads.  Keeping them inert means annotating a
hot path costs one attribute write at import time and zero per call.

Vocabulary (lock names are strings; the kernel uses ``"mmap_lock"`` for
the per-mm rwsem and ``"ptl"`` for the split per-leaf-table locks):

``@must_hold("mmap_lock")``
    Callers must already hold the lock; the checker verifies every call
    site sits in a context that holds or acquires it.  Sparse's
    ``__must_hold``.

``@acquires("mmap_lock", "ptl")``
    The function takes (and releases) the locks itself — a lock-context
    *root*.  On a single-threaded machine the "acquire" is the degenerate
    no-contention case; under SMP the generator flows yield real
    ``Acquire``/``Release`` events.  Sparse's ``__acquires``.

``@releases("ptl")``
    The function exits with the lock dropped; callers must hold it on
    entry.  Sparse's ``__releases``.

``@tlb_deferred("reason")``
    The function clears or downgrades translations but intentionally
    leaves the TLB flush to its caller (batching, as Linux's
    ``tlb_gather`` does).  The TLB-discipline rule then checks the
    *callers* flush or defer in turn.

``@releases_refs("page", "swap")``
    Calling this function releases every open reference of the given
    kinds held by the caller (e.g. ``Snapshot.discard``); the refcount
    rule treats a call as closing those pins on the paths it covers.
    The same vocabulary covers the paired *counters* the
    metrics-conservation rule tracks (``sharers``, ``table``,
    ``replica``): annotating an unwind helper with
    ``@releases_refs("table")`` tells the checker it unregisters the
    tables its caller registered.

``@charge_deferred("reason")``
    The function mutates frames or PTEs but intentionally leaves the
    virtual-clock charge to its caller (batched charging, as the
    ``charge_many`` fast paths do).  The clock-charge rule then treats
    every *call* to it as a mutation the caller must cover with a
    charge on all normal paths — the exact shape of ``@tlb_deferred``,
    for the clock instead of the TLB.

``@counters_deferred("table", "sharers", reason="...")``
    The function may raise with the named counters incremented; a
    caller-side unwind (e.g. ``_abort_fork`` tearing the half-built
    child down) restores them.  The metrics-conservation rule stops
    reporting the raise exits of the annotated function and instead
    obliges every *caller* to balance those kinds on its own exception
    paths (via a matching decrement or a ``@releases_refs`` helper).
"""

from __future__ import annotations

#: The lock names the checker knows about (anything else is a typo).
KNOWN_LOCKS = frozenset({"mmap_lock", "ptl"})
#: Reference kinds tracked by the refcount-pairing rule.
KNOWN_REF_KINDS = frozenset({"page", "swap"})
#: Paired-counter kinds tracked by the metrics-conservation rule.
KNOWN_COUNTER_KINDS = frozenset({"sharers", "table", "replica"})


def _tag(func, key, value):
    meta = getattr(func, "__sancheck__", None)
    if meta is None:
        meta = {}
        func.__sancheck__ = meta
    meta[key] = value
    return func


def _lock_decorator(key, locks):
    unknown = set(locks) - KNOWN_LOCKS
    if unknown:
        raise ValueError(f"unknown lock name(s) {sorted(unknown)}; "
                         f"known: {sorted(KNOWN_LOCKS)}")

    def decorate(func):
        return _tag(func, key, tuple(locks))

    return decorate


def must_hold(*locks):
    """Callers must hold ``locks`` at every call site."""
    return _lock_decorator("must_hold", locks)


def acquires(*locks):
    """The function takes and releases ``locks`` itself."""
    return _lock_decorator("acquires", locks)


def releases(*locks):
    """The function returns with ``locks`` dropped (entered held)."""
    return _lock_decorator("releases", locks)


def tlb_deferred(reason):
    """Clears/downgrades PTEs but defers the TLB flush to the caller."""
    if not isinstance(reason, str) or not reason:
        raise ValueError("tlb_deferred needs a non-empty reason string")

    def decorate(func):
        return _tag(func, "tlb_deferred", reason)

    return decorate


def charge_deferred(reason):
    """Mutates frames/PTEs but defers the clock charge to the caller."""
    if not isinstance(reason, str) or not reason:
        raise ValueError("charge_deferred needs a non-empty reason string")

    def decorate(func):
        return _tag(func, "charge_deferred", reason)

    return decorate


def counters_deferred(*kinds, reason):
    """May raise with ``kinds`` counters incremented; callers balance."""
    unknown = set(kinds) - KNOWN_COUNTER_KINDS
    if unknown:
        raise ValueError(f"unknown counter kind(s) {sorted(unknown)}; "
                         f"known: {sorted(KNOWN_COUNTER_KINDS)}")
    if not isinstance(reason, str) or not reason:
        raise ValueError("counters_deferred needs a non-empty reason string")

    def decorate(func):
        return _tag(func, "counters_deferred", tuple(kinds))

    return decorate


def releases_refs(*kinds):
    """Calling this closes the caller's open reference pins of ``kinds``."""
    unknown = set(kinds) - (KNOWN_REF_KINDS | KNOWN_COUNTER_KINDS)
    if unknown:
        raise ValueError(f"unknown ref kind(s) {sorted(unknown)}; known: "
                         f"{sorted(KNOWN_REF_KINDS | KNOWN_COUNTER_KINDS)}")

    def decorate(func):
        return _tag(func, "releases_refs", tuple(kinds))

    return decorate
