"""Layer spans from outside the program: wrappers around entry points.

The tracer replaces each entry point listed in :data:`ENTRY_POINTS` with
a wrapper that times the call on the host and, where a kernel or machine
is reachable from the arguments, on the virtual clock.  Host time is
process CPU time (``process_time_ns``), the clock the worker times its
blocks with, so that time spent descheduled counts in neither.
It never touches ``repro.trace.points``: attaching that tracer makes
``fast_path_ok`` bail, so the traced run would measure a different code
path than the untraced one.

Self time is a span's duration minus the time its child spans cover, so
the per-layer ``self_s`` values add up to (at most) the traced time.
Every call is counted and timed; only the first :data:`SPAN_LIMIT` calls
of each entry point are kept as span records for the Chrome/Perfetto
file, so entry points called hundreds of thousands of times
(``Nic.transfer``, ``Walker.translate``) contribute a count and summed
time beyond that.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import NamedTuple, Optional, Tuple

#: Span records kept per entry point; later calls are counted and timed
#: but not recorded individually (keeps a trace file near 10 MB).
SPAN_LIMIT = 5_000

_KCLOCK = (0, "cost", "clock")              # fn(kernel, ...)
_SELF_KCLOCK = (0, "kernel", "cost", "clock")   # method of an object with .kernel
_SELF_MCLOCK = (0, "machine", "cost", "clock")  # method of an object with .machine


class Entry(NamedTuple):
    """One wrapped entry point."""

    layer: str
    target: str                      # "module:function" or "module:Class.method"
    clock: Optional[Tuple] = None    # (arg index, attr, ...) -> SimClock
    hook: Optional[str] = None       # name in _HOOKS
    op: bool = False                 # each call is one workload op


ENTRY_POINTS = (
    Entry("kernel.fork", "repro.kernel.kernel:Kernel.sys_fork", _KCLOCK),
    Entry("kernel.fork", "repro.kernel.fork:copy_mm_classic", _KCLOCK),
    Entry("kernel.odfork", "repro.kernel.kernel:Kernel.sys_odfork", _KCLOCK),
    Entry("kernel.odfork", "repro.kernel.odfork:copy_mm_odf", _KCLOCK),
    Entry("kernel.exit", "repro.kernel.kernel:Kernel.sys_exit", _KCLOCK),
    Entry("kernel.exit", "repro.kernel.kernel:Kernel.sys_wait", _KCLOCK),
    Entry("kernel.exit", "repro.kernel.teardown:exit_mmap", _KCLOCK),
    Entry("kernel.exit", "repro.kernel.teardown:zap_range", _KCLOCK),
    Entry("kernel.fastpath", "repro.kernel.fastpath:fast_copy_mm_classic",
          _KCLOCK, hook="fastpath.fork"),
    Entry("kernel.fastpath",
          "repro.kernel.fastpath:fast_exit_release_pmd_table",
          _KCLOCK, hook="fastpath.exit"),
    Entry("kernel.fault", "repro.kernel.fault:FaultHandler.handle",
          _SELF_KCLOCK),
    Entry("kernel.fault", "repro.kernel.fault:swap_in_entry", _KCLOCK),
    Entry("kernel.bulkops", "repro.kernel.bulkops:access_range", _KCLOCK),
    Entry("kernel.bulkops", "repro.kernel.bulkops:populate_range", _KCLOCK),
    Entry("kernel.rmap", "repro.kernel.rmap:rmap_add", _KCLOCK,
          hook="rmap.one"),
    Entry("kernel.rmap", "repro.kernel.rmap:rmap_remove", _KCLOCK,
          hook="rmap.one"),
    Entry("kernel.rmap", "repro.kernel.rmap:rmap_move", _KCLOCK,
          hook="rmap.one"),
    Entry("kernel.rmap", "repro.kernel.rmap:rmap_add_bulk", _KCLOCK,
          hook="rmap.bulk"),
    Entry("kernel.rmap", "repro.kernel.rmap:rmap_remove_bulk", _KCLOCK,
          hook="rmap.bulk"),
    Entry("kernel.rmap", "repro.kernel.rmap:test_and_clear_referenced",
          _KCLOCK),
    Entry("kernel.rmap", "repro.kernel.rmap:try_to_unmap", _KCLOCK,
          hook="rmap.unmap"),
    Entry("kernel.reclaim", "repro.kernel.reclaim:ReclaimState.shrink",
          _SELF_KCLOCK),
    Entry("kernel.reclaim", "repro.kernel.reclaim:ReclaimState.balance",
          _SELF_KCLOCK),
    Entry("kernel.snapshot", "repro.kernel.snapshot:Snapshot.create",
          (1, "cost", "clock")),
    Entry("kernel.snapshot", "repro.kernel.snapshot:Snapshot.restore",
          _SELF_KCLOCK),
    Entry("kernel.snapshot", "repro.kernel.snapshot:Snapshot.discard",
          _SELF_KCLOCK),
    Entry("mem.buddy", "repro.mem.buddy:BuddyAllocator.alloc", hook="buddy"),
    Entry("mem.buddy", "repro.mem.buddy:BuddyAllocator.free", hook="buddy"),
    Entry("mem.buddy", "repro.mem.buddy:BuddyAllocator.alloc_bulk",
          hook="buddy"),
    Entry("mem.buddy", "repro.mem.buddy:BuddyAllocator.free_bulk",
          hook="buddy"),
    Entry("mem.swap", "repro.kernel.kernel:Kernel.swap_dup", _KCLOCK),
    Entry("mem.swap", "repro.kernel.kernel:Kernel.swap_put", _KCLOCK),
    Entry("mem.swap", "repro.kernel.kernel:Kernel.swap_dup_entries", _KCLOCK),
    Entry("mem.swap", "repro.kernel.kernel:Kernel.swap_put_entries", _KCLOCK),
    Entry("mem.swap", "repro.mem.swap:SwapDevice.alloc_slot"),
    Entry("mem.swap", "repro.mem.swap:SwapDevice.write"),
    Entry("mem.swap", "repro.mem.swap:SwapDevice.read"),
    Entry("paging.walk", "repro.paging.walk:Walker.translate"),
    Entry("paging.walk", "repro.kernel.kernel:Kernel.mem_touch", _KCLOCK),
    Entry("paging.walk", "repro.kernel.kernel:Kernel.mem_write", _KCLOCK),
    Entry("paging.walk", "repro.kernel.kernel:Kernel.mem_read", _KCLOCK),
    Entry("faas", "repro.faas.invoker:Invoker.run"),
    Entry("faas", "repro.faas.invoker:Invoker.deploy"),
    Entry("faas", "repro.faas.invoker:Invoker.shutdown"),
    Entry("faas", "repro.faas.image:Template.invoke_cold", _SELF_MCLOCK,
          op=True),
    Entry("faas", "repro.faas.image:Template.invoke_warm", _SELF_MCLOCK,
          op=True),
    Entry("faas", "repro.faas.image:Template.reset", _SELF_MCLOCK),
    Entry("faas", "repro.faas.image:Template.reap_due", _SELF_MCLOCK),
    Entry("cluster", "repro.cluster.fleet:Fleet.run"),
    Entry("cluster", "repro.cluster.fleet:Fleet.shutdown"),
    Entry("cluster", "repro.cluster.gateway:Gateway.route"),
    Entry("cluster", "repro.cluster.gateway:Gateway.admit"),
    Entry("cluster", "repro.cluster.gateway:Gateway.inbound"),
    Entry("cluster", "repro.cluster.gateway:Gateway.outbound"),
    Entry("cluster", "repro.cluster.net:Nic.transfer"),
    Entry("cluster", "repro.cluster.coordinator:SnapshotCoordinator.pump"),
    Entry("cluster", "repro.cluster.replica:Replica.serve", _SELF_MCLOCK,
          op=True),
    Entry("cluster", "repro.cluster.replica:Replica.snapshot", _SELF_MCLOCK),
    Entry("smp", "repro.smp.sched:Scheduler.run", (0, "machine", "clock")),
)

#: Layer names in report order.
LAYERS = tuple(dict.fromkeys(e.layer for e in ENTRY_POINTS))
#: Layers with at least one virtual-clock entry point (they report virt_ms).
CLOCKED_LAYERS = tuple(dict.fromkeys(
    e.layer for e in ENTRY_POINTS if e.clock is not None))
#: Counters the hooks below produce (reported as 0 when never hit).
HOOK_COUNTERS = (
    "kernel.fastpath.fork_engaged", "kernel.fastpath.fork_bailed",
    "kernel.fastpath.exit_engaged", "kernel.fastpath.exit_bailed",
    "kernel.rmap.pages", "kernel.rmap.unmaps",
    "mem.buddy.frames_alloc", "mem.buddy.frames_free",
)


def _hook_fastpath(prefix):
    def hook(counts, args, result, _pre):
        counts[prefix + ("_engaged" if result else "_bailed")] += 1
    return hook


def _hook_rmap_one(counts, args, _result, _pre):
    if args[0].rmap is not None:
        counts["kernel.rmap.pages"] += 1


def _hook_rmap_bulk(counts, args, _result, _pre):
    if args[0].rmap is not None:
        counts["kernel.rmap.pages"] += len(args[1])


def _hook_rmap_unmap(counts, _args, _result, _pre):
    counts["kernel.rmap.unmaps"] += 1


def _hook_buddy(counts, args, _result, pre):
    # Net change of the allocator's free count: exact for every path,
    # coalescing included, without reading allocator internals.
    delta = args[0].free_frames - pre
    if delta < 0:
        counts["mem.buddy.frames_alloc"] -= delta
    else:
        counts["mem.buddy.frames_free"] += delta


_HOOKS = {
    "fastpath.fork": (None, _hook_fastpath("kernel.fastpath.fork")),
    "fastpath.exit": (None, _hook_fastpath("kernel.fastpath.exit")),
    "rmap.one": (None, _hook_rmap_one),
    "rmap.bulk": (None, _hook_rmap_bulk),
    "rmap.unmap": (None, _hook_rmap_unmap),
    "buddy": (lambda args: args[0].free_frames, _hook_buddy),
}


def _resolve_target(target):
    """``(owner, attribute, raw object)`` for an entry-point target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = vars(owner)[attr] if outer else getattr(owner, attr)
    return owner, attr, raw


def _clock_getter(path):
    if path is None:
        return None
    index, *attrs = path

    def get(args):
        obj = args[index]
        for attr in attrs:
            obj = getattr(obj, attr)
        return obj
    return get


class Tracer:
    """Spans and per-entry totals for one traced worker run.

    Usage: ``install()`` once, ``resume()``/``pause()`` around the timed
    regions, ``uninstall()`` at the end (restores every original).
    """

    def __init__(self):
        self.entries = ENTRY_POINTS
        self.active = False
        self.op = 0
        self._next_op = 0
        n = len(self.entries)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.virt_ns = [0] * n
        self.counts = Counter(dict.fromkeys(HOOK_COUNTERS, 0))
        self.spans = []
        self._stack = []
        self._undo = []

    # ---- lifecycle ---------------------------------------------------------

    def install(self):
        """Wrap every entry point and rebind it wherever ``repro`` holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for index, entry in enumerate(self.entries):
            owner, attr, raw = _resolve_target(entry.target)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, index))
                else:
                    wrapped = self._wrap(raw, index)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
            else:
                self._rebind(raw, self._wrap(raw, index))

    def _rebind(self, original, wrapped):
        """Point every ``repro`` module global that holds ``original`` at
        ``wrapped``: functions imported by name live in many modules."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.active = False

    def resume(self):
        self.active = True

    def pause(self):
        self.active = False

    def next_op(self):
        """Start a new workload op; later spans carry its id."""
        self._next_op += 1
        self.op = self._next_op

    # ---- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, index):
        entry = self.entries[index]
        tracer = self
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        virt_ns = self.virt_ns
        counts = self.counts
        get_clock = _clock_getter(entry.clock)
        pre_hook, post_hook = _HOOKS[entry.hook] if entry.hook else (None, None)
        is_op = entry.op
        now = time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            clock = get_clock(args) if get_clock is not None else None
            v0 = clock.now_ns if clock is not None else None
            pre = pre_hook(args) if pre_hook is not None else None
            outer_op = tracer.op
            if is_op:
                tracer.next_op()
            op = tracer.op
            calls[index] += 1
            parent = stack[-1] if stack else None
            parent_sid = parent[3] if parent is not None else -1
            recorded = calls[index] <= SPAN_LIMIT
            if recorded:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent_sid     # children attach to the nearest record
            # frame: [child host ns, child virtual ns, clock, span id]
            frame = [0, 0, clock, sid]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                self_ns[index] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                v1 = None
                if clock is not None:
                    v1 = clock.now_ns
                    vdur = v1 - v0
                    virt_ns[index] += vdur - frame[1]
                    if parent is not None and parent[2] is clock:
                        parent[1] += vdur
                if recorded:
                    spans[sid] = (index, t0, t1, parent_sid, op, v0, v1)
                tracer.op = outer_op
            if post_hook is not None:
                post_hook(counts, args, result, pre)
            return result

        return wrapper

    # ---- reports -----------------------------------------------------------------

    def layer_metrics(self):
        """``<layer>.calls``/``.self_s``/``.virt_ms`` plus hook counters."""
        out = {}
        for layer in LAYERS:
            idx = [i for i, e in enumerate(self.entries) if e.layer == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in idx)
            out[f"{layer}.self_s"] = sum(self.self_ns[i] for i in idx) / 1e9
            if layer in CLOCKED_LAYERS:
                out[f"{layer}.virt_ms"] = sum(self.virt_ns[i]
                                              for i in idx) / 1e6
        out.update(self.counts)
        return out

    def entry_totals(self):
        """Per entry point: calls, host self seconds, virtual self ms."""
        return {
            e.target: {"layer": e.layer, "calls": self.calls[i],
                       "self_s": self.self_ns[i] / 1e9,
                       "virt_ms": self.virt_ns[i] / 1e6}
            for i, e in enumerate(self.entries) if self.calls[i]
        }

    def chrome_trace(self, title):
        """The recorded spans as a Chrome/Perfetto JSON object."""
        # Span slots are taken at entry, so the first span started first.
        base = self.spans[0][1] if self.spans else 0
        events = [{"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
                   "args": {"name": title}},
                  {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                   "args": {"name": "host (process CPU time)"}}]
        for sid, (index, t0, t1, parent, op, v0, v1) in enumerate(self.spans):
            entry = self.entries[index]
            args = {"id": sid, "parent": parent, "op": op}
            if v0 is not None:
                args["virt_start_ns"] = v0
                args["virt_end_ns"] = v1
            events.append({
                "name": entry.target.split(":")[1], "cat": entry.layer,
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": {"entry_totals": self.entry_totals(),
                              "span_limit": SPAN_LIMIT}}
