"""Serializable syscall traces: generation, JSON round-trip, execution.

A *trace* is a JSON document — ``{"format": 1, "seed": S, "ops": [...]}``
— whose ops range over the whole syscall surface (mmap/munmap/mprotect/
read/write/touch/fork/odfork/snapshot/restore/mremap/madvise/khugepaged/
kswapd/exit).  Ops reference trace-level ids (proc 0, region 3, snap 1),
never machine addresses or pids, so one trace replays identically on any
:class:`~repro.core.machine.Machine` configuration — that is what lets
the oracle diff an odfork machine against a classic-fork machine op by op.

Two properties are load-bearing:

* **Any subsequence of a trace is a valid trace.**  The executor skips an
  op whose referenced proc/region/snapshot does not exist (or is dead),
  so the delta-debugging shrinker can drop arbitrary ops.
* **Skip decisions are machine-independent.**  They consult only the
  executor's own bookkeeping (which ids were created/destroyed by *ok*
  outcomes), never kernel state, so paired machines always agree on what
  runs — any disagreement shows up as an outcome divergence first.

Snapshot restriction: ops that delete or move leaf tables out from under
a live snapshot (munmap/mremap/MADV_DONTNEED/khugepaged on that process)
are *skipped by the executor* while the process has a live snapshot —
this makes the restriction part of trace semantics rather than a
generator convention, which keeps shrunk subsequences valid.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ..core.machine import Machine
from ..errors import (
    BusError,
    InvalidArgumentError,
    OutOfMemoryError,
    ProcessError,
    SegmentationFault,
)
from ..kernel.kernel import MADV_DONTNEED, MADV_HUGEPAGE
from ..kernel.vma import PROT_NONE, PROT_READ, PROT_WRITE
from ..mem.page import HUGE_PAGE_SIZE, PAGE_SIZE
from ..paging.entries import (
    entry_pfn,
    is_huge,
    is_present,
    is_swap_entry,
    swap_entry_slot,
)
from ..paging.table import LEVEL_PMD, level_base
from .audit import audit_machine

TRACE_FORMAT = 1

#: Machine sizing for verify runs: small enough to be fast, large enough
#: that traces never hit *organic* memory pressure (which would make RSS
#: depend on eviction order and differ legitimately across the pair);
#: allocation-failure paths are exercised by fail points instead.
DEFAULT_MACHINE = {"phys_mb": 64, "swap_mb": 16}

#: Syscall errors are legal outcomes — caught, tagged, and compared.
#: Anything else (KernelBug, accounting assertion) is a crash finding.
_EXPECTED_ERRORS = (SegmentationFault, BusError, InvalidArgumentError,
                    OutOfMemoryError, ProcessError)

_ZERO_PAGE = bytes(PAGE_SIZE)
_ZERO_SLOT = memoryview(bytes(HUGE_PAGE_SIZE))

_PROT = {
    "rw": PROT_READ | PROT_WRITE,
    "r": PROT_READ,
    "none": PROT_NONE,
}


def make_machine(smp=None, **overrides):
    """A deterministic machine with the verify sizing defaults."""
    cfg = dict(DEFAULT_MACHINE)
    cfg.update(overrides)
    return Machine(smp=smp, **cfg)


# --------------------------------------------------------------------- #
# JSON round-trip


def save_trace(trace, path):
    """Write a trace as JSON; creates parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, indent=1) + "\n")
    return path


def load_trace(path):
    """Read a trace written by :func:`save_trace`."""
    trace = json.loads(Path(path).read_text())
    if trace.get("format") != TRACE_FORMAT:
        raise ValueError(f"unknown trace format {trace.get('format')!r}")
    return trace


# --------------------------------------------------------------------- #
# Random generation


def generate_trace(seed, n_ops=32, max_procs=4, max_regions=6):
    """A random but well-formed trace over the full op surface.

    The generator mirrors the executor's bookkeeping (assuming success),
    so generated ops almost always reference live ids — skips appear only
    in shrunk subsequences.  Every trace opens with a mapped, written
    region on the root process so forks have state to diverge over.
    """
    rng = random.Random(seed)
    ops = []
    procs = {0: {"regions": {}, "alive": True, "locked": False}}
    region_meta = {}          # rid -> huge?
    live_snaps = {}           # sid -> proc
    counters = {"region": 0, "proc": 1, "snap": 0}
    budgets = {"huge": 2, "thp": 1}

    def live():
        return [p for p in procs if procs[p]["alive"]]

    def with_regions(unlocked=False):
        return [p for p in live() if procs[p]["regions"]
                and not (unlocked and procs[p]["locked"])]

    def emit_mmap(pid, huge=False, pages=None):
        rid = counters["region"]
        counters["region"] += 1
        if pages is None:
            pages = 1 if huge else rng.randint(1, 12)
        ops.append({"op": "mmap", "proc": pid, "region": rid,
                    "pages": pages, "huge": huge})
        procs[pid]["regions"][rid] = pages
        region_meta[rid] = huge
        return rid

    def pick_region(pid, no_huge=False):
        rids = [r for r in procs[pid]["regions"]
                if not (no_huge and region_meta[r])]
        return rng.choice(rids) if rids else None

    def emit_range_op(kind, pid, rid, whole=False, **extra):
        pages = procs[pid]["regions"][rid]
        if whole or region_meta[rid]:
            lo, hi = 0, pages
        else:
            lo = rng.randrange(pages)
            hi = rng.randint(lo + 1, pages)
        ops.append({"op": kind, "proc": pid, "region": rid,
                    "lo": lo, "hi": hi, **extra})
        return lo, hi

    # Opening: state for forks to diverge over.
    r0 = emit_mmap(0)
    emit_range_op("touch", 0, r0, whole=True, write=True)
    ops.append({"op": "write", "proc": 0, "region": r0,
                "page": rng.randrange(procs[0]["regions"][r0]),
                "val": rng.randrange(1 << 32)})

    while len(ops) < n_ops:
        actions = []
        if with_regions():
            actions += [("write", 6), ("read", 4), ("touch", 2),
                        ("mprotect", 1), ("snapshot", 1)]
            if len(procs) < max_procs:
                actions += [("fork", 3), ("odfork", 1)]
        if len(region_meta) < max_regions:
            actions.append(("mmap", 3))
            if budgets["huge"]:
                actions.append(("mmap_huge", 1))
            if budgets["thp"]:
                actions.append(("thp", 1))
        if with_regions(unlocked=True):
            actions += [("munmap", 1), ("mremap", 1), ("dontneed", 1)]
        if len(live()) > 1:
            actions.append(("exit", 1))
        if live_snaps:
            actions += [("restore", 2), ("discard", 1)]
        actions.append(("kswapd", 1))

        kind = rng.choices([a for a, _ in actions],
                           [w for _, w in actions])[0]

        if kind == "mmap":
            emit_mmap(rng.choice(live()))
        elif kind == "mmap_huge":
            budgets["huge"] -= 1
            pid = rng.choice(live())
            rid = emit_mmap(pid, huge=True)
            emit_range_op("touch", pid, rid, whole=True, write=True)
        elif kind == "thp":
            # A region large enough to contain a full aligned 2 MiB slot,
            # fully populated, advised, then promoted.
            budgets["thp"] -= 1
            pid = rng.choice([p for p in live() if not procs[p]["locked"]]
                             or live())
            rid = emit_mmap(pid, pages=1024)
            emit_range_op("touch", pid, rid, whole=True, write=True)
            ops.append({"op": "madvise_hugepage", "proc": pid, "region": rid})
            ops.append({"op": "khugepaged", "proc": pid})
        elif kind == "write":
            pid = rng.choice(with_regions())
            rid = pick_region(pid)
            ops.append({"op": "write", "proc": pid, "region": rid,
                        "page": rng.randrange(procs[pid]["regions"][rid]),
                        "val": rng.randrange(1 << 32)})
        elif kind == "read":
            pid = rng.choice(with_regions())
            rid = pick_region(pid)
            ops.append({"op": "read", "proc": pid, "region": rid,
                        "page": rng.randrange(procs[pid]["regions"][rid]),
                        "val": rng.randrange(1 << 32)})
        elif kind == "touch":
            pid = rng.choice(with_regions())
            emit_range_op("touch", pid, pick_region(pid),
                          write=rng.random() < 0.7)
        elif kind == "mprotect":
            pid = rng.choice(with_regions())
            prot = rng.choices(["rw", "r", "none"], [2, 1, 1])[0]
            emit_range_op("mprotect", pid, pick_region(pid), prot=prot)
        elif kind in ("fork", "odfork"):
            pid = rng.choice(with_regions())
            child = counters["proc"]
            counters["proc"] += 1
            ops.append({"op": kind, "proc": pid, "child": child})
            procs[child] = {
                "regions": dict(procs[pid]["regions"]),
                "alive": True, "locked": False,
            }
        elif kind == "exit":
            pid = rng.choice(live())
            ops.append({"op": "exit", "proc": pid})
            procs[pid]["alive"] = False
        elif kind == "munmap":
            pid = rng.choice(with_regions(unlocked=True))
            rid = pick_region(pid)
            pages = procs[pid]["regions"][rid]
            lo, hi = emit_range_op("munmap", pid, rid)
            if lo == 0 and hi == pages:
                del procs[pid]["regions"][rid]
        elif kind == "mremap":
            pid = rng.choice(with_regions(unlocked=True))
            rid = pick_region(pid, no_huge=True)
            if rid is None:
                continue
            new_pages = rng.randint(1, 16)
            ops.append({"op": "mremap", "proc": pid, "region": rid,
                        "new_pages": new_pages})
            procs[pid]["regions"][rid] = new_pages
        elif kind == "dontneed":
            pid = rng.choice(with_regions(unlocked=True))
            emit_range_op("madvise_dontneed", pid, pick_region(pid))
        elif kind == "snapshot":
            pid = rng.choice(with_regions())
            sid = counters["snap"]
            counters["snap"] += 1
            ops.append({"op": "snapshot", "proc": pid, "snap": sid})
            live_snaps[sid] = pid
            procs[pid]["locked"] = True
        elif kind == "restore":
            sid = rng.choice(list(live_snaps))
            ops.append({"op": "restore", "snap": sid})
        elif kind == "discard":
            sid = rng.choice(list(live_snaps))
            ops.append({"op": "discard", "snap": sid})
            pid = live_snaps.pop(sid)
            if pid not in live_snaps.values():
                procs[pid]["locked"] = False
        elif kind == "kswapd":
            ops.append({"op": "kswapd"})

    return {"format": TRACE_FORMAT, "seed": seed, "ops": ops[:n_ops]}


# --------------------------------------------------------------------- #
# Execution


@dataclass
class RunResult:
    """What one executor observed running one trace."""

    outcomes: list = field(default_factory=list)
    captures: dict = field(default_factory=dict)   # op index -> state dict
    audits: dict = field(default_factory=dict)     # op index -> [errors]
    crash: tuple | None = None                     # (op index, message)


class TraceExecutor:
    """Runs a trace on one machine, recording comparable outcomes.

    ``flavor`` decides what a trace-level ``fork`` op performs: the
    ``"odfork"`` executor uses on-demand fork where the ``"classic"``
    executor uses eager copies — the differential axis.  Explicit
    ``odfork`` ops use on-demand fork on both.
    """

    #: Op kinds after which observable state is captured (machine-
    #: independent trigger: kind only, never outcome).
    CAPTURE_KINDS = frozenset({"fork", "odfork", "exit", "restore"})

    #: Ops skipped while their process has a live snapshot (they would
    #: delete or move leaf tables the snapshot indexes by identity).
    SNAP_LOCKED_KINDS = frozenset({
        "munmap", "mremap", "madvise_dontneed", "khugepaged",
    })

    def __init__(self, machine, flavor="classic"):
        if flavor not in ("classic", "odfork"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.machine = machine
        self.flavor = flavor
        self.procs = {}        # trace pid -> {process, regions, alive}
        self.snaps = {}        # trace sid -> {proc, snap, live}
        self.region_meta = {}  # trace rid -> {"huge": bool}
        root = machine.spawn_process("t0")
        self.procs[0] = {"process": root, "regions": {}, "alive": True}

    # ---- driving ---------------------------------------------------------

    def run(self, trace, capture=True, audit=True):
        """Execute every op; returns a :class:`RunResult`."""
        ops = trace["ops"]
        result = RunResult()
        for i, op in enumerate(ops):
            try:
                result.outcomes.append(self.execute(op))
            except Exception as exc:  # KernelBug / accounting assertions
                result.crash = (i, f"{type(exc).__name__}: {exc}")
                return result
            if op.get("op") in self.CAPTURE_KINDS:
                if capture:
                    result.captures[i] = self.capture_state()
                if audit:
                    result.audits[i] = self._audit()
        if capture:
            result.captures[len(ops)] = self.capture_state()
        if audit:
            result.audits[len(ops)] = self._audit()
        return result

    def execute(self, op):
        """One op; returns an outcome tuple (``("skip",)``, ``("ok", ...)``
        or ``("err", ExcName)``)."""
        handler = getattr(self, "_op_" + op.get("op", ""), None)
        if handler is None:
            return ("skip",)
        try:
            return handler(op)
        except _EXPECTED_ERRORS as exc:
            return ("err", type(exc).__name__)

    def finish(self):
        """Discard surviving snapshots and exit every live process."""
        for rec in self.snaps.values():
            if rec["live"]:
                rec["snap"].discard()
                rec["live"] = False
        for pid in sorted(self.procs, reverse=True):
            st = self.procs[pid]
            if st["alive"]:
                st["process"].exit()
                st["alive"] = False

    # ---- bookkeeping helpers --------------------------------------------

    def _live(self, pid):
        st = self.procs.get(pid)
        return st if st is not None and st["alive"] else None

    def _region(self, st, rid):
        entry = st["regions"].get(rid)
        if entry is None:
            return None
        granule = HUGE_PAGE_SIZE if self.region_meta[rid]["huge"] else PAGE_SIZE
        return entry[0], entry[1], granule

    def _snap_locked(self, pid):
        return any(rec["live"] and rec["proc"] == pid
                   for rec in self.snaps.values())

    def _range(self, op, pages):
        lo = op["lo"] % pages
        hi = max(lo + 1, min(op["hi"], pages))
        return lo, hi

    # ---- op handlers -----------------------------------------------------

    def _op_mmap(self, op):
        st = self._live(op["proc"])
        if st is None or op["region"] in self.region_meta:
            return ("skip",)
        huge = bool(op.get("huge"))
        pages = max(1, int(op["pages"]))
        if huge:
            addr = st["process"].mmap_huge(pages * HUGE_PAGE_SIZE)
        else:
            addr = st["process"].mmap(pages * PAGE_SIZE)
        self.region_meta[op["region"]] = {"huge": huge}
        st["regions"][op["region"]] = [addr, pages]
        return ("ok", addr)

    def _op_write(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec:
            return ("skip",)
        addr, pages, granule = spec
        offset = (op["val"] * 2654435761) % (granule - 8)
        st["process"].write(addr + (op["page"] % pages) * granule + offset,
                            op["val"].to_bytes(8, "little"))
        return ("ok",)

    def _op_read(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec:
            return ("skip",)
        addr, pages, granule = spec
        offset = (op["val"] * 40503) % (granule - 32)
        data = st["process"].read(
            addr + (op["page"] % pages) * granule + offset, 32)
        return ("ok", hashlib.sha256(data).hexdigest()[:12])

    def _op_touch(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec:
            return ("skip",)
        addr, pages, granule = spec
        lo, hi = self._range(op, pages)
        st["process"].touch_range(addr + lo * granule, (hi - lo) * granule,
                                  write=bool(op.get("write", True)))
        return ("ok",)

    def _op_mprotect(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec or op.get("prot") not in _PROT:
            return ("skip",)
        addr, pages, granule = spec
        lo, hi = self._range(op, pages)
        st["process"].mprotect(addr + lo * granule, (hi - lo) * granule,
                               _PROT[op["prot"]])
        return ("ok",)

    def _op_munmap(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec or self._snap_locked(op["proc"]):
            return ("skip",)
        addr, pages, granule = spec
        lo, hi = self._range(op, pages)
        st["process"].munmap(addr + lo * granule, (hi - lo) * granule)
        if lo == 0 and hi == pages:
            del st["regions"][op["region"]]
        return ("ok",)

    def _op_mremap(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec or self._snap_locked(op["proc"]):
            return ("skip",)
        addr, pages, granule = spec
        # ``old_pages`` remaps the region's head; a tail left behind drops out.
        old_pages = min(max(1, int(op.get("old_pages", pages))), pages)
        new_pages = max(1, int(op["new_pages"]))
        new_addr = st["process"].mremap(addr, old_pages * granule,
                                        new_pages * granule)
        st["regions"][op["region"]] = [new_addr, new_pages]
        return ("ok", new_addr)

    def _op_madvise_dontneed(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec or self._snap_locked(op["proc"]):
            return ("skip",)
        addr, pages, granule = spec
        lo, hi = self._range(op, pages)
        st["process"].madvise(addr + lo * granule, (hi - lo) * granule,
                              MADV_DONTNEED)
        return ("ok",)

    def _op_madvise_hugepage(self, op):
        st = self._live(op["proc"])
        spec = st and self._region(st, op["region"])
        if not spec:
            return ("skip",)
        addr, pages, granule = spec
        st["process"].madvise(addr, pages * granule, MADV_HUGEPAGE)
        return ("ok",)

    def _op_khugepaged(self, op):
        st = self._live(op["proc"])
        if st is None or self._snap_locked(op["proc"]):
            return ("skip",)
        promoted = self.machine.run_khugepaged(st["process"],
                                               max_promotions=2)
        return ("ok", promoted)

    def _op_kswapd(self, op):
        self.machine.run_kswapd()
        return ("ok",)

    def _op_fork(self, op):
        return self._fork(op, use_odf=self.flavor == "odfork")

    def _op_odfork(self, op):
        return self._fork(op, use_odf=True)

    def _fork(self, op, use_odf):
        st = self._live(op["proc"])
        if st is None or op["child"] in self.procs:
            return ("skip",)
        parent = st["process"]
        child = parent.odfork() if use_odf else parent.fork()
        self.procs[op["child"]] = {
            "process": child, "alive": True,
            "regions": {rid: list(v) for rid, v in st["regions"].items()},
        }
        return ("ok",)

    def _op_exit(self, op):
        st = self._live(op["proc"])
        if st is None:
            return ("skip",)
        st["process"].exit()
        st["alive"] = False
        return ("ok",)

    def _op_snapshot(self, op):
        st = self._live(op["proc"])
        if st is None or op["snap"] in self.snaps:
            return ("skip",)
        snap = st["process"].snapshot()
        self.snaps[op["snap"]] = {"proc": op["proc"], "snap": snap,
                                  "live": True}
        return ("ok",)

    def _op_restore(self, op):
        rec = self.snaps.get(op["snap"])
        if rec is None or not rec["live"]:
            return ("skip",)
        rec["snap"].restore()
        return ("ok",)

    def _op_discard(self, op):
        rec = self.snaps.get(op["snap"])
        if rec is None or not rec["live"]:
            return ("skip",)
        rec["snap"].discard()
        rec["live"] = False
        return ("ok",)

    # ---- observable-state capture ---------------------------------------

    def capture_state(self):
        """Digest every live process's logical memory plus RSS invariants.

        The logical view is read by a *non-mutating* page-table walk:
        absent pages read as zeros, swap entries read from the swap
        device, huge entries at their sub-frame offset — so identical
        application-visible memory hashes identically no matter how it
        is physically represented (resident, COW-shared, or swapped).
        """
        state = {"procs": {}, "pgsteal": self.machine.kernel.stats.pgsteal}
        for pid in sorted(self.procs):
            st = self.procs[pid]
            if not st["alive"]:
                continue
            regions = {}
            for rid in sorted(st["regions"]):
                addr, pages = st["regions"][rid]
                granule = (HUGE_PAGE_SIZE if self.region_meta[rid]["huge"]
                           else PAGE_SIZE)
                regions[rid] = self._region_digest(st["process"], addr,
                                                   pages * granule)
            state["procs"][pid] = {
                "regions": regions,
                "rss": st["process"].rss_bytes,
                "smaps_consistent": self._smaps_consistent(st["process"]),
            }
        return state

    def _region_digest(self, process, addr, nbytes):
        kernel = self.machine.kernel
        mm = process.mm
        digest = hashlib.sha256()
        end = addr + nbytes
        while addr < end:
            slot_end = min(level_base(addr, LEVEL_PMD) + HUGE_PAGE_SIZE, end)
            for piece in self._logical_slot(kernel, mm, addr, slot_end):
                digest.update(piece)
            addr = slot_end
        return digest.hexdigest()[:16]

    @staticmethod
    def _logical_slot(kernel, mm, lo, hi):
        """The logical bytes of the pages ``[lo, hi)`` of one 2 MiB slot,
        page by page, or all at once when the slot maps nothing."""
        walked = mm.walk_to_pmd(lo, alloc=False)
        entry = None if walked is None else walked[0].entries[walked[1]]
        if entry is None or not is_present(entry):
            yield _ZERO_SLOT[:hi - lo]
            return
        first = (lo % HUGE_PAGE_SIZE) // PAGE_SIZE
        count = (hi - lo) // PAGE_SIZE
        phys = kernel.phys
        if is_huge(entry):
            head = int(entry_pfn(entry))
            for sub in range(first, first + count):
                yield phys.read(head + sub, 0, PAGE_SIZE)
            return
        leaf = mm.resolve(int(entry_pfn(entry)))
        for pte in leaf.entries[first:first + count]:
            if is_present(pte):
                yield phys.read(int(entry_pfn(pte)), 0, PAGE_SIZE)
            elif is_swap_entry(pte):
                data = kernel.swap.read(int(swap_entry_slot(pte)))
                yield data if data is not None else _ZERO_PAGE
            else:
                yield _ZERO_PAGE

    def _smaps_consistent(self, process):
        """Internal invariant: per-VMA residency sums to the RSS."""
        resident = sum(v["rss_bytes"] for v in process.smaps())
        return resident == process.status()["vm_rss_bytes"]

    def _audit(self):
        try:
            audit_machine(self.machine)
        except AssertionError as exc:
            return [str(exc)]
        return []
