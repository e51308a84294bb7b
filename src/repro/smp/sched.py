"""Deterministic cooperative SMP scheduler over virtual CPUs.

Tasks are Python generators that perform real kernel work between
yields.  Every yield is a scheduling point; a task yields one of three
event objects:

``Acquire(lock, mode)``
    Block until the lock is granted.  Uncontended acquisition charges
    the fast-path cost; a contended one parks the task on the lock's
    FIFO queue, and the eventual grant advances the waiter's vCPU clock
    to the releaser's time (the queueing delay) plus a handoff charge.

``Release(lock)``
    Drop the lock, handing it to queued waiters in FIFO order.

``Preempt(tag)``
    A pure scheduling point (fault entry, per-2MiB copy boundary...).
    Holding a page-table spinlock across one raises
    :class:`~repro.smp.locks.LockOrderError`.

The scheduler multiplexes tasks over :class:`~repro.smp.vcpu.VCPU`
instances (round-robin placement at spawn, overridable).  While a task
runs, the machine's ``CostModel`` and ``Kernel`` clocks are swapped to
the task's vCPU clock, so all existing ``charge_*`` calls land on the
right CPU without any changes to kernel code.  Which ready task runs
next is decided by a pluggable, seedable policy — the basis of the
interleaving explorer in :mod:`repro.smp.explore`.

Emergent contention: tasks bracket their fork copy loops with
``phase_enter``/``phase_exit``; the live count is installed as the cost
model's ``contention_source``, so the struct-page cacheline multiplier
of §2.1 is driven by how many vCPUs are *actually* in the copy loop at
charge time instead of the fitted ``contention_level``.
"""

from __future__ import annotations

import random

from ..errors import KernelBug
from ..trace import points
from .locks import (
    DeadlockError,
    LockOrderError,
    MMapLock,
    MODE_WRITE,
    PTLock,
    QuiescenceError,
    check_lock_order,
)
from .vcpu import VCPU

STATE_READY = "ready"
STATE_BLOCKED = "blocked"
STATE_DONE = "done"


class Acquire:
    """Yielded by a task to block until ``lock`` is granted."""

    __slots__ = ("lock", "mode")

    def __init__(self, lock, mode=MODE_WRITE):
        self.lock = lock
        self.mode = mode

    def __repr__(self):
        return f"Acquire({self.lock!r}, {self.mode!r})"


class Release:
    """Yielded by a task to drop ``lock``."""

    __slots__ = ("lock",)

    def __init__(self, lock):
        self.lock = lock

    def __repr__(self):
        return f"Release({self.lock!r})"


class Preempt:
    """Yielded by a task at a pure scheduling point (``tag`` labels it)."""

    __slots__ = ("tag",)

    def __init__(self, tag=""):
        self.tag = tag

    def __repr__(self):
        return f"Preempt({self.tag!r})"


class SimTask:
    """One schedulable generator bound to a vCPU."""

    def __init__(self, tid, name, gen, vcpu, mm=None):
        self.tid = tid
        self.name = name
        self.gen = gen
        self.vcpu = vcpu
        self.mm = mm
        self.state = STATE_READY
        self.held = []                # locks currently held, acquire order
        self.blocked_on = None
        self.blocked_at_ns = 0
        self.result = None
        self.steps = 0

    def __repr__(self):
        return f"SimTask({self.tid}:{self.name}, {self.state}, cpu{self.vcpu.id})"


class FairPolicy:
    """Lowest-vCPU-clock-first: approximates truly parallel execution."""

    def pick(self, sched, ready):
        return min(ready, key=lambda t: (t.vcpu.clock.now_ns, t.vcpu.id, t.tid))


class RandomPolicy:
    """Seeded uniformly-random choice among ready tasks, with a trace."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.trace = []               # [(n_ready, chosen tid)]

    def pick(self, sched, ready):
        ready = sorted(ready, key=lambda t: t.tid)
        idx = self.rng.randrange(len(ready)) if len(ready) > 1 else 0
        self.trace.append((len(ready), ready[idx].tid))
        return ready[idx]


class ScriptedPolicy:
    """Replay / enumeration policy: follow ``script`` indices, then run 0.

    Records the branching factor and the concrete choice at every step so
    the explorer can both detect untaken siblings and replay a schedule
    exactly.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.pos = 0
        self.trace = []               # [(n_ready, chosen tid)]
        self.choices = []             # concrete index chosen at each step
        self.branchpoints = []        # n_ready at each step

    def pick(self, sched, ready):
        ready = sorted(ready, key=lambda t: t.tid)
        want = self.script[self.pos] if self.pos < len(self.script) else 0
        self.pos += 1
        idx = min(want, len(ready) - 1)
        self.branchpoints.append(len(ready))
        self.choices.append(idx)
        self.trace.append((len(ready), ready[idx].tid))
        return ready[idx]


class Scheduler:
    """Cooperative scheduler over ``n_cpus`` virtual CPUs.

    Created by ``Machine(smp=N)`` and reachable as ``machine.smp`` /
    ``kernel.smp``.  Spawn generator tasks with :meth:`spawn`, then drive
    them to completion with :meth:`run`.  Multiple spawn/run rounds are
    fine; vCPU clocks are synchronised with the machine's boot clock at
    the start and end of every run.
    """

    def __init__(self, machine, n_cpus=2, seed=0):
        if n_cpus < 1:
            raise KernelBug("Scheduler needs at least one vCPU")
        self.machine = machine
        self.n_cpus = n_cpus
        numa = getattr(machine, "numa", None)
        self.vcpus = [
            VCPU(i, node=numa.node_of_cpu(i, n_cpus) if numa else 0)
            for i in range(n_cpus)
        ]
        self.seed = seed
        #: Spawned tasks; a task leaves the list when it finishes cleanly
        #: (its result stays with the caller's handle).
        self.tasks = []
        self.current = None
        self.running = False
        self.copy_phase = 0           # tasks inside the fork copy loop
        self.ipis_in_flight = 0       # always drains to 0 (sync IPI model)
        self.steps = 0
        self.lock_wait_ns = 0
        self.lock_waits = 0
        self._next_tid = 1
        self._rr = 0
        self._mmap_locks = {}         # id(mm) -> MMapLock
        self._pt_locks = {}           # table pfn -> PTLock

    # ---- lock registry ----------------------------------------------------

    def mmap_lock(self, mm):
        """The (singleton) ``mmap_lock`` for ``mm``."""
        lock = self._mmap_locks.get(id(mm))
        if lock is None:
            lock = self._mmap_locks[id(mm)] = MMapLock(mm)
        return lock

    def pt_lock(self, table_pfn):
        """The (singleton) split page-table lock for table frame ``pfn``."""
        key = int(table_pfn)
        lock = self._pt_locks.get(key)
        if lock is None:
            lock = self._pt_locks[key] = PTLock(key)
        return lock

    # ---- task management --------------------------------------------------

    def spawn(self, name, gen, mm=None, vcpu=None):
        """Register a generator task; round-robin vCPU placement by default."""
        if vcpu is None:
            cpu = self.vcpus[self._rr % self.n_cpus]
            self._rr += 1
        else:
            cpu = self.vcpus[vcpu]
        task = SimTask(self._next_tid, name, gen, cpu, mm=mm)
        self._next_tid += 1
        self.tasks.append(task)
        return task

    def now_ns(self):
        """Virtual time of the current vCPU (boot clock outside a run)."""
        if self.running and self.current is not None:
            return self.current.vcpu.clock.now_ns
        return self.machine.clock.now_ns

    # ---- emergent contention ---------------------------------------------

    def phase_enter(self):
        """A task entered the struct-page-hammering fork copy loop."""
        self.copy_phase += 1

    def phase_exit(self):
        self.copy_phase -= 1
        if self.copy_phase < 0:
            raise KernelBug("unbalanced copy-phase exit")

    def contention_level(self):
        """Emergent k for the alpha cacheline model (≥1)."""
        return max(1, self.copy_phase)

    # ---- IPI delivery (called by the TLB shootdown engine) ----------------

    def deliver_ipis(self, targets, flush):
        """Synchronously IPI ``targets``; ``flush(tlb)`` invalidates each.

        The sender charges the send cost on its own clock; each target is
        dragged forward to the send time (it must stop and service the
        interrupt), charges the handler cost, and the sender then waits
        for the last ack.
        """
        cost = self.machine.cost
        sender = self.current.vcpu if self.current is not None else None
        cost.charge_ipi_send(len(targets))
        self.ipis_in_flight += len(targets)
        send_ns = sender.clock.now_ns if sender is not None else 0
        ack_ns = send_ns
        prev_clock = cost.clock
        try:
            for vcpu in targets:
                vcpu.clock.advance_to(send_ns)
                cost.clock = vcpu.clock
                cost.charge_ipi_handle()
                flush(vcpu.tlb)
                vcpu.ipis_received += 1
                self.ipis_in_flight -= 1
                ack_ns = max(ack_ns, vcpu.clock.now_ns)
        finally:
            cost.clock = prev_clock
        if sender is not None:
            sender.clock.advance_to(ack_ns)
        self.machine.kernel.stats.ipis_sent += len(targets)

    # ---- the run loop -----------------------------------------------------

    def run(self, policy=None, max_steps=1_000_000):
        """Drive all spawned tasks to completion under ``policy``.

        Returns the list of tasks that completed during this run.  Raises
        :class:`DeadlockError` when blocked tasks remain but none is
        ready, and propagates any exception a task raises (including
        :class:`~repro.smp.locks.LockOrderError` from the checker).
        """
        if self.running:
            raise KernelBug("Scheduler.run is not reentrant")
        policy = policy or FairPolicy()
        machine = self.machine
        kernel = machine.kernel
        cost = machine.cost
        boot_clock = machine.clock
        for vcpu in self.vcpus:
            vcpu.clock.advance_to(boot_clock.now_ns)
        started = [t for t in self.tasks if t.state != STATE_DONE]
        prev_source = cost.contention_source
        self.running = True
        cost.contention_source = self.contention_level
        try:
            while True:
                ready = [t for t in self.tasks if t.state == STATE_READY]
                if not ready:
                    blocked = [t for t in self.tasks
                               if t.state == STATE_BLOCKED]
                    if blocked:
                        raise DeadlockError(
                            "all runnable tasks are blocked: "
                            + ", ".join(f"{t.name} on {t.blocked_on!r}"
                                        for t in blocked))
                    break
                self.steps += 1
                if self.steps > max_steps:
                    raise KernelBug(f"scheduler exceeded {max_steps} steps")
                task = policy.pick(self, ready)
                self._resume(task)
        finally:
            self.running = False
            self.current = None
            cost.contention_source = prev_source
            cost.clock = boot_clock
            kernel.clock = boot_clock
            boot_clock.advance_to(max(v.clock.now_ns for v in self.vcpus))
        return [t for t in started if t.state == STATE_DONE]

    def _resume(self, task):
        vcpu = task.vcpu
        cost = self.machine.cost
        cost.clock = vcpu.clock
        self.machine.kernel.clock = vcpu.clock
        if vcpu.current is not task:
            if vcpu.current is not None:
                cost.charge_ctx_switch()
            vcpu.current = task
            vcpu.ctx_switches += 1
        self.current = task
        task.steps += 1
        try:
            event = next(task.gen)
        except StopIteration as stop:
            task.state = STATE_DONE
            task.result = stop.value
            vcpu.current = None
            if task.held:
                raise LockOrderError(
                    f"task {task.name} finished while holding "
                    + ", ".join(repr(l) for l in task.held))
            # Every policy breaks ties by tid, so dropping a finished task
            # leaves the pick order alone.
            self.tasks.remove(task)
            return
        finally:
            self.current = None
        self._handle_event(task, event)

    def _handle_event(self, task, event):
        if isinstance(event, Acquire):
            check_lock_order(task, event.lock)
            lock = event.lock
            if lock.rank == 0:
                self.machine.cost.charge_mmap_lock()
            else:
                self.machine.cost.charge_pt_lock()
            contended = not lock.try_acquire(task, event.mode)
            if contended:
                task.state = STATE_BLOCKED
                task.blocked_on = lock
                task.blocked_at_ns = task.vcpu.clock.now_ns
            else:
                task.held.append(lock)
            if points.enabled:
                points.tracepoint(
                    "lock.acquire",
                    kind="mmap" if lock.rank == 0 else "pt",
                    contended=contended, cpu=task.vcpu.id)
        elif isinstance(event, Release):
            lock = event.lock
            granted = lock.release(task)
            task.held.remove(lock)
            release_ns = task.vcpu.clock.now_ns
            for waiter in granted:
                self._grant_to_waiter(waiter, lock, release_ns)
        elif isinstance(event, Preempt):
            for held in task.held:
                if held.rank > 0:
                    raise LockOrderError(
                        f"task {task.name} holds spinlock {held!r} across "
                        f"preemption point {event.tag!r}")
        else:
            raise KernelBug(f"task {task.name} yielded {event!r}; expected "
                            f"Acquire/Release/Preempt")

    def _grant_to_waiter(self, waiter, lock, release_ns):
        """Handoff: the waiter's CPU spun/slept until the release time."""
        waited = max(0, release_ns - waiter.blocked_at_ns)
        lock.wait_ns_total += waited
        self.lock_wait_ns += waited
        self.lock_waits += 1
        waiter.vcpu.clock.advance_to(release_ns)
        self._charge_on(waiter.vcpu, "charge_lock_wakeup")
        waiter.held.append(lock)
        waiter.state = STATE_READY
        waiter.blocked_on = None
        if points.enabled:
            points.tracepoint("lock.wait", dur_ns=waited,
                              kind="mmap" if lock.rank == 0 else "pt",
                              cpu=waiter.vcpu.id)

    def _charge_on(self, vcpu, method):
        cost = self.machine.cost
        prev = cost.clock
        cost.clock = vcpu.clock
        try:
            getattr(cost, method)()
        finally:
            cost.clock = prev

    # ---- quiescence -------------------------------------------------------

    def quiescence_errors(self):
        """Invariant violations visible after a run (empty when quiescent)."""
        errors = []
        for lock in list(self._mmap_locks.values()) + list(self._pt_locks.values()):
            if lock.holders():
                errors.append(f"lock still held at teardown: {lock!r}")
            if lock.waiters:
                errors.append(f"waiters still queued at teardown: {lock!r}")
        for task in self.tasks:
            if task.state == STATE_BLOCKED:
                errors.append(f"task still blocked: {task!r} on {task.blocked_on!r}")
            if task.held:
                errors.append(f"task still holds locks: {task!r} -> {task.held}")
        if self.ipis_in_flight:
            errors.append(f"{self.ipis_in_flight} IPIs still in flight")
        if self.copy_phase:
            errors.append(f"copy phase counter not drained: {self.copy_phase}")
        if self.running:
            errors.append("scheduler still marked running")
        return errors

    def assert_quiescent(self):
        """Raise :class:`QuiescenceError` unless all locks/IPIs drained."""
        errors = self.quiescence_errors()
        if errors:
            raise QuiescenceError("; ".join(errors))
