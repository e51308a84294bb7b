"""Tasks (processes) and their lifecycle.

A :class:`Task` is the simulator's ``task_struct``: pid, parent/children
links, its ``MMStruct``, exit state, and the per-process On-demand-fork
opt-in the paper exposes through procfs (§4 "Flexibility") — when
``odfork_default`` is set, plain ``fork()`` calls transparently take the
on-demand path, providing full application transparency.
"""

from __future__ import annotations

from ..errors import ProcessError

STATE_RUNNING = "running"
STATE_ZOMBIE = "zombie"
STATE_DEAD = "dead"


class Task:
    """One simulated process."""

    def __init__(self, pid, mm, parent=None, name=""):
        self.pid = pid
        self.mm = mm
        self.parent = parent
        self.name = name or f"task-{pid}"
        self.children = []
        self.state = STATE_RUNNING
        self.exit_code = None
        # procfs-style knob: /proc/<pid>/odfork_enabled in the paper's
        # implementation.  Inherited across fork.
        self.odfork_default = False
        # vfork protocol state: a parent suspended by vfork refuses to run
        # until the child execs or exits; the child records its parent.
        self.vfork_blocked = False
        self.vfork_parent = None
        # Bookkeeping mirrored from Redis's `latest_fork_usec` and similar
        # application-visible metrics.
        self.last_fork_ns = None

    @property
    def alive(self):
        """Whether the task is running (not zombie/dead)."""
        return self.state == STATE_RUNNING

    def require_alive(self):
        """Raise unless the task may run (alive, not vfork-blocked)."""
        if not self.alive:
            raise ProcessError(f"{self.name} (pid {self.pid}) is {self.state}")
        if self.vfork_blocked:
            raise ProcessError(
                f"{self.name} (pid {self.pid}) is suspended in vfork"
            )

    def adopt(self, child):
        """Record a new child task."""
        self.children.append(child)

    def reap_ready_child(self, pid=None):
        """Return a zombie child matching ``pid`` (or any), else ``None``."""
        for child in self.children:
            if child.state != STATE_ZOMBIE:
                continue
            if pid is None or child.pid == pid:
                return child
        return None

    def __repr__(self):
        return f"Task(pid={self.pid}, name={self.name!r}, state={self.state})"
