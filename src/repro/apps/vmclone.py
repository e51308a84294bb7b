"""VM cloning for kernel fuzzing: the TriforceAFL stand-in (§5.3.4).

TriforceAFL runs a guest kernel under QEMU full-system emulation and uses
AFL's fork server to clone the *emulator process* for every input, so each
execution starts from the same booted-VM state.  The model captures the
pieces that determine cloning cost:

* a QEMU-like process whose resident memory is guest RAM plus emulator
  state (the paper observes ~188 MB for its trimmed-down VM: QEMU
  allocates guest memory on demand);
* a guest syscall-fuzzing driver: each input decodes into a short sequence
  of guest "system calls" that touch guest memory (dirtying pages that
  must COW while the parent fork-server process lives) and report edge
  coverage from the emulated kernel;
* fork-per-input with child teardown, driven by the same
  :class:`~repro.apps.fuzzer.ForkServerFuzzer` loop.
"""

from __future__ import annotations

import zlib

from ..core.machine import MIB
from ..errors import InvalidArgumentError, ReproError

#: The paper's observation: the QEMU process takes ~188 MB.
PAPER_VM_RESIDENT_MB = 188
#: Guest exec cost per fuzzed input: TriforceAFL decodes the input and
#: runs guest syscalls under TCG emulation (slow).  Fitted with fork and
#: teardown costs to Figure 10's throughputs.
GUEST_EXEC_BASE_NS = 6_300_000
GUEST_SYSCALL_NS = 120_000

#: Seed inputs: (syscall-number, arg) pairs, little-endian packed.
VM_FUZZ_SEEDS = (
    bytes([1, 0, 2, 1, 3, 2]),
    bytes([4, 8, 5, 16]),
    bytes([6, 1, 1, 9, 7, 3]),
    bytes([2, 0]),
)


class GuestPanic(ReproError):
    """The emulated guest kernel hit a panic path (interesting input!)."""


class VirtualMachine:
    """A QEMU-like process holding a booted guest."""

    N_GUEST_SYSCALLS = 32

    def __init__(self, machine, guest_ram_mb=128,
                 resident_mb=PAPER_VM_RESIDENT_MB, name="qemu"):
        if resident_mb < guest_ram_mb:
            raise InvalidArgumentError("resident set must include guest RAM")
        self.machine = machine
        self.proc = machine.spawn_process(name)
        self.guest_ram_mb = guest_ram_mb
        # Guest RAM: one big anonymous mapping, demand-populated (QEMU
        # allocates on demand; the trimmed VM touches all of it at boot).
        self.guest_ram = self.proc.mmap(guest_ram_mb * MIB, name="guest-ram")
        self.proc.populate(self.guest_ram, guest_ram_mb * MIB)
        # Emulator state: TCG caches, device models, heap.
        emulator_mb = resident_mb - guest_ram_mb
        self.emulator_heap = self.proc.mmap(emulator_mb * MIB, name="qemu-heap")
        self.proc.populate(self.emulator_heap, emulator_mb * MIB)

    def run_guest_syscalls(self, proc, data, coverage_cb):
        """Decode ``data`` into guest syscalls and emulate them in ``proc``.

        ``proc`` is the fork child during fuzzing (the clone of this VM).
        Each syscall touches guest memory — dirtying pages that must COW
        while the parent lives — and reports coverage edges derived from
        the (syscall, argument) path, like TriforceAFL's QEMU tracing.
        """
        cost = self.machine.cost
        cost.charge("guest_exec", GUEST_EXEC_BASE_NS)
        if not data:
            raise GuestPanic("empty input: driver rejects")
        pairs = [(data[i], data[i + 1] if i + 1 < len(data) else 0)
                 for i in range(0, len(data), 2)]
        guest_pages = (self.guest_ram_mb * MIB) // 4096
        for nr, arg in pairs[:16]:
            syscall = nr % self.N_GUEST_SYSCALLS
            coverage_cb(zlib.crc32(bytes([syscall])) & 0xFFFF)
            coverage_cb(zlib.crc32(bytes([syscall, arg & 0x0F])) & 0xFFFF)
            cost.charge("guest_syscall", GUEST_SYSCALL_NS)
            # The guest kernel writes its structures: dirty a page whose
            # location depends on the syscall path.
            page = (syscall * 2654435761 + arg * 40503) % guest_pages
            proc.touch(self.guest_ram + page * 4096, 64, write=True)
            if syscall == 13 and arg == 0x42:
                coverage_cb(0x1337)
                raise GuestPanic("guest null-deref path")

    def fuzz_run_input(self):
        """The ForkServerFuzzer ``run_input`` callback for this VM."""
        def run_input(child_proc, data, coverage_cb):
            """Run one input's guest syscalls in the forked child."""
            self.run_guest_syscalls(child_proc, data, coverage_cb)
        return run_input


def clone_throughput_demo(machine, use_odfork, n_clones=50):
    """Plain clone-rate measurement (no fuzzing): clones per second."""
    vm = VirtualMachine(machine)
    watch = machine.stopwatch()
    for _ in range(n_clones):
        child = vm.proc.odfork() if use_odfork else vm.proc.fork()
        child.exit()
        vm.proc.wait(child.pid)
    elapsed_s = watch.elapsed_s
    return n_clones / elapsed_s if elapsed_s else float("inf")
