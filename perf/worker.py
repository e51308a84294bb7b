"""One workload in one process: rounds, timers, checks, one JSON line out.

``run.py`` starts this file in a fresh single-threaded subprocess per
workload (with ``src`` on ``PYTHONPATH``); tests import
:func:`run_workload` directly.  Usage::

    python perf/worker.py WORKLOAD SEED SECONDS ROUNDS TRACE_PATH|-

Every round replays the same inputs.  The worker repeats rounds until the
measured blocks have used SECONDS of process CPU time, and runs at least
ROUNDS rounds.  Virtual results come from the first round; every later
round must reproduce them exactly.

Host time.  The machines this runs on are shared, and a fixed pure-Python
loop varies there by up to 40% in CPU time, in episodes from a fraction
of a second to minutes.  So each timed block (one cell's fill, one
campaign's run, ...) is bracketed by :func:`reference_work`, a fixed loop
that does not touch the simulator, and its CPU time is rescaled to a host
running the reference in :data:`REFERENCE_S`.  A block's host time is the
median of its rescaled times across rounds; a metric sums the blocks.  On
a 2-vCPU VM this cut the seed-to-seed spread of ``ops_per_s`` from
12-25% to 4-8%.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

from repro.verify.audit import audit_machine
from stats import latency_summary
from tracer import Tracer
from workloads import FULL, PAGE_SIZE, WORKLOADS

#: CPU seconds of one reference_work() call on the host the benchmark was
#: defined on (x86-64, 2 vCPUs, Python 3.11, numpy 2.4): the speed host
#: times are rescaled to.
REFERENCE_S = 0.0085


def reference_work():
    """A fixed slice of interpreter and small-array numpy work (~9 ms)."""
    table = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = i
        total += table.get(i >> 3, 0)
    arr = np.arange(16_384)
    for _ in range(30):
        arr = (arr * 3 + 1) % 1_000_003
    return total + int(arr[0])


def reference_cpu():
    cpu0 = time.process_time()
    reference_work()
    return time.process_time() - cpu0


class Round:
    """What one round reports, and the block timers it runs under.

    Set-up and measured blocks are timed in process CPU seconds; checks
    (audits, conservation, teardown round trips) run outside both.  With a
    tracer, spans are recorded inside the timed blocks only.
    """

    def __init__(self, tracer=None, audit=True):
        self.tracer = tracer
        self.auditing = audit
        self.blocks = []          # (measured?, CPU s, reference CPU s)
        self.measure_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.samples = {"fork": [], "odfork": []}
        self.variants = {}
        self.mem_frames = 0
        self.vm_totals = Counter()
        self.counters = Counter()
        self.checks = 0
        self.problems = []

    @contextlib.contextmanager
    def _timed(self, measured):
        # Free the previous phase's machines now: left to the cyclic
        # collector's own schedule, they die before or after the next
        # machine is built, and peak RSS jumps by a machine's worth.
        gc.collect()
        before = reference_cpu()
        tracer = self.tracer
        if tracer is not None:
            if not measured:
                tracer.next_op()
            tracer.resume()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            if tracer is not None:
                tracer.pause()
            after = reference_cpu()
            self.blocks.append((measured, cpu, (before + after) / 2))
            if measured:
                self.measure_wall += wall

    def setup(self):
        """Timed set-up: machine build, fill or deploy, and teardown."""
        return self._timed(measured=False)

    def measure(self):
        """Timed measured block: the workload's ops."""
        return self._timed(measured=True)

    def op(self):
        """A closed-loop op starts (spans after this carry a new op id)."""
        if self.tracer is not None:
            self.tracer.next_op()

    def host_seconds(self, measured):
        """Per timed block of one kind: CPU seconds at reference speed."""
        return [cpu * REFERENCE_S / ref
                for kind, cpu, ref in self.blocks if kind == measured]

    # ---- results --------------------------------------------------------

    def record(self, flavour, latencies_ns, ops, failed=0, variant=None):
        """Virtual latencies of one phase's ops under ``flavour``.

        ``variant`` (default: the flavour) names the part of the flavour's
        pool these ops belong to, e.g. fork-sweep's huge-page forks; the
        run record summarises each variant apart as well.
        """
        latencies = [int(v) for v in latencies_ns]
        self.samples[flavour].extend(latencies)
        self.variants.setdefault(variant or flavour, []).extend(latencies)
        self.attempted += ops
        self.failed += failed

    def mem(self, frames):
        """Simulated memory in use at a phase's peak (frames, all machines)."""
        self.mem_frames = max(self.mem_frames, int(frames))

    def vm(self, machine):
        """Add a machine's vm.* counters and TLB totals, read before teardown."""
        self.vm_totals.update(machine.vmstat())
        tlb = machine.metrics.collect("tlb")
        self.counters["paging.tlb.hits"] += tlb["hits"]
        self.counters["paging.tlb.misses"] += tlb["misses"]

    def count(self, name, value):
        self.counters[name] += value

    # ---- checks -----------------------------------------------------------

    def check(self, ok, message):
        self.checks += 1
        if not ok:
            self.problems.append(message)

    def audit(self, machine):
        """``audit_machine``, on the first round only: it costs more than
        the workload itself (15 s for a 16 GB heap)."""
        if not self.auditing:
            return
        try:
            audit_machine(machine)
        except AssertionError as exc:
            self.check(False, f"audit failed: {exc}")
        else:
            self.check(True, "")

    @staticmethod
    def baseline(machine):
        """Used frames and live tables of ``machine`` with nothing running.

        A probe spawn/exit goes first, so that init's lazily built state
        counts as baseline rather than as a leak.
        """
        probe = machine.spawn_process("probe")
        probe.exit()
        machine.init_process.wait(probe.pid)
        return machine.used_frames(), machine.kernel.live_tables

    def released(self, machine, baseline):
        """After teardown: frames and page tables back at ``baseline``."""
        now = (machine.used_frames(), machine.kernel.live_tables)
        self.check(now == baseline,
                   f"teardown left (frames, tables) {now}, expected {baseline}")

    def virtual(self):
        """Everything the virtual clock and kernel counters determine."""
        return {"samples": self.samples, "mem_frames": self.mem_frames,
                "vm": dict(self.vm_totals), "counters": dict(self.counters),
                "attempted": self.attempted, "failed": self.failed}


def block_median(rounds, measured):
    """Sum over timed blocks of each block's median host time across rounds."""
    per_round = [r.host_seconds(measured) for r in rounds]
    return sum(statistics.median(times) for times in zip(*per_round))


def run_workload(name, seed, seconds, params, min_rounds, tracer=None,
                 audit=True):
    """Run rounds of workload ``name``; returns the worker's report dict."""
    fn = WORKLOADS[name]
    rounds = []
    measure_cpu = 0.0
    while len(rounds) < min_rounds or measure_cpu < seconds:
        rnd = Round(tracer=tracer, audit=audit and not rounds)
        fn(rnd, seed, params)
        if rounds:
            first = rounds[0]
            rnd.check(rnd.virtual() == first.virtual(),
                      f"round {len(rounds)} did not reproduce the virtual "
                      f"results of round 0")
            rnd.check([b[0] for b in rnd.blocks]
                      == [b[0] for b in first.blocks],
                      "rounds ran different timed blocks")
            rnd.samples = rnd.variants = None
        rounds.append(rnd)
        measure_cpu += sum(cpu for kind, cpu, _ in rnd.blocks if kind)

    first = rounds[0]
    virt = {flavour: latency_summary(first.samples[flavour])
            for flavour in ("fork", "odfork")}
    virt["mem_mb"] = first.mem_frames * PAGE_SIZE / 2 ** 20
    return {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "round_ops": first.attempted - first.failed,
        "measure_s": block_median(rounds, True),
        "setup_s": block_median(rounds, False),
        "timed_s": sum(sum(r.host_seconds(True)) + sum(r.host_seconds(False))
                       for r in rounds),
        "timed_cpu_s": sum(cpu for r in rounds for _, cpu, _ in r.blocks),
        "reference_cpu_s": statistics.median(
            ref for r in rounds for _, _, ref in r.blocks),
        "measure_wall_s": first.measure_wall,
        "checks": sum(r.checks for r in rounds),
        "problems": [p for r in rounds for p in r.problems],
        "virt": virt,
        "virt_variants": {variant: latency_summary(samples)
                          for variant, samples in first.variants.items()},
        "vm": dict(first.vm_totals),
        "counters": dict(first.counters),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv):
    name, seed, seconds, min_rounds, trace_path = argv
    params = FULL[name]
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    try:
        report = run_workload(name, int(seed), float(seconds), params,
                              int(min_rounds), tracer=tracer,
                              audit=tracer is None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["entries"] = tracer.entry_totals()
        report["spans"] = len(tracer.spans)
        with open(trace_path, "w") as fh:
            json.dump(tracer.chrome_trace(f"perf {name} seed {seed}"), fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
