"""Differential oracle: paired-machine execution and fail-point sweeps.

Two checking modes, both driven by the traces in :mod:`repro.verify.trace`:

* :func:`check_trace` runs one trace on three machines — an *odfork*
  machine (trace-level ``fork`` ops use on-demand fork), a *classic*
  machine (eager copies), and a classic machine with the deterministic
  SMP scheduler enabled — and diffs what each observed: per-op outcomes,
  per-process logical-memory digests, RSS invariants, and the
  from-first-principles :func:`~repro.verify.audit.audit_machine` result
  at every capture point.  The paper's central claim is that odfork is
  *semantically invisible*; any divergence here falsifies it.

* :func:`enumerate_failpoints` records how often each fail-point site
  (``kernel.failpoints``) is hit by a trace, then re-runs the trace once
  per (site, Nth-hit) with that allocation forced to fail — asserting the
  kernel either surfaces a clean ``OutOfMemoryError`` or succeeds, and in
  both cases tears down to a zero-leak machine (one live table frame: the
  init PGD; no used data frames beyond the page cache; no referenced swap
  slots).

Outcome comparison stops at the first divergence: after it, the paired
executors' bookkeeping may legitimately disagree, so later diffs would
be noise.  An asymmetric ``OutOfMemoryError`` is classified separately
(``oom-divergence``) — resource headroom differs across copy strategies
by design, so it is inconclusive rather than a semantic failure; the
verify machine sizing makes it effectively unreachable in practice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product

from .audit import audit_machine
from .trace import TraceExecutor, make_machine


@dataclass
class Finding:
    """One oracle verdict; ``kind`` is one of outcome / state / invariant /
    audit / crash / leak / oom-divergence."""

    kind: str
    op_index: int
    detail: str
    pair: str

    def __str__(self):
        return f"[{self.pair}] {self.kind} at op {self.op_index}: {self.detail}"


def is_hard(finding):
    """Everything except resource-asymmetry noise is a real failure."""
    return finding.kind != "oom-divergence"


# --------------------------------------------------------------------- #
# Differential execution


def run_differential(trace, flavor, smp=None, **overrides):
    """Execute ``trace`` on a fresh machine; returns (executor, RunResult)."""
    executor = TraceExecutor(make_machine(smp=smp, **overrides), flavor=flavor)
    return executor, executor.run(trace)


def compare_runs(trace, res_a, res_b, pair, name_a="A", name_b="B"):
    """Diff two RunResults of the same trace; returns Findings."""
    findings = []
    for name, res in ((name_a, res_a), (name_b, res_b)):
        if res.crash is not None:
            findings.append(Finding("crash", res.crash[0],
                                    f"machine {name}: {res.crash[1]}", pair))
    if findings:
        return findings

    for name, res in ((name_a, res_a), (name_b, res_b)):
        for index in sorted(res.audits):
            for error in res.audits[index]:
                findings.append(Finding("audit", index,
                                        f"machine {name}: {error}", pair))
    if findings:
        return findings

    for i, (a, b) in enumerate(zip(res_a.outcomes, res_b.outcomes)):
        if a == b:
            continue
        if ("err", "OutOfMemoryError") in (a, b):
            findings.append(Finding(
                "oom-divergence", i,
                f"{name_a}={a} vs {name_b}={b} (resource asymmetry)", pair))
        else:
            findings.append(Finding(
                "outcome", i,
                f"{trace['ops'][i]} -> {name_a}={a} vs {name_b}={b}", pair))
        return findings

    for index in sorted(res_a.captures):
        findings.extend(_diff_state(index, res_a.captures[index],
                                    res_b.captures[index], pair,
                                    name_a, name_b))
        if findings:
            return findings
    return findings


def _diff_state(index, state_a, state_b, pair, name_a, name_b):
    findings = []
    procs_a, procs_b = state_a["procs"], state_b["procs"]
    if set(procs_a) != set(procs_b):
        return [Finding("state", index,
                        f"live procs {sorted(procs_a)} vs {sorted(procs_b)}",
                        pair)]
    # A process's smaps disagreeing with its RSS is an invariant
    # violation on that machine alone — flag it even if both sides match.
    for name, procs in ((name_a, procs_a), (name_b, procs_b)):
        for pid, snap in procs.items():
            if not snap["smaps_consistent"]:
                findings.append(Finding(
                    "invariant", index,
                    f"machine {name} proc {pid}: smaps sum != VmRSS", pair))
    if findings:
        return findings
    for pid in sorted(procs_a):
        regions_a = procs_a[pid]["regions"]
        regions_b = procs_b[pid]["regions"]
        for rid in sorted(regions_a):
            if regions_a[rid] != regions_b[rid]:
                return [Finding(
                    "state", index,
                    f"proc {pid} region {rid} memory differs: "
                    f"{name_a}={regions_a[rid]} vs {name_b}={regions_b[rid]}",
                    pair)]
    # RSS is only comparable while neither machine has reclaimed (eviction
    # picks are machine-local); the verify sizing keeps pgsteal at 0.
    if state_a["pgsteal"] == 0 and state_b["pgsteal"] == 0:
        for pid in sorted(procs_a):
            if procs_a[pid]["rss"] != procs_b[pid]["rss"]:
                return [Finding(
                    "state", index,
                    f"proc {pid} RSS {name_a}={procs_a[pid]['rss']} vs "
                    f"{name_b}={procs_b[pid]['rss']} with no reclaim", pair)]
    return findings


def check_trace(trace, smp=2, include_smp=True):
    """Run the full differential battery on one trace; returns Findings."""
    _, classic = run_differential(trace, "classic")
    _, odfork = run_differential(trace, "odfork")
    findings = compare_runs(trace, odfork, classic, "odfork-vs-classic",
                            name_a="odfork", name_b="classic")
    if include_smp:
        _, smp_run = run_differential(trace, "classic", smp=smp)
        findings += compare_runs(trace, smp_run, classic, "smp-vs-plain",
                                 name_a=f"smp={smp}", name_b="plain")
    return findings


def check_trace_sanitized(trace, smp=2):
    """Run one trace under the dynamic sanitizers; returns Findings.

    Three legs: a KASAN machine per flavor (classic and odfork — frame
    poisoning, quarantine, and UAF/double-free checks live for every
    alloc/free the trace drives) and a KCSAN machine sampling data races
    under the deterministic SMP scheduler.  Sanitizer reports arrive as
    crash findings (:class:`~repro.errors.SanitizerError` subclasses
    ``KernelBug``); the KASAN legs additionally drain the quarantine,
    detach the sanitizer, and re-run the leak check — quarantined frames
    count as allocated, so leak accounting needs the real frees.
    """
    findings = []
    for flavor in ("classic", "odfork"):
        tag = f"kasan:{flavor}"
        machine = make_machine(sanitize="kasan")
        executor = TraceExecutor(machine, flavor=flavor)
        result = executor.run(trace, capture=False, audit=False)
        if result.crash is not None:
            findings.append(Finding("crash", result.crash[0],
                                    result.crash[1], tag))
            continue
        machine.kasan.flush()
        machine.allocator.sanitizer = None
        machine.phys.sanitizer = None
        findings.extend(Finding("leak", len(trace["ops"]), error, tag)
                        for error in check_clean_shutdown(executor))
    machine = make_machine(smp=smp, sanitize="kcsan")
    executor = TraceExecutor(machine, flavor="classic")
    result = executor.run(trace, capture=False, audit=False)
    if result.crash is not None:
        findings.append(Finding("crash", result.crash[0], result.crash[1],
                                f"kcsan:smp={smp}"))
    return findings


def check_trace_traced(trace, flavors=("classic", "odfork")):
    """Tracing must be invisible: paired plain vs traced runs per flavor.

    The ktrace tracepoints (:mod:`repro.trace`) sit on the kernel's
    hottest paths; this audit runs the same trace with and without an
    attached tracer and diffs everything the oracle can see — outcomes,
    memory digests, audits, and the final vmstat counters.  Any
    divergence means instrumentation perturbed the kernel (the exact bug
    class the ``if points.enabled`` guard discipline exists to prevent).
    A traced run that emits zero events is also a finding: a dead tracer
    would make this audit vacuous.
    """
    from ..trace import points
    from ..trace.tracer import Tracer

    findings = []
    for flavor in flavors:
        pair = f"traced-vs-plain:{flavor}"
        exec_plain, plain = run_differential(trace, flavor)
        tracer = Tracer()
        prev = points.current()
        points.attach(tracer)
        try:
            exec_traced, traced = run_differential(trace, flavor)
        finally:
            points.detach()
            if prev is not None:
                points.attach(prev)
        findings += compare_runs(trace, traced, plain, pair,
                                 name_a="traced", name_b="plain")
        if findings:
            return findings
        vm_plain = exec_plain.machine.vmstat()
        vm_traced = exec_traced.machine.vmstat()
        if vm_plain != vm_traced:
            moved = sorted(k for k in set(vm_plain) | set(vm_traced)
                           if vm_plain.get(k) != vm_traced.get(k))
            findings.append(Finding(
                "state", len(trace["ops"]),
                f"vmstat diverges with tracing enabled: {moved}", pair))
        if tracer.emitted == 0 and len(trace["ops"]) > 0:
            findings.append(Finding(
                "audit", 0, "tracer attached but no events emitted — "
                "the side-effect audit checked nothing", pair))
    return findings


def check_trace_numa(trace, nodes=2, policies=None):
    """The NUMA differential battery: flat vs NUMA-shared vs replicated.

    NUMA placement and Mitosis page-table replication are *performance*
    mechanisms: a trace must produce identical outcomes, logical-memory
    digests, RSS, and audits on a flat machine, a NUMA machine with
    shared tables, and a NUMA machine with per-node replicas under every
    ``odfork_replica_policy`` — only virtual-time costs may differ.  Each
    NUMA machine is then torn down and leak-checked, which exercises the
    replica-collapse path for every table the trace created.
    """
    from ..numa.topology import NumaTopology, REPLICA_POLICIES

    if policies is None:
        policies = REPLICA_POLICIES
    findings = []
    _, flat = run_differential(trace, "odfork")
    exec_shared, shared = run_differential(
        trace, "odfork", numa=NumaTopology(nodes=nodes))
    findings += compare_runs(trace, shared, flat, "numa-shared-vs-flat",
                             name_a="numa-shared", name_b="flat")
    if findings:
        return findings
    executors = [("numa-shared", exec_shared)]
    for policy in policies:
        tag = f"numa-replicated:{policy}"
        exec_repl, repl = run_differential(
            trace, "odfork",
            numa=NumaTopology(nodes=nodes, replicate=True,
                              odfork_replica_policy=policy))
        findings += compare_runs(trace, repl, shared, f"{tag}-vs-shared",
                                 name_a=f"replicated:{policy}",
                                 name_b="numa-shared")
        if findings:
            return findings
        executors.append((tag, exec_repl))
    for tag, executor in executors:
        findings.extend(Finding("leak", len(trace["ops"]), error, tag)
                        for error in check_clean_shutdown(executor))
    return findings


def check_trace_equivalence(trace, flavors=("classic", "odfork"), smp=2):
    """The analytic-fast-path battery: fastpath-on vs per-event machines.

    :mod:`repro.kernel.fastpath` claims to be *bit-identical* to the
    per-event kernel paths it replaces — same outcomes, same logical
    memory, same RSS, same vmstat counters, and (the strongest claim)
    the same virtual clock, because every skipped per-event charge is
    re-aggregated through the same noise stream.  This leg runs each
    trace on a paired machine per fork flavor — one with the fast path
    enabled (the default), one forced per-event via
    ``Machine(fastpath=False)`` — and diffs everything the oracle can
    see, then tears both down and leak-checks them (teardown itself has
    a fast path to prove equivalent).  The allocator state must agree
    too: :func:`physical_layout` after the trace and after teardown.
    The pairs run again on ``Machine(smp=smp)``: the trace never starts
    its scheduler, so the fast path engages on an idle SMP machine.
    """
    findings = []
    for cpus, flavor in product((None, smp), flavors):
        pair = f"fastpath-vs-perevent:{flavor}"
        if cpus is not None:
            pair += f":smp={cpus}"
        exec_fast, fast = run_differential(trace, flavor, smp=cpus)
        exec_slow, slow = run_differential(trace, flavor, smp=cpus,
                                           fastpath=False)
        findings += compare_runs(trace, fast, slow, pair,
                                 name_a="fastpath", name_b="per-event")
        if findings:
            return findings
        vm_fast = exec_fast.machine.vmstat()
        vm_slow = exec_slow.machine.vmstat()
        if vm_fast != vm_slow:
            moved = sorted(k for k in set(vm_fast) | set(vm_slow)
                           if vm_fast.get(k) != vm_slow.get(k))
            return [Finding("state", len(trace["ops"]),
                            f"vmstat diverges with the fast path: {moved}",
                            pair)]
        ns_fast = exec_fast.machine.kernel.clock.now_ns
        ns_slow = exec_slow.machine.kernel.clock.now_ns
        if ns_fast != ns_slow:
            return [Finding("state", len(trace["ops"]),
                            f"virtual clock diverges: fastpath={ns_fast} vs "
                            f"per-event={ns_slow} "
                            f"(delta {ns_fast - ns_slow} ns)", pair)]
        findings += _layout_findings(trace, exec_fast, exec_slow, pair,
                                     "after the trace")
        for tag, executor in ((f"{pair}:fast", exec_fast),
                              (f"{pair}:per-event", exec_slow)):
            findings.extend(Finding("leak", len(trace["ops"]), error, tag)
                            for error in check_clean_shutdown(executor))
        findings += _layout_findings(trace, exec_fast, exec_slow, pair,
                                     "after teardown")
        if findings:
            return findings
    return findings


def physical_layout(machine):
    """Digest the buddy free lists, allocation orders and every packed
    entry row: which frames the kernel handed out, in which order, and
    where they are mapped.  Logical digests see none of it."""
    allocator = machine.kernel.allocator
    h = hashlib.sha256(repr(allocator._free_lists).encode())
    h.update(allocator._alloc_order.tobytes())
    for chunk in machine.kernel.entry_store.chunks:
        h.update(chunk.tobytes())
    return h.hexdigest()[:16]


def _layout_findings(trace, exec_fast, exec_slow, pair, when):
    """A ``state`` finding when the pair's physical layouts differ."""
    fast = physical_layout(exec_fast.machine)
    slow = physical_layout(exec_slow.machine)
    if fast == slow:
        return []
    return [Finding("state", len(trace["ops"]),
                    f"physical layout diverges {when}: fastpath={fast} vs "
                    f"per-event={slow}", pair)]


#: Fail-point sites on the bulk paths the fast path vectorises; arming any
#: of them sets ``failpoints.active``, which *disengages* the fast path —
#: the armed sweep proves the resulting per-event unwind is identical on a
#: machine that had the fast path enabled and one that never did.
EQUIVALENCE_FAILPOINT_SITES = frozenset({
    "fork.upper_table", "fork.copy_slot", "bulkops.fill_absent",
    "bulkops.bulk_cow", "bulkops.leaf_table", "odfork.share_table",
})


def enumerate_equivalence_failpoints(trace, flavor="classic",
                                     max_hits_per_site=3):
    """Paired armed runs: OOM unwinds must not depend on the fastpath knob.

    For each (site, Nth-hit) the sweep arms the same failure on two
    machines — fast path enabled and disabled — and requires the same
    crash-or-survival verdict plus a leak-free teardown on both.  Since
    arming makes :func:`~repro.kernel.fastpath.fast_path_ok` bail, this
    pins down the engagement predicate itself: a fast path that kept
    running with failpoints armed would skip the injected failure and
    diverge here.
    """
    overrides = {"fastpath": True}
    machine = make_machine(**overrides)
    failpoints = machine.kernel.failpoints
    recorder = TraceExecutor(machine, flavor=flavor)
    failpoints.record()
    recording = recorder.run(trace, capture=False, audit=False)
    failpoints.disarm()
    counts = {site: n for site, n in failpoints.counts.items()
              if site in EQUIVALENCE_FAILPOINT_SITES}
    meta = {"sites": counts, "runs": 0, "sampled_out": 0}
    if recording.crash is not None:
        return [Finding("crash", recording.crash[0],
                        f"recording run: {recording.crash[1]}",
                        "equivalence-failpoint:record")], meta

    findings = []
    for site in sorted(counts):
        hits = _sample_hits(counts[site], max_hits_per_site)
        meta["sampled_out"] += counts[site] - len(hits)
        for nth in hits:
            meta["runs"] += 1
            tag = f"equivalence-failpoint:{site}#{nth}"
            results = {}
            for label, fastpath in (("fast", True), ("per-event", False)):
                m = make_machine(fastpath=fastpath)
                executor = TraceExecutor(m, flavor=flavor)
                m.kernel.failpoints.arm(site, nth)
                result = executor.run(trace, capture=False, audit=False)
                m.kernel.failpoints.disarm()
                leaks = ([] if result.crash is not None
                         else check_clean_shutdown(executor))
                results[label] = (result, leaks)
                findings.extend(
                    Finding("leak", len(trace["ops"]), error,
                            f"{tag}:{label}") for error in leaks)
            res_fast, _ = results["fast"]
            res_slow, _ = results["per-event"]
            if (res_fast.crash is None) != (res_slow.crash is None):
                findings.append(Finding(
                    "crash", res_fast.crash[0] if res_fast.crash
                    else res_slow.crash[0],
                    f"armed unwind diverges: fast={res_fast.crash} vs "
                    f"per-event={res_slow.crash}", tag))
            elif res_fast.outcomes != res_slow.outcomes:
                first = next(i for i, (a, b) in enumerate(
                    zip(res_fast.outcomes, res_slow.outcomes)) if a != b)
                findings.append(Finding(
                    "outcome", first,
                    f"armed outcomes diverge: fast="
                    f"{res_fast.outcomes[first]} vs per-event="
                    f"{res_slow.outcomes[first]}", tag))
    return findings, meta


# --------------------------------------------------------------------- #
# Fail-point enumeration


def check_clean_shutdown(executor):
    """Tear the executor's machine down and verify nothing leaked."""
    machine = executor.machine
    kernel = machine.kernel
    errors = []
    try:
        audit_machine(machine)
    except AssertionError as exc:
        errors.append(f"pre-teardown audit: {exc}")
    try:
        executor.finish()
    except Exception as exc:
        errors.append(f"teardown crashed: {type(exc).__name__}: {exc}")
        return errors
    try:
        audit_machine(machine)
    except AssertionError as exc:
        errors.append(f"post-teardown audit: {exc}")
    if kernel.live_tables != 1:  # only init's PGD survives
        errors.append(f"{kernel.live_tables} table frames live after "
                      f"teardown (expected 1)")
    cached = len(kernel.page_cache._cache)
    expected = kernel.live_tables + cached
    if kernel.mitosis is not None:
        # The surviving init PGD keeps its per-node replicas; anything
        # beyond that is a replica frame the collapse path failed to free.
        expected += kernel.mitosis.replica_frame_count()
        if kernel.mitosis.replica_frame_count() > (
                kernel.numa.nodes - 1) * kernel.live_tables:
            errors.append(
                f"{kernel.mitosis.replica_frame_count()} replica frames "
                f"registered after teardown for {kernel.live_tables} live "
                f"table(s)")
    if machine.used_frames() != expected:
        errors.append(f"{machine.used_frames()} frames used after teardown, "
                      f"expected {expected} (tables + page cache)")
    if kernel.swap is not None:
        used_slots = kernel.swap.n_slots - len(kernel.swap._free)
        if used_slots:
            errors.append(f"{used_slots} swap slots still referenced "
                          f"after teardown")
    return errors


def _sample_hits(count, max_hits):
    """Which Nth-hits to arm for a site hit ``count`` times.

    Exhaustive when the budget allows; otherwise a deterministic spread —
    first, second, middle, last — the hits most likely to sit at distinct
    points of an operation's unwind path.
    """
    if max_hits is None or count <= max_hits:
        return list(range(1, count + 1))
    picks = {1, 2, (count + 1) // 2, count}
    step = max(1, count // max_hits)
    for nth in range(1, count + 1, step):
        if len(picks) >= max_hits:
            break
        picks.add(nth)
    return sorted(picks)[:max_hits]


#: The fail-point sites the NUMA subsystem adds: per-node allocation
#: (``bind``-strict and migration paths) and Mitosis replica allocation
#: (must unwind to the unreplicated-table path without leaking frames).
NUMA_FAILPOINT_SITES = frozenset({"numa.node_alloc", "mitosis.replica_alloc"})


def enumerate_numa_failpoints(trace, nodes=2, max_hits_per_site=4):
    """Sweep the NUMA fail-point sites on a Mitosis-replicated machine."""
    from ..numa.topology import NumaTopology

    return enumerate_failpoints(
        trace, flavor="odfork", max_hits_per_site=max_hits_per_site,
        machine_overrides={"numa": NumaTopology(nodes=nodes, replicate=True)},
        only_sites=NUMA_FAILPOINT_SITES)


def enumerate_failpoints(trace, flavor="classic", max_hits_per_site=4,
                         machine_overrides=None, only_sites=None):
    """Force each fail-point hit to fail, one run per (site, Nth hit).

    Returns ``(findings, meta)`` where meta reports per-site hit counts,
    the number of armed runs, and how many hits sampling skipped (so a
    bounded sweep never silently reads as exhaustive).  ``only_sites``
    restricts the sweep (the recording run still counts everything);
    ``machine_overrides`` forwards Machine kwargs, e.g. ``numa=...``.
    """
    overrides = machine_overrides or {}
    machine = make_machine(**overrides)
    failpoints = machine.kernel.failpoints
    # Record (and later arm) only after the executor has spawned the root
    # process: setup allocations hit the same sites (e.g. mm.pgd_alloc)
    # but are not part of the trace under test.
    recorder = TraceExecutor(machine, flavor=flavor)
    failpoints.record()
    recording = recorder.run(trace, capture=False, audit=False)
    failpoints.disarm()
    counts = dict(failpoints.counts)
    if only_sites is not None:
        counts = {site: n for site, n in counts.items() if site in only_sites}
    meta = {"sites": counts, "runs": 0, "sampled_out": 0}

    if recording.crash is not None:
        return [Finding("crash", recording.crash[0],
                        f"recording run: {recording.crash[1]}",
                        "failpoint:record")], meta

    findings = []
    for site in sorted(counts):
        hits = _sample_hits(counts[site], max_hits_per_site)
        meta["sampled_out"] += counts[site] - len(hits)
        for nth in hits:
            meta["runs"] += 1
            findings.extend(_armed_run(trace, flavor, site, nth, overrides))
    return findings, meta


def _armed_run(trace, flavor, site, nth, overrides=None):
    tag = f"failpoint:{site}#{nth}"
    machine = make_machine(**(overrides or {}))
    executor = TraceExecutor(machine, flavor=flavor)
    machine.kernel.failpoints.arm(site, nth)
    result = executor.run(trace, capture=False, audit=False)
    machine.kernel.failpoints.disarm()
    if result.crash is not None:
        return [Finding("crash", result.crash[0], result.crash[1], tag)]
    return [Finding("leak", len(trace["ops"]), error, tag)
            for error in check_clean_shutdown(executor)]
