"""The four benchmark workloads, driven through the simulator's public API.

Each workload is one function ``workload(rnd, seed, params)`` that runs
one *round*: it builds its machines, fills them, runs its ops and tears
everything down, marking through ``rnd`` (see ``worker.Round``) which of
that is set-up and which is measured.  A round is a pure function of
``seed``; the worker repeats it and demands identical virtual results.

Why these four (README.md has the longer version):

* ``fork-sweep`` (closed loop) -- classic-fork fast path, odfork's per-slot
  share, exit teardown, populate; no swap, so rmap and reclaim are off.
  The SMP cell runs the per-event walk.
* ``faas-burst`` (open loop) -- fork/exit fast paths with rmap upkeep
  inside them (classic), table COW, snapshot resets and reaping (odfork).
* ``reclaim-overcommit`` (closed loop) -- rmap's read side, kswapd and
  direct reclaim, swap-in faults, fast-path bails on the headroom check.
* ``fleet-waves`` (open loop) -- cluster, page walks and ``mem_touch``;
  forks are rare, so kernel fork/rmap changes should not move it.
"""

from __future__ import annotations

import numpy as np

from repro import GIB, MIB, Machine, OutOfMemoryError
from repro.cluster import Fleet, FleetConfig
from repro.faas import FarmConfig, Invoker
from repro.smp.ops import fork_flow

PAGE_SIZE = 4096
#: Virtual-clock noise of the fork-sweep machines, as in the Figure 2
#: bench; seeded, it is what makes fork latencies depend on the seed.
NOISE_SIGMA = 0.04
#: fork-sweep cells up to this heap size get ``audit_machine``; the 16 GB
#: audit alone takes 15 s.
AUDIT_MAX_GB = 1


def sub_seed(seed, index):
    """Seed of the ``index``-th independent input set drawn from ``seed``."""
    return (seed * 101 + index) % (2 ** 31)


# ---- fork-sweep ------------------------------------------------------------

def _fork_cell(rnd, seed, size_gb, variant, n_ops):
    """The Figure 1 program: map, fill, then fork + exit + wait ``n_ops`` times."""
    size = int(size_gb * GIB)
    with rnd.setup():
        machine = Machine(phys_mb=int(size_gb * 1024) + 1024,
                          noise_sigma=NOISE_SIGMA, seed=seed)
        baseline = rnd.baseline(machine)
        parent = machine.spawn_process(f"figure1-{variant}")
        if variant == "fork_huge":
            buf = parent.mmap_huge(size)
        else:
            buf = parent.mmap(size)
        parent.touch_range(buf, size, write=True)
    odfork = variant == "odfork"
    latencies = []
    with rnd.measure():
        for _ in range(n_ops):
            rnd.op()
            child = parent.odfork() if odfork else parent.fork()
            latencies.append(parent.last_fork_ns)
            peak = machine.used_frames()
            child.exit()
            parent.wait()
    rnd.record("odfork" if odfork else "fork", latencies, ops=n_ops,
               variant=variant)
    rnd.mem(peak)
    rnd.vm(machine)
    if size_gb <= AUDIT_MAX_GB:
        rnd.audit(machine)
    with rnd.setup():
        parent.exit()
        machine.init_process.wait()
    rnd.released(machine, baseline)


def _smp_cell(rnd, seed, p):
    """``n`` processes forking together on ``Machine(smp=n)``: the
    per-event fork walk, interleaved by the SMP scheduler."""
    n = p["smp_instances"]
    size = int(p["smp_heap_gb"] * GIB)
    with rnd.setup():
        machine = Machine(phys_mb=int(n * p["smp_heap_gb"] * 1024) + 1024,
                          smp=n, noise_sigma=NOISE_SIGMA, seed=seed)
        baseline = rnd.baseline(machine)
        parents = []
        for i in range(n):
            parent = machine.spawn_process(f"smp-{i}")
            buf = parent.mmap(size)
            parent.touch_range(buf, size, write=True)
            parents.append(parent)
    sched = machine.smp
    latencies = []
    with rnd.measure():
        for _ in range(p["smp_repeats"]):
            rnd.op()
            tasks = [sched.spawn(f"fork-{i}", fork_flow(sched, q, use_odf=False),
                                 mm=q.mm)
                     for i, q in enumerate(parents)]
            sched.run()
            peak = machine.used_frames()
            for task in tasks:
                latencies.append(task.result["elapsed_ns"])
                task.result["child"].exit()
            for q in parents:
                q.wait()
    rnd.record("fork", latencies, ops=len(latencies), variant="smp_fork")
    rnd.mem(peak)
    rnd.vm(machine)
    rnd.count("smp.lock_wait_ms",
              machine.metrics.collect("lock")["wait_ns"] / 1e6)
    rnd.audit(machine)
    with rnd.setup():
        for q in parents:
            q.exit()
        machine.init_process.wait()
    rnd.released(machine, baseline)


def fork_sweep(rnd, seed, p):
    """Figure 1 at every size x {fork, fork_huge, odfork}, then the SMP cell.

    The classic-fork pool holds the 4 KiB forks, the huge-page forks and
    the SMP forks.  4 KiB and huge-page cells run the same number of ops,
    so the pool's median and tail land on 4 KiB forks (every huge-page
    fork is faster than the smallest 4 KiB one), and a change to classic
    fork's virtual latency moves both.
    """
    for size_gb in p["sizes_gb"]:
        for variant in ("fork", "fork_huge", "odfork"):
            _fork_cell(rnd, seed, size_gb, variant, p["ops"][variant])
    _smp_cell(rnd, seed, p)


# ---- faas-burst --------------------------------------------------------------

def _farm(rnd, seed, p, use_odfork):
    config = FarmConfig(rate_rps=p["rate_rps"], n_requests=p["n_requests"],
                        use_odfork=use_odfork, seed=seed)
    with rnd.setup():
        invoker = Invoker(config)
        baselines = [rnd.baseline(m) for m in invoker.machines]
        invoker.deploy()
    with rnd.measure():
        result = invoker.run()
    rnd.check(result.conserved(),
              f"faas accounting not conserved ({result.flavor})")
    rnd.record(result.flavor, result.latencies_ns.tolist(),
               ops=result.generated, failed=result.dropped + result.failed)
    rnd.mem(round(result.peak_used_gb * GIB / PAGE_SIZE))
    rnd.count("faas.cold", len(result.cold_start_ns))
    rnd.count("faas.warm", result.warm_served)
    rnd.count("faas.resets", result.resets)
    for machine in invoker.machines:
        rnd.vm(machine)
        rnd.audit(machine)
    with rnd.setup():
        invoker.shutdown()
    rnd.check(invoker.live_instances() == 0, "faas instances survived shutdown")
    for machine, baseline in zip(invoker.machines, baselines):
        rnd.released(machine, baseline)


def faas_burst(rnd, seed, p):
    """Independent Poisson burst schedules, each served once per flavour."""
    for campaign in range(p["campaigns"]):
        for use_odfork in (False, True):
            _farm(rnd, sub_seed(seed, campaign), p, use_odfork)


# ---- reclaim-overcommit --------------------------------------------------------

def _fork_server(rnd, p, heap_bytes, addrs, odfork):
    with rnd.setup():
        machine = Machine(phys_mb=p["phys_mb"], swap_mb=p["swap_mb"])
        baseline = rnd.baseline(machine)
        server = machine.spawn_process("fork-server")
        heap = server.mmap(heap_bytes)
        server.touch_range(heap, heap_bytes, write=True)
    latencies = []
    failed = 0
    peak = 0
    with rnd.measure():
        for row in addrs:
            rnd.op()
            watch = machine.stopwatch()
            try:
                child = server.odfork() if odfork else server.fork()
                try:
                    for offset in row:
                        child.write(heap + offset, b"request!")
                    peak = max(peak, machine.used_frames())
                finally:
                    child.exit()
                    server.wait()
            except OutOfMemoryError:
                failed += 1
                continue
            latencies.append(watch.elapsed_ns)
    rnd.record("odfork" if odfork else "fork", latencies, ops=len(addrs),
               failed=failed)
    rnd.mem(peak)
    rnd.vm(machine)
    rnd.audit(machine)
    with rnd.setup():
        server.exit()
        machine.init_process.wait()
    rnd.released(machine, baseline)


def reclaim_overcommit(rnd, seed, p):
    """Fork servers whose heap is a multiple of RAM, under each flavour."""
    for index, overcommit in enumerate(p["overcommits"]):
        heap_bytes = int(overcommit * p["phys_mb"]) * MIB
        # Both flavours replay the same dispatch page choices.
        pages = np.random.default_rng(sub_seed(seed, index)).integers(
            0, heap_bytes // PAGE_SIZE, (p["dispatches"], p["write_pages"]))
        addrs = (pages * PAGE_SIZE).tolist()
        for odfork in (False, True):
            _fork_server(rnd, p, heap_bytes, addrs, odfork)


# ---- fleet-waves -----------------------------------------------------------------

def fleet_waves(rnd, seed, p):
    """{simultaneous, staggered} snapshot waves x {fork, odfork}."""
    reference = None
    for strategy in ("simultaneous", "staggered"):
        for flavour in ("fork", "odfork"):
            config = FleetConfig(
                replicas=p["replicas"], strategy=strategy,
                use_odfork=flavour == "odfork", rate_rps=p["rate_rps"],
                n_requests=p["n_requests"], write_ratio=p["write_ratio"],
                data_mb=p["data_mb"], n_waves=p["n_waves"],
                wave_interval_ms=p["wave_interval_ms"], seed=seed)
            with rnd.setup():
                fleet = Fleet(config)
            with rnd.measure():
                result = fleet.run()
            machines = [r.machine for r in fleet.replicas]
            rnd.check(result.conserved(),
                      f"fleet accounting not conserved ({strategy}/{flavour})")
            waves = result.coordinator_stats["waves_completed"]
            rnd.check(waves == p["n_waves"],
                      f"{waves} of {p['n_waves']} snapshot waves completed")
            rnd.record(flavour, result.aggregator.merged().tolist(),
                       ops=result.generated, failed=result.dropped)
            rnd.mem(sum(m.used_frames() for m in machines))
            rnd.count("cluster.waves", waves)
            rnd.count("cluster.reroutes", result.gateway_stats["rerouted"])
            for machine in machines:
                rnd.vm(machine)
                rnd.audit(machine)
            with rnd.setup():
                fleet.shutdown()
            if reference is None:
                # Replicas load their data while the Fleet is built, so the
                # empty-machine counts come from a fresh machine of the
                # same size.
                phys_mb = machines[0].allocator.n_frames * PAGE_SIZE // MIB
                reference = rnd.baseline(Machine(phys_mb=phys_mb))
            for machine in machines:
                rnd.released(machine, reference)


WORKLOADS = {
    "fork-sweep": fork_sweep,
    "faas-burst": faas_burst,
    "reclaim-overcommit": reclaim_overcommit,
    "fleet-waves": fleet_waves,
}

#: Benchmark sizes.  One round measures 2-10 CPU-s on a 2-vCPU x86 VM and
#: yields at least 100 virtual samples per flavour, enough for a p90 with
#: 10 samples beyond it.  fork-sweep's classic pool is 8 + 8 forks per
#: size plus 7 x 3 SMP forks (101): a 16 GB classic fork costs 0.5 s of
#: host CPU, so 20 per cell would not fit the run-time budget.
FULL = {
    "fork-sweep": {"sizes_gb": (0.5, 1, 2, 4, 16),
                   "ops": {"fork": 8, "fork_huge": 8, "odfork": 20},
                   "smp_instances": 3, "smp_heap_gb": 1, "smp_repeats": 7},
    "faas-burst": {"rate_rps": 200_000.0, "n_requests": 500, "campaigns": 2},
    "reclaim-overcommit": {"phys_mb": 32, "swap_mb": 128,
                           "overcommits": (1.5, 3.0), "dispatches": 50,
                           "write_pages": 64},
    "fleet-waves": {"replicas": 4, "rate_rps": 1e6, "n_requests": 24_000,
                    "write_ratio": 0.10, "data_mb": 48, "n_waves": 6,
                    "wave_interval_ms": 3.0},
}

#: Seconds-scale sizes for the tests: the same code paths on tiny inputs.
TINY = {
    "fork-sweep": {"sizes_gb": (0.0625,),
                   "ops": {"fork": 2, "fork_huge": 2, "odfork": 2},
                   "smp_instances": 2, "smp_heap_gb": 0.03125,
                   "smp_repeats": 1},
    "faas-burst": {"rate_rps": 200_000.0, "n_requests": 40, "campaigns": 1},
    "reclaim-overcommit": {"phys_mb": 32, "swap_mb": 128,
                           "overcommits": (1.5,), "dispatches": 4,
                           "write_pages": 16},
    "fleet-waves": {"replicas": 2, "rate_rps": 1e6, "n_requests": 1500,
                    "write_ratio": 0.10, "data_mb": 16, "n_waves": 2,
                    "wave_interval_ms": 1.0},
}
