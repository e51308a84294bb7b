"""Fleet fault-injection leg: a replica failure must never corrupt the
fleet's accounting.

The cluster layer carries three fail-point sites — ``gateway.queue_overflow``
(a request bounced at admission), ``dlm.acquire_timeout`` (a snapshot
sub-wave losing its epoch-lock grant), and ``nic.tx_drop`` (one transmit
retransmitted) — all *value-reporting* paths: the injected failure is
absorbed, not raised.  This leg arms each recorded hit of each site over a
tiny fleet campaign and asserts the absorption really is clean:

* **conservation** — completed + dropped == generated, and the per-replica
  completion split sums to the fleet total;
* **kernel audits** — every replica Machine passes ``audit_machine``
  after the campaign (no refcount drift from a fork wave that was skipped
  or a request that was dropped mid-flight);
* **clean teardown** — after ``shutdown()`` every replica's snapshot
  children are reaped and the server task exits without residue.

An unarmed baseline run (record mode) both checks the happy path and
enumerates the hit space, exactly like the kernel failpoint sweep in
``oracle.enumerate_failpoints``.  The sweep runs once per strategy in
:data:`FLEET_STRATEGIES`: ``drain`` is the one whose requests take the
gateway's failover path while a replica snapshots.
"""

from __future__ import annotations

from ..cluster.coordinator import EPOCH_LOCK
from ..cluster.fleet import Fleet, FleetConfig
from .audit import audit_machine
from .oracle import Finding

#: The cluster-layer sites this leg sweeps (MECHANISM.md §14).
FLEET_SITES = ("gateway.queue_overflow", "dlm.acquire_timeout",
               "nic.tx_drop")
#: The wave strategies each site is swept under.
FLEET_STRATEGIES = ("staggered", "drain")


def _small_config(seed, strategy="staggered"):
    """A seconds-scale fleet: 3 replicas, 3k arrivals, 2 snapshot waves."""
    return FleetConfig(replicas=3, data_mb=16, n_requests=3000,
                       rate_rps=1e6, strategy=strategy, stagger_k=1,
                       wave_interval_ms=1.0, n_waves=2, seed=seed)


def _run_and_audit(config, arm=None, record=False):
    """One campaign; returns (findings, failpoint counts, result)."""
    findings = []
    label = (f"fleet/{config.strategy}/"
             + (f"{arm[0]}#{arm[1]}" if arm else "baseline"))
    fleet = Fleet(config)
    if record:
        fleet.failpoints.record()
    elif arm is not None:
        fleet.failpoints.arm(*arm)
    try:
        result = fleet.run()
    except Exception as exc:                         # noqa: BLE001
        fleet.shutdown()
        return ([Finding("crash", -1,
                         f"fleet campaign raised {exc!r}", label)],
                {}, None)
    counts = dict(fleet.failpoints.counts)
    fleet.failpoints.disarm()

    if arm is not None and not fleet.failpoints.fired:
        findings.append(Finding(
            "invariant", -1,
            f"armed hit never fired (site saw "
            f"{counts.get(arm[0], 0)} hits)", label))
    if not result.conserved():
        findings.append(Finding(
            "invariant", -1,
            f"accounting not conserved: generated={result.generated} "
            f"completed={result.completed} dropped={result.dropped} "
            f"by_replica={result.aggregator.completed_by_replica()}",
            label))
    if fleet.dlm.holder(EPOCH_LOCK) is not None:
        findings.append(Finding(
            "invariant", -1,
            f"epoch lock still held by "
            f"{fleet.dlm.holder(EPOCH_LOCK)!r} after the campaign", label))

    # Post-campaign kernel audit: a skipped wave or dropped request must
    # leave every replica's paging state internally consistent.
    for replica in fleet.replicas:
        try:
            audit_machine(replica.machine)
        except AssertionError as exc:
            findings.append(Finding(
                "audit", -1, f"{replica.name}: {exc}", label))

    # Clean teardown: reap children, exit servers, audit once more.
    fleet.shutdown()
    for replica in fleet.replicas:
        if replica.live_children:
            findings.append(Finding(
                "leak", -1,
                f"{replica.name}: {replica.live_children} snapshot "
                f"children survived shutdown", label))
        try:
            audit_machine(replica.machine)
        except AssertionError as exc:
            findings.append(Finding(
                "audit", -1, f"{replica.name} post-shutdown: {exc}", label))
    return findings, counts, result


def check_fleet(seed=0, max_hits_per_site=3):
    """Baseline + armed sweep per strategy; returns ``(findings, meta)``.

    ``meta`` mirrors ``enumerate_failpoints``: total armed runs and how
    many recorded hits were sampled out by ``max_hits_per_site``, plus
    the campaigns run per strategy and each site's recorded hits summed
    over the strategies.
    """
    findings = []
    sampled_out = 0
    campaigns = {}
    sites = dict.fromkeys(FLEET_SITES, 0)
    for strategy in FLEET_STRATEGIES:
        config = _small_config(seed, strategy)
        found, counts, baseline = _run_and_audit(config, record=True)
        findings.extend(found)
        n_runs = 1
        if baseline is not None and baseline.dropped:
            findings.append(Finding(
                "invariant", -1,
                f"unarmed baseline dropped {baseline.dropped} requests",
                f"fleet/{strategy}/baseline"))
        for site in FLEET_SITES:
            hits = counts.get(site, 0)
            sites[site] += hits
            if hits == 0:
                continue    # site never reached by this campaign shape
            armed = min(hits, max_hits_per_site)
            sampled_out += hits - armed
            for nth in range(1, armed + 1):
                armed_findings, _, _ = _run_and_audit(config,
                                                      arm=(site, nth))
                findings.extend(armed_findings)
                n_runs += 1
        campaigns[strategy] = n_runs
    return findings, {"runs": sum(campaigns.values()),
                      "sampled_out": sampled_out,
                      "campaigns": campaigns, "sites": sites}
