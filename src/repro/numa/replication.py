"""Mitosis-style transparent page-table replication.

Mitosis (ASPLOS'20, see PAPERS.md) replicates a process's page tables
onto every NUMA node so page walks always hit node-local memory.  This
module models that: when ``NumaTopology(replicate=True)``, every table a
process allocates gets one *replica frame* per remote node, strictly
node-local, and page walks by an entitled process charge local-walk cost
regardless of where the primary table frame lives.

Modeling choice: replica frames are real allocated frames (they consume
per-node memory, appear in per-node accounting, and are what the
``mitosis.replica_alloc`` failpoint OOMs), but the *entry array* is
logically shared with the primary — coherence is charged, not copied.
Every table mutation funnels through :meth:`fanout_write`, which charges
the per-replica update writes Mitosis performs, so costs are faithful
while the verify oracle's digests stay trivially coherent.

The odfork interaction (the experiment neither paper ran) is governed by
``NumaTopology.odfork_replica_policy``:

* ``share-one`` — a shared table keeps its replicas but only the *owner*
  mm (the parent, until table-COW/unshare adopts a new owner) walks
  them; other sharers walk the primary at remote cost.
* ``share-all`` — every sharer walks the replicas; maximum locality,
  widest shootdown fan-out.
* ``collapse`` — sharing a table frees its replicas (back to one
  primary); table-COW copies re-replicate on allocation.

OOM discipline: replica allocation is best-effort.  If any per-node
frame allocation fails (organically or via the armed failpoint), frames
already allocated for that table are unwound and the table simply runs
unreplicated — the shared-table path — leaking nothing.
"""

from __future__ import annotations

from ..errors import OutOfMemoryError
from ..mem.page import PG_PAGETABLE
from ..sancheck.annotations import must_hold, releases_refs
from ..trace import points


class MitosisState:
    """Replica registry plus the coherence write fan-out."""

    def __init__(self, kernel, topology):
        self.kernel = kernel
        self.topology = topology
        #: primary table pfn -> {node: replica pfn} (all remote nodes, or absent)
        self.replicas = {}
        #: replica pfn -> primary table pfn (reverse map, for audits)
        self.replica_of = {}
        #: primary table pfn -> owning mm (entitlement under share-one)
        self.owner = {}

    # ---- lifecycle -------------------------------------------------------

    def replicate_table(self, mm, table):
        """Allocate per-node replicas for a fresh table; best-effort.

        Returns True when the table is fully replicated, False when an
        allocation failed and the table stays unreplicated (all frames
        allocated so far are unwound — nothing leaks).
        """
        kernel = self.kernel
        home = kernel.allocator.node_of(table.pfn)
        got = {}
        for node in range(self.topology.nodes):
            if node == home:
                continue
            try:
                kernel.failpoints.hit("mitosis.replica_alloc")
                pfn = int(kernel.allocator.alloc(0, node=node, strict=True))
            except OutOfMemoryError:
                for rpfn in got.values():
                    kernel.pages.on_free(rpfn)
                    kernel.allocator.free(rpfn, 0)
                kernel.stats.replica_fallbacks += 1
                if points.enabled:
                    points.tracepoint("mitosis.replica_skip",
                                      table_pfn=int(table.pfn), node=node)
                return False
            kernel.pages.on_alloc(pfn, PG_PAGETABLE)
            kernel.cost.charge_replica_alloc()
            got[node] = pfn
        if got:
            self.replicas[table.pfn] = got
            for rpfn in got.values():
                self.replica_of[rpfn] = table.pfn
            self.owner[table.pfn] = mm
            mm.replicated = True
            kernel.stats.replica_allocs += len(got)
            if points.enabled:
                points.tracepoint("mitosis.replica_alloc",
                                  table_pfn=int(table.pfn), nodes=len(got),
                                  node=home)
        return True

    @must_hold("mmap_lock")
    @releases_refs("page")
    def collapse_table(self, table_pfn, reason="collapse"):
        """Free a table's replicas, reverting it to the single primary.

        Called when odfork shares a table under the ``collapse`` policy
        and when a table frame is freed; after it returns no replica
        frame for ``table_pfn`` remains allocated or registered.
        """
        got = self.replicas.pop(table_pfn, None)
        self.owner.pop(table_pfn, None)
        if not got:
            return 0
        kernel = self.kernel
        for rpfn in got.values():
            del self.replica_of[rpfn]
            kernel.pages.on_free(rpfn)
            kernel.phys.zero(rpfn)
            kernel.allocator.free(rpfn, 0)
        kernel.cost.charge_replica_collapse(len(got))
        kernel.stats.replica_collapses += 1
        if points.enabled:
            points.tracepoint("mitosis.replica_collapse",
                              table_pfn=int(table_pfn), n_replicas=len(got),
                              reason=reason,
                              node=kernel.allocator.node_of(table_pfn))
        return len(got)

    def adopt_owner(self, table_pfn, mm):
        """Transfer walk entitlement (sole-owner unshare, table-COW exit)."""
        if table_pfn in self.replicas:
            self.owner[table_pfn] = mm

    # ---- coherence -------------------------------------------------------

    @must_hold("mmap_lock")
    def fanout_write(self, table, n_entries=1):
        """Charge the per-replica entry updates a table mutation costs."""
        got = self.replicas.get(table.pfn)
        if not got:
            return
        kernel = self.kernel
        kernel.cost.charge_replica_sync(len(got), n_entries)
        kernel.stats.replica_syncs += 1
        if points.enabled:
            points.tracepoint("mitosis.replica_sync",
                              table_pfn=int(table.pfn), nodes=len(got),
                              entries=n_entries,
                              node=kernel.allocator.node_of(table.pfn))

    # ---- walk entitlement ------------------------------------------------

    def entitled(self, mm, table_pfn):
        """Whether ``mm``'s walks may use ``table_pfn``'s replicas."""
        if table_pfn not in self.replicas:
            return False
        if self.topology.odfork_replica_policy == "share-all":
            return True
        return self.owner.get(table_pfn) is mm

    # ---- accounting (audits) ---------------------------------------------

    def replica_frame_count(self):
        """Total replica frames currently allocated."""
        return len(self.replica_of)
