"""The protocol gateway: striping, admission, and the NIC pair per path.

Every client request enters through the gateway's **front NIC**, is
striped to a replica (consistent-hash or round-robin), crosses that
replica's **back NIC**, gets served, and returns the same way.  The
gateway is where fleet-wide admission decisions live:

* **queue overflow** — with a configured per-replica queue limit, a
  request that would exceed it is dropped at the gateway (accounted,
  never silently lost).  The ``gateway.queue_overflow`` fail-point
  injects the same drop path deterministically.
* **drain failover** — while the snapshot coordinator is draining a
  replica, its traffic is re-striped to the ring successor.

The gateway never advances a machine clock: it books analytic NIC and
link costs in fleet time, in the markkampe sum-of-resources style.
"""

from __future__ import annotations

from ..errors import InvalidArgumentError
from .net import Link, Nic, RX, TX
from .striper import make_striper


class Gateway:
    """Front door of the fleet: striper + front NIC + per-replica back NICs."""

    def __init__(self, n_replicas, policy="hash", seed=0,
                 front_gbps=40.0, back_gbps=10.0, hop_us=5.0,
                 req_bytes=128, resp_bytes=256, queue_limit=None,
                 failpoints=None, nic_retransmit_us=50.0):
        if req_bytes <= 0 or resp_bytes <= 0:
            raise InvalidArgumentError("message sizes must be positive")
        if queue_limit is not None and queue_limit < 1:
            raise InvalidArgumentError("queue limit must be >= 1 (or None)")
        self.n_replicas = n_replicas
        self.striper = make_striper(policy, n_replicas, seed=seed)
        self.front_nic = Nic("front", gbps=front_gbps,
                             failpoints=failpoints,
                             retransmit_us=nic_retransmit_us)
        self.back_nics = [Nic(f"back{i}", gbps=back_gbps,
                              failpoints=failpoints,
                              retransmit_us=nic_retransmit_us)
                          for i in range(n_replicas)]
        self.uplink = Link("uplink", latency_us=hop_us)
        self.req_bytes = req_bytes
        self.resp_bytes = resp_bytes
        self.queue_limit = queue_limit
        self.failpoints = failpoints
        self.accepted = 0
        self.dropped = 0
        self.rerouted = 0
        self.drops_by_replica = [0] * n_replicas

    # ---- admission & routing ---------------------------------------------

    def route(self, key, draining=()):
        """Replica index for ``key``; drained replicas fail over."""
        return self.failover(self.striper.route(key), draining)

    def failover(self, replica, draining):
        """``replica``, or its successor when it is in ``draining``."""
        if replica in draining:
            target = self.striper.successor(replica, skip=draining)
            if target != replica:
                self.rerouted += 1
                replica = target
        return replica

    def admit(self, replica, queue_len):
        """True when the request may proceed; False records a drop."""
        overflow = (self.queue_limit is not None
                    and queue_len >= self.queue_limit)
        failpoints = self.failpoints
        if (failpoints is not None and failpoints.active
                and failpoints.fails("gateway.queue_overflow")):
            overflow = True
        if overflow:
            self.dropped += 1
            self.drops_by_replica[replica] += 1
            return False
        self.accepted += 1
        return True

    # ---- analytic transfer paths -----------------------------------------

    def inbound(self, replica, at_ns):
        """Client -> gateway -> replica; returns arrival time at the server."""
        hop = self.uplink.traverse()
        t = at_ns + self.front_nic.transfer(RX, self.req_bytes, at_ns) + hop
        t += self.back_nics[replica].transfer(RX, self.req_bytes, t)
        return t + hop

    def outbound(self, replica, at_ns):
        """Replica -> gateway -> client; returns delivery time."""
        hop = self.uplink.traverse()
        t = at_ns + self.back_nics[replica].transfer(TX, self.resp_bytes,
                                                     at_ns) + hop
        t += self.front_nic.transfer(TX, self.resp_bytes, t)
        return t + hop

    # ---- reporting --------------------------------------------------------

    def nic_stats(self):
        """Front + per-replica back NIC tallies."""
        out = {"front": self.front_nic.stats()}
        for nic in self.back_nics:
            out[nic.name] = nic.stats()
        return out

    def stats(self):
        return {
            "policy": self.striper.policy,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "rerouted": self.rerouted,
        }
