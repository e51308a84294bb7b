"""Network cost model for the fleet layer: links and bandwidth-shared NICs.

Following the markkampe premise (SNIPPETS.md) this is *not* a packet
simulator: a transfer's cost is an analytic sum — per-hop wire latency
plus the time the message occupies the NIC (``bytes / bandwidth``) plus
whatever queueing delay earlier transfers already booked on that NIC.
Each :class:`Nic` is full duplex: the tx and rx directions keep
independent ``free_at`` cursors, so a response stream never queues behind
the request stream.

Accounting mirrors the load-warning style of the markkampe Gateway/Server
models: every transfer's queue delay is tallied, and a delay above the
warning threshold bumps ``load_warnings`` — the fleet report surfaces a
NIC that is becoming the bottleneck long before it saturates outright.

The ``nic.tx_drop`` fail-point models a lost frame on the transmit side:
the transfer is charged one retransmit timeout on top of its normal cost
(the message still arrives — fleet request accounting stays conserved).
"""

from __future__ import annotations

from ..errors import InvalidArgumentError
from ..trace import points

#: The two directions: ``transfer``/``stats`` keys and ``Nic`` attributes.
TX = "tx"
RX = "rx"


class Link:
    """A fixed-latency hop (gateway uplink, top-of-rack cable)."""

    __slots__ = ("name", "latency_ns")

    def __init__(self, name, latency_us=5.0):
        if latency_us < 0:
            raise InvalidArgumentError("link latency cannot be negative")
        self.name = name
        self.latency_ns = int(latency_us * 1_000)

    def traverse(self):
        """Cost of one message crossing the link (ns)."""
        return self.latency_ns


class _Direction:
    """One NIC direction: a free-at cursor plus its tallies."""

    __slots__ = ("free_at_ns", "messages", "bytes", "busy_ns",
                 "queue_delay_ns", "load_warnings", "retransmits")

    def __init__(self):
        self.free_at_ns = 0
        self.messages = 0
        self.bytes = 0
        self.busy_ns = 0
        self.queue_delay_ns = 0
        self.load_warnings = 0
        self.retransmits = 0


class Nic:
    """A bandwidth-shared network interface (front- or back-side).

    ``transfer()`` returns the total delay a message experiences at this
    NIC: queueing behind earlier transfers, then ``bytes / bandwidth`` of
    occupancy.  The caller adds link latency separately, so a NIC shared
    by many flows (the gateway's front NIC) naturally becomes the queueing
    point while idle back NICs add only their occupancy.
    """

    def __init__(self, name, gbps=10.0, warn_queue_us=50.0,
                 failpoints=None, retransmit_us=50.0):
        if gbps <= 0:
            raise InvalidArgumentError("NIC bandwidth must be positive")
        self.name = name
        self.gbps = float(gbps)
        self.warn_queue_ns = int(warn_queue_us * 1_000)
        self.retransmit_ns = int(retransmit_us * 1_000)
        self.failpoints = failpoints
        self.tx = _Direction()
        self.rx = _Direction()
        self._occupancy = {}          # nbytes -> occupancy_ns(nbytes)

    def occupancy_ns(self, nbytes):
        """Time ``nbytes`` occupies the wire at this NIC's bandwidth."""
        return int(round(nbytes * 8 / self.gbps))

    def transfer(self, direction, nbytes, at_ns):
        """Book one message; returns the delay it sees at this NIC (ns).

        Out-of-order ``at_ns`` on the response path is tolerated: the
        cursor only moves forward, so a late booking simply sees whatever
        queue the earlier ones built (sum-of-resources stays exact, the
        per-message queue split is approximate).
        """
        occupy = self._occupancy.get(nbytes)
        if occupy is None:
            if nbytes <= 0:
                raise InvalidArgumentError("transfer needs a positive size")
            occupy = self._occupancy[nbytes] = self.occupancy_ns(nbytes)
        is_tx = direction == TX
        d = self.tx if is_tx else self.rx
        start = at_ns if at_ns > d.free_at_ns else d.free_at_ns
        queue_ns = start - at_ns
        d.free_at_ns = start + occupy
        d.messages += 1
        d.bytes += nbytes
        d.busy_ns += occupy
        d.queue_delay_ns += queue_ns
        if queue_ns > self.warn_queue_ns:
            d.load_warnings += 1
        delay = queue_ns + occupy
        failpoints = self.failpoints
        if (is_tx and failpoints is not None and failpoints.active
                and failpoints.fails("nic.tx_drop")):
            # Lost frame: the sender eats one retransmit timeout and the
            # message goes out again — delivered late, never dropped.
            d.retransmits += 1
            delay += self.retransmit_ns
        if points.enabled:
            if is_tx:
                points.tracepoint("nic.tx", nic=self.name,
                                  nbytes=nbytes, queue_ns=queue_ns)
            else:
                points.tracepoint("nic.rx", nic=self.name,
                                  nbytes=nbytes, queue_ns=queue_ns)
        return delay

    def stats(self, direction=None):
        """Tallies for one direction, or both nested under ``tx``/``rx``."""
        if direction is not None:
            d = getattr(self, direction)
            return {
                "messages": d.messages,
                "bytes": d.bytes,
                "busy_ns": d.busy_ns,
                "queue_delay_ns": d.queue_delay_ns,
                "load_warnings": d.load_warnings,
                "retransmits": d.retransmits,
            }
        return {TX: self.stats(TX), RX: self.stats(RX)}

    def __repr__(self):
        return (f"Nic({self.name!r}, {self.gbps} Gb/s, "
                f"tx_msgs={self.tx.messages}, "
                f"rx_msgs={self.rx.messages})")
