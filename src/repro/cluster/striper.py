"""Traffic striping policies: how the gateway spreads keys over replicas.

Two policies, both fully deterministic for a given seed:

``RoundRobinStriper``
    Ignores the key; request *i* goes to replica ``i % N``.  Perfect load
    balance, no key affinity — every replica sees every key, so a
    snapshot on any one replica perturbs a slice of *all* traffic.

``ConsistentHashStriper``
    A classic hash ring with virtual nodes.  Each replica owns ``vnodes``
    points on a 32-bit ring (positions are ``crc32(seed:replica:vnode)``,
    so they do not depend on ``PYTHONHASHSEED``); a key routes to the
    first vnode clockwise from ``crc32(seed:key)``.  Removing a replica
    remaps only the arc it owned (~1/N of keys), which is what makes the
    drain-then-snapshot strategy cheap: traffic for a draining replica
    fails over to its ring successor and everyone else is untouched.
"""

from __future__ import annotations

import bisect
import zlib

from ..errors import InvalidArgumentError


def _crc(seed, *parts):
    """Deterministic 32-bit hash (stable across runs and interpreters)."""
    data = ":".join(str(p) for p in (seed,) + parts).encode()
    return zlib.crc32(data) & 0xFFFFFFFF


class RoundRobinStriper:
    """Stateless rotation over the replica set."""

    policy = "rr"

    def __init__(self, n_replicas, seed=0):
        if n_replicas < 1:
            raise InvalidArgumentError("need at least one replica")
        self.n_replicas = n_replicas
        self.seed = seed
        self._next = 0

    def route(self, key):
        """Replica index for the next request (key is ignored)."""
        return self.route_many((key,))[0]

    def route_many(self, keys):
        """The replicas for the next ``len(keys)`` requests, as one list."""
        n, start = self.n_replicas, self._next
        self._next = (start + len(keys)) % n
        return [(start + i) % n for i in range(len(keys))]

    def successor(self, replica, skip=()):
        """The next replica in rotation that is not in ``skip``."""
        for step in range(1, self.n_replicas):
            candidate = (replica + step) % self.n_replicas
            if candidate not in skip:
                return candidate
        return replica

    def reset(self):
        """Back to replica 0 (so identical runs assign identically)."""
        self._next = 0


class ConsistentHashStriper:
    """Hash ring with virtual nodes; same seed -> same assignment."""

    policy = "hash"

    def __init__(self, n_replicas, seed=0, vnodes=64):
        if n_replicas < 1:
            raise InvalidArgumentError("need at least one replica")
        if vnodes < 1:
            raise InvalidArgumentError("need at least one virtual node")
        self.n_replicas = n_replicas
        self.seed = seed
        self._ring = []            # sorted (position, replica)
        self._positions = []       # positions only, for bisect
        for replica in range(n_replicas):
            for v in range(vnodes):
                self._ring.append((_crc(seed, replica, v), replica))
        self._ring.sort()
        self._positions = [pos for pos, _ in self._ring]
        self._owners = [replica for _, replica in self._ring]

    def route(self, key):
        """Replica index owning ``key``'s ring position."""
        return self.route_many((key,))[0]

    def route_many(self, keys):
        """The replica owning each of ``keys``, as one list."""
        crc32, bisect_right = zlib.crc32, bisect.bisect_right
        positions, owners = self._positions, self._owners
        # Each key hashes the bytes ``_crc(seed, key)`` would, without its
        # generator join; past the last vnode the ring wraps to the first.
        prefix = f"{self.seed}:"
        homes = []
        for key in keys:
            index = bisect_right(positions, crc32(f"{prefix}{key}".encode()))
            homes.append(owners[index % len(owners)])
        return homes

    def successor(self, replica, skip=()):
        """The next distinct replica clockwise (drain failover target).

        ``skip`` lists replicas that are themselves unavailable; with every
        replica skipped the original target is returned (nowhere to go).
        """
        order = sorted(set(r for _, r in self._ring))
        start = order.index(replica)
        for step in range(1, len(order)):
            candidate = order[(start + step) % len(order)]
            if candidate not in skip:
                return candidate
        return replica

    def reset(self):
        """No per-request state; present for striper interface parity."""


def make_striper(policy, n_replicas, seed=0, vnodes=64):
    """Factory keyed by policy name ("rr" or "hash")."""
    if policy == "rr":
        return RoundRobinStriper(n_replicas, seed=seed)
    if policy == "hash":
        return ConsistentHashStriper(n_replicas, seed=seed, vnodes=vnodes)
    raise InvalidArgumentError(f"unknown striping policy {policy!r}")
