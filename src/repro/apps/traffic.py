"""Load generators: closed-loop (memtier/wrk) and open-loop arrivals.

**Closed-loop** clients (:class:`MemtierClient`, :class:`WrkClient`)
couple the arrival process to the service process: a fixed window of
requests is outstanding, and a new request is issued only when a response
returns.  The offered load therefore *adapts* to the server — a slow
server is offered less — which is exactly what memtier_benchmark and wrk
do, and what the paper's Table 4/6 measurements assume.  The memtier
model keeps ``connections x pipeline_depth`` requests outstanding, so a
multi-millisecond fork block surfaces as queueing delay on everything
pipelined behind it.

**Open-loop** arrivals (:class:`ArrivalProcess`, :class:`OpenLoopClient`)
decouple the two: requests arrive on their own schedule (Poisson or
deterministic at a configured rate) whether or not the server keeps up.
This is the production-traffic model — users do not stop clicking while
Redis forks — and it is strictly harsher on tails: during a fork block
the queue *grows at the arrival rate*, so latency accumulates linearly
with block length instead of being capped by the pipeline window.  The
queue is unbounded by default; with ``queue_limit`` set, excess arrivals
are dropped and accounted, never silently lost.  The fleet layer
(:mod:`repro.cluster`) drives every replica with this model.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import InvalidArgumentError

#: Arrival time distributions the open-loop generator supports.
DISTRIBUTIONS = ("poisson", "deterministic")


class MemtierClient:
    """memtier_benchmark: 3 connections, pipeline depth 2000 (paper §5.3.3)."""

    def __init__(self, store, connections=3, pipeline_depth=2000,
                 write_ratio=0.10, seed=17):
        if connections <= 0 or pipeline_depth <= 0:
            raise InvalidArgumentError("connections/pipeline must be positive")
        if not 0 <= write_ratio <= 1:
            raise InvalidArgumentError("write ratio must be in [0, 1]")
        self.store = store
        self.outstanding = connections * pipeline_depth
        self.write_ratio = write_ratio
        self._rng = np.random.RandomState(seed)

    def run(self, n_requests):
        """Drive ``n_requests`` through the store; returns latencies (ns)."""
        clock = self.store.machine.clock
        keys = self._rng.randint(0, self.store.n_keys, size=n_requests)
        writes = self._rng.random_sample(n_requests) < self.write_ratio
        queue = deque([clock.now_ns] * self.outstanding)
        latencies = np.empty(n_requests, dtype=np.int64)
        store = self.store
        for i in range(n_requests):
            arrival = queue.popleft()
            if writes[i]:
                store.handle_set(int(keys[i]))
            else:
                store.handle_get(int(keys[i]))
            completion = clock.now_ns
            latencies[i] = completion - arrival
            queue.append(completion)
        store.reap_finished_children(force=True)
        return latencies


class ArrivalProcess:
    """Open-loop arrival timestamps at a fixed offered rate.

    ``poisson`` draws i.i.d. exponential inter-arrival gaps (memoryless,
    the standard open-system model); ``deterministic`` spaces arrivals
    exactly ``1/rate`` apart (a pessimal-burst-free baseline).  Both are
    fully reproducible from the seed.
    """

    def __init__(self, rate_rps, distribution="poisson", seed=29,
                 start_ns=0):
        if rate_rps <= 0:
            raise InvalidArgumentError("arrival rate must be positive")
        if distribution not in DISTRIBUTIONS:
            raise InvalidArgumentError(
                f"distribution must be one of {DISTRIBUTIONS}, "
                f"got {distribution!r}")
        self.rate_rps = float(rate_rps)
        self.distribution = distribution
        self.start_ns = int(start_ns)
        self._rng = np.random.RandomState(seed)

    @property
    def mean_gap_ns(self):
        return 1e9 / self.rate_rps

    def arrivals(self, n):
        """``n`` monotonically non-decreasing arrival stamps (int64 ns)."""
        if n < 0:
            raise InvalidArgumentError("cannot generate negative arrivals")
        if self.distribution == "poisson":
            gaps = self._rng.exponential(self.mean_gap_ns, size=n)
        else:
            gaps = np.full(n, self.mean_gap_ns)
        stamps = self.start_ns + np.cumsum(gaps)
        return stamps.astype(np.int64)


class OpenLoopResult:
    """Outcome of one open-loop run: samples plus queue/drop accounting."""

    def __init__(self, latencies, generated, dropped, max_queue_len,
                 queue_len_sum):
        self.latencies = latencies          # np.int64 ns, completed only
        self.generated = generated
        self.dropped = dropped
        self.max_queue_len = max_queue_len
        self._queue_len_sum = queue_len_sum

    @property
    def completed(self):
        return len(self.latencies)

    @property
    def mean_queue_len(self):
        """Mean queue depth observed at arrival instants."""
        if self.generated == 0:
            return 0.0
        return self._queue_len_sum / self.generated

    def conserved(self):
        """Every generated request is accounted completed or dropped."""
        return self.completed + self.dropped == self.generated


class OpenLoopClient:
    """Open-loop driver for a single KV store.

    Requests arrive per the :class:`ArrivalProcess` regardless of server
    progress; the server works them off FIFO, one at a time.  A request's
    latency is its queueing delay behind everything still in the queue
    (including any snapshot fork block the server took) plus its own
    service time, measured off the store's machine clock.  With
    ``queue_limit`` set, an arrival that finds the queue full is dropped
    and counted; the default queue is unbounded.
    """

    def __init__(self, store, rate_rps, distribution="poisson",
                 write_ratio=0.10, seed=31, queue_limit=None):
        if not 0 <= write_ratio <= 1:
            raise InvalidArgumentError("write ratio must be in [0, 1]")
        if queue_limit is not None and queue_limit < 1:
            raise InvalidArgumentError("queue limit must be >= 1 (or None)")
        self.store = store
        self.arrivals = ArrivalProcess(rate_rps, distribution=distribution,
                                       seed=seed)
        self.write_ratio = write_ratio
        self.queue_limit = queue_limit
        self._rng = np.random.RandomState(seed + 1)

    def run(self, n_requests):
        """Drive ``n_requests`` arrivals; returns an :class:`OpenLoopResult`."""
        store = self.store
        clock = store.machine.clock
        stamps = self.arrivals.arrivals(n_requests)
        keys = self._rng.randint(0, store.n_keys, size=n_requests)
        writes = self._rng.random_sample(n_requests) < self.write_ratio

        latencies = []
        completions = deque()       # completion stamps of queued requests
        ready_at = 0                # when the server next frees
        dropped = 0
        max_qlen = 0
        qlen_sum = 0
        for i in range(n_requests):
            arrival = int(stamps[i])
            while completions and completions[0] <= arrival:
                completions.popleft()
            qlen = len(completions)
            qlen_sum += qlen
            max_qlen = max(max_qlen, qlen)
            if self.queue_limit is not None and qlen >= self.queue_limit:
                dropped += 1
                continue
            start = max(arrival, ready_at)
            clock.advance_to(start)
            before = clock.now_ns
            if writes[i]:
                store.handle_set(int(keys[i]))
            else:
                store.handle_get(int(keys[i]))
            service = clock.now_ns - before
            # The store may have taken a snapshot inside handle_set; its
            # fork block is part of this request's service window and
            # delays everything queued behind it.
            end = start + service
            ready_at = end
            completions.append(end)
            latencies.append(end - arrival)
        store.reap_finished_children(force=True)
        return OpenLoopResult(
            latencies=np.asarray(latencies, dtype=np.int64),
            generated=n_requests, dropped=dropped,
            max_queue_len=max_qlen, queue_len_sum=qlen_sum)


class WrkClient:
    """wrk: fixed-duration closed-loop HTTP load (paper §5.3.5).

    Unlike the single-threaded KV store, a prefork server has more workers
    than wrk has connections, so requests never queue behind one another:
    the model sends them to ``server`` one at a time, reports each one's
    service time as its latency (what wrk measures per connection), and
    lets the virtual clock advance through every request to pace the run.
    """

    def __init__(self, server, seed=23):
        self.server = server
        self._rng = np.random.RandomState(seed)

    def run_duration(self, seconds):
        """Issue requests for ``seconds`` of virtual time; returns ns latencies."""
        clock = self.server.machine.clock
        deadline = clock.now_ns + int(seconds * 1e9)
        latencies = []
        while clock.now_ns < deadline:
            start = clock.now_ns
            self.server.handle_request(self._rng)
            latencies.append(clock.now_ns - start)
        return np.asarray(latencies, dtype=np.int64)
