"""Contention plumbing: groups and their end-to-end effect."""

import pytest

from repro import GIB, MIB, Machine
from repro.errors import InvalidArgumentError
from repro.timing import CostModel, CostParams, SimClock, contention_group


class TestContentionGroup:
    def test_sets_and_restores(self):
        model = CostModel(clock=SimClock(), params=CostParams())
        with contention_group(model, 3):
            assert model.contention_level == 3
        assert model.contention_level == 1

    def test_restores_on_exception(self):
        model = CostModel(clock=SimClock(), params=CostParams())
        with pytest.raises(RuntimeError):
            with contention_group(model, 5):
                raise RuntimeError("boom")
        assert model.contention_level == 1

    def test_invalid_count(self):
        model = CostModel(clock=SimClock(), params=CostParams())
        with pytest.raises(InvalidArgumentError):
            with contention_group(model, 0):
                pass


class TestEndToEndContention:
    def test_fork_latency_monotone_in_contenders(self):
        latencies = []
        for k in (1, 2, 4):
            machine = Machine(phys_mb=1024)
            p = machine.spawn_process("contender")
            addr = p.mmap(256 * MIB)
            p.touch_range(addr, 256 * MIB, write=True)
            with machine.concurrency(k):
                p.fork()
            latencies.append(p.last_fork_ns)
        assert latencies[0] < latencies[1] < latencies[2]

    def test_odfork_nearly_contention_immune(self):
        """odfork skips the contended leaf loop: the paper's scalability
        claim."""
        results = {}
        for k in (1, 4):
            machine = Machine(phys_mb=1024)
            p = machine.spawn_process("odf")
            addr = p.mmap(256 * MIB)
            p.touch_range(addr, 256 * MIB, write=True)
            with machine.concurrency(k):
                p.odfork()
            results[k] = p.last_fork_ns
        assert results[4] < results[1] * 1.2
