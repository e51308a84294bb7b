"""Fixture-driven unit tests for each sancheck rule family.

Every rule has a known-bad fixture that must fire *exactly* its rule and
a known-good twin that must pass clean — so a rule that goes blind (or
trigger-happy) fails here before it rots the repo gate in
test_sancheck_repo.py.  Fixtures live in tests/fixtures/sancheck/.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sancheck.checker import check_paths

FIXTURES = Path(__file__).parent / "fixtures" / "sancheck"

#: bad fixture -> the one rule it must trip (and nothing else).
BAD = {
    "bad_lock.py": "lock-context",
    "bad_failpoint.py": "failpoint",
    "bad_refcount.py": "refcount",
    "bad_tlb.py": "tlb",
    "bad_ignore.py": "ignore",
    "bad_tracepoint.py": "trace-registry",
    "bad_replica.py": "refcount",
    "bad_clockcharge.py": "clock-charge",
    "bad_metrics.py": "metrics",
    "bad_fastpath.py": "fastpath-sound",
    "bad_faas_site.py": "metrics",
    "bad_copy_references.py": "refcount",
    "bad_sharers.py": "metrics",
}

GOOD = ["good_lock.py", "good_failpoint.py", "good_refcount.py",
        "good_tlb.py", "good_ignore.py", "good_tracepoint.py",
        "good_replica.py", "good_clockcharge.py", "good_metrics.py",
        "good_fastpath.py", "good_faas_site.py", "good_copy_references.py",
        "good_sharers.py"]


def run_fixture(name):
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {name}"
    return check_paths([path])


@pytest.mark.parametrize("name,rule", sorted(BAD.items()))
def test_bad_fixture_trips_exactly_its_rule(name, rule):
    violations = run_fixture(name)
    assert violations, f"{name} produced no violation"
    assert {v.rule for v in violations} == {rule}


@pytest.mark.parametrize("name", GOOD)
def test_good_fixture_is_clean(name):
    assert run_fixture(name) == []


class TestViolationShape:
    def test_lock_violation_names_missing_lock(self):
        (violation,) = run_fixture("bad_lock.py")
        assert violation.func == "racy_fault"
        assert "ptl" in violation.message

    def test_refcount_violation_names_pin_site(self):
        (violation,) = run_fixture("bad_refcount.py")
        assert violation.func == "share_page"
        assert "reference" in violation.message
        assert "taken at line" in violation.message

    def test_failpoint_violation_points_at_alloc(self):
        (violation,) = run_fixture("bad_failpoint.py")
        assert "failpoints.hit" in violation.message

    def test_tlb_violation_mentions_flush(self):
        (violation,) = run_fixture("bad_tlb.py")
        assert "flush" in violation.message.lower()

    def test_trace_registry_names_both_failure_modes(self):
        typo, dynamic = sorted(run_fixture("bad_tracepoint.py"),
                               key=lambda v: v.lineno)
        assert "not declared" in typo.message
        assert "demand_zreo" in typo.message
        assert "string literal" in dynamic.message

    def test_unjustified_ignore_demands_reason(self):
        (violation,) = run_fixture("bad_ignore.py")
        assert "justification" in violation.message

    def test_clock_charge_names_the_mutation_site(self):
        (violation,) = run_fixture("bad_clockcharge.py")
        assert violation.func == "install_block"
        assert "virtual-clock charge" in violation.message
        assert "charge_deferred" in violation.message

    def test_metrics_violation_names_counter_and_unwind(self):
        (violation,) = run_fixture("bad_metrics.py")
        assert violation.func == "install_table"
        assert "'table'" in violation.message
        assert "counters_deferred" in violation.message

    def test_sharer_violation_names_the_sharers_counter(self):
        (violation,) = run_fixture("bad_sharers.py")
        assert violation.func == "share_table"
        assert "'sharers'" in violation.message

    def test_faas_site_violation_names_the_unregistered_site(self):
        (violation,) = run_fixture("bad_faas_site.py")
        assert violation.func == "cold_fork"
        assert "faas.cold_fork" in violation.message
        assert "SITES" in violation.message

    def test_fastpath_violation_names_the_missing_feature(self):
        (violation,) = run_fixture("bad_fastpath.py")
        assert violation.func == "fast_path_ok"
        assert "'compaction'" in violation.message
        assert "FASTPATH_HANDLED" in violation.message

    def test_violation_identity_is_line_independent(self):
        # Baseline entries key on rule:module:func, not line numbers.
        (violation,) = run_fixture("bad_tlb.py")
        assert violation.ident == "tlb:bad_tlb:zap_entry"


class TestReplicaUnwindShape:
    """The Mitosis replica-allocation unwind, statically.

    ``bad_replica.py`` drops the first replica's page reference on the
    second node's OOM path; the refcount rule must name the pinned frame
    and the raise exit.  ``good_replica.py`` is the same code with the
    real ``replicate_table`` unwind handler and must pass — together
    they prove the repo gate would catch a regression in the replication
    unwind discipline.
    """

    def test_dropped_replica_reference_flagged(self):
        (violation,) = run_fixture("bad_replica.py")
        assert violation.rule == "refcount"
        assert violation.func == "replicate_table"
        assert "rpfn" in violation.message
        assert "exception" in violation.message

    def test_unwound_replica_reference_passes(self):
        assert run_fixture("good_replica.py") == []


class TestSeededDefectStaticHalf:
    """The FAULT_INJECT_SKIP_PTL defect, statically (cf. test_kcsan.py).

    The knob makes ``access_flow`` mutate a leaf table without the split
    PTL at runtime; ``bad_lock.py`` is that exact shape in source form —
    a fault path calling a ``@must_hold("ptl")`` mutator bare — and the
    lock-context rule must flag it.  ``good_lock.py``'s ``flow_fault``
    is the knob-off shape (explicit ``Acquire``/``Release`` events) and
    must pass.
    """

    def test_ptl_skip_shape_flagged(self):
        (violation,) = run_fixture("bad_lock.py")
        assert violation.rule == "lock-context"
        assert "install_entry" in violation.message

    def test_ptl_held_shape_passes(self):
        assert run_fixture("good_lock.py") == []

    def test_fixture_tracks_the_knob(self):
        # Keep the fixture honest about what it models: if the knob is
        # ever renamed, update the fixture docstring alongside it.
        from repro.smp import ops
        assert hasattr(ops, "FAULT_INJECT_SKIP_PTL")
        text = (FIXTURES / "bad_lock.py").read_text()
        assert "access_flow" in text


class TestSuppression:
    def test_justified_ignore_suppresses(self):
        # good_ignore.py carries the same TLB bug as bad_tlb.py, hidden
        # behind a '-- reason' comment: the checker honours it.
        assert run_fixture("good_ignore.py") == []

    def test_good_and_bad_ignore_share_the_defect(self):
        good = (FIXTURES / "good_ignore.py").read_text()
        bad = (FIXTURES / "bad_ignore.py").read_text()
        assert "leaf.entries[index] = ENTRY_NONE" in good
        assert "leaf.entries[index] = ENTRY_NONE" in bad
