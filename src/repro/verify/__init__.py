"""Correctness tooling: trace fuzzer, differential oracle, fail points.

The subsystem validates the simulator itself (the paper's equivalence
claim is only as credible as the machinery checking it):

* :mod:`repro.verify.audit` — ``audit_machine``, the from-first-principles
  refcount cross-check shared by tests, benchmarks, and the fuzzer;
* :mod:`repro.verify.trace` — a serializable random-trace model over the
  syscall surface, with a JSON format for record and replay;
* :mod:`repro.verify.oracle` — differential execution on paired machines
  (odfork vs classic fork, ``smp=N`` vs ``smp=None``) plus exhaustive
  fail-point enumeration;
* :mod:`repro.verify.shrink` — a ddmin delta-debugger that minimizes
  failing traces for the regression corpus.

CLI: ``python -m repro.verify --traces N --seed S [--failpoints]``.
"""

from .audit import audit_machine
from .oracle import (
    check_trace,
    enumerate_failpoints,
    physical_layout,
    run_differential,
)
from .shrink import shrink_trace
from .trace import TraceExecutor, generate_trace, load_trace, save_trace

__all__ = [
    "audit_machine",
    "check_trace",
    "enumerate_failpoints",
    "physical_layout",
    "run_differential",
    "shrink_trace",
    "TraceExecutor",
    "generate_trace",
    "load_trace",
    "save_trace",
]
