"""Call/statement event vocabularies and the concrete dataflow domains.

:class:`KernelPathDomain` is the one path-sensitive domain all the
path-walked rule families share — refcount pairing, TLB discipline,
clock-charge, and metrics-conservation ride a single :func:`~repro.
sancheck.engine.run_paths` pass per function, each reading its own slice
of the :class:`PathState`.

:class:`MustChargeDomain` is the small boolean lattice ("has every path
prefix charged the clock?") the summary layer iterates over the call
graph to compute the MUST-charge function set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .model import call_name

#: Calls that take a reference, by last name segment -> pin kind.
INC_CALLS = {
    "ref_inc": "page", "ref_inc_bulk": "page", "copy_references": "page",
    "swap_dup": "swap", "swap_dup_entries": "swap",
}
#: Calls that drop a reference (pairing with the above).
DEC_CALLS = {
    "ref_dec": "page", "ref_dec_bulk": "page", "drop_references": "page",
    "swap_put": "swap", "swap_put_entries": "swap", "swap_put_rows": "swap",
}
#: TLB flush primitives (the ShootdownEngine / per-mm TLB surface).
FLUSH_CALLS = frozenset({
    "flush_page", "flush_range", "flush_all",
    "local_flush_page", "local_flush_range",
    "shootdown_page", "shootdown_mm", "shootdown_sharers",
})
#: Calls that hand an already-taken reference to a longer-lived owner
#: (entry installs are handled structurally; these are the call forms).
TRANSFER_CALLS = frozenset({"rmap_add", "rmap_add_bulk", "set"})

#: Paired-counter increments tracked by metrics-conservation, by call
#: name -> counter kind.  Unlike reference pins these are matched at
#: *kind* level: any decrement of the kind balances the path (the call
#: shapes differ between inc and dec — ``replicate_table(mm, table)``
#: vs ``collapse_table(table_pfn)`` — so textual keys cannot pair).
COUNTER_INC = {
    "register_table": "table",
    "replicate_table": "replica",
}
COUNTER_DEC = {
    "drop_table_sharer": "sharers",
    "unregister_table": "table",
    "collapse_table": "replica",
}

#: Calls whose execution mutates frames or PTEs (clock-charge rule):
#: packed-store scatters, table-entry writes, and frame allocator
#: traffic.  Receiver-conditioned entries are handled in code below.
MUT_CALLS = frozenset({
    "scatter", "fill_rows",
    "alloc_table", "alloc_data_frame", "alloc_data_frames_bulk",
    "alloc_huge_frame", "alloc_table_frame",
    "free_table_frame", "free_huge_frame",
})

#: Virtual-clock charge entry points: every ``CostModel.charge_*``
#: method plus the raw ``charge``/``charge_many`` primitives.
def _is_charge_name(name):
    return name == "charge" or name.startswith("charge_") or name == "charge_many"


@dataclass
class Classifier:
    """Project-wide call knowledge the walk consults by name.

    The summary layer (:mod:`.summaries`) computes these sets over the
    *call graph* — resolution-filtered by layer, so a fleet-side method
    sharing a kernel callee's name cannot poison the kernel's sets —
    then flattens them to names for the per-function walk (call sites
    are identified by last name segment).
    """

    fallible: frozenset = frozenset()     # names that may raise OOM
    flushing: frozenset = frozenset()     # names that flush on their paths
    deferred: frozenset = frozenset()     # names tagged @tlb_deferred
    releasers: dict = field(default_factory=dict)  # name -> ref/counter kinds
    charge_deferred: frozenset = frozenset()   # names tagged @charge_deferred
    counters_deferred: dict = field(default_factory=dict)  # name -> kinds
    must_charge: frozenset = frozenset()  # names charging on all normal paths


@dataclass
class PathState:
    """One abstract execution path's state, shared by four rule families."""

    pins: dict = field(default_factory=dict)   # (kind, key) -> (count, line)
    counts: dict = field(default_factory=dict)  # counter kind -> (count, line)
    tlb_line: int | None = None                # pending downgrade, or None
    mut_line: int | None = None                # first frame/PTE mutation
    charged: bool = False                      # clock charged on this path
    conds: dict = field(default_factory=dict)  # memoized branch decisions
    raise_line: int | None = None              # where this path raised
    #: a KernelBug raise: the kernel is dead, nothing unwinds (BUG_ON
    #: semantics) — the refcount/metrics rules exempt these paths.
    bug: bool = False

    def copy(self):
        return PathState(dict(self.pins), dict(self.counts), self.tlb_line,
                         self.mut_line, self.charged, dict(self.conds),
                         self.raise_line, self.bug)

    def signature(self):
        return (tuple(sorted((k, v[0]) for k, v in self.pins.items())),
                tuple(sorted((k, v[0]) for k, v in self.counts.items())),
                self.tlb_line, self.mut_line, self.charged,
                tuple(sorted(self.conds.items())),
                self.raise_line, self.bug)


def _calls_in_order(node):
    """Call nodes under ``node`` in source-position order."""
    calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
    calls.sort(key=lambda n: (n.lineno, n.col_offset))
    return calls


def _text(node):
    try:
        return ast.unparse(node)
    except Exception:
        return ""


def _pin_key(call):
    """A textual identity for the reference a call takes or drops."""
    if call.args:
        return _text(call.args[0])
    return "<noarg>"


class KernelPathDomain:
    """The shared path domain (see :class:`~.engine.PathDomain`)."""

    def __init__(self, func, classifier):
        self.func = func
        self.classifier = classifier
        #: set when the function contains make_swap_entry: any entry
        #: store then counts as a downgrade (present -> swap-entry PTE).
        self._swapifies = "make_swap_entry" in func.source

    # -- engine contract -------------------------------------------------

    def initial(self):
        return PathState()

    def copy(self, state):
        return state.copy()

    def signature(self, state):
        return state.signature()

    def on_stmt(self, node, state):
        if node is None:
            return [state], []
        raises = []
        for call in _calls_in_order(node):
            forked = self._apply_call(call, state)
            if forked is not None:
                raises.append(forked)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            line = self._downgrade_line(node)
            if line is not None:
                state.tlb_line = line
            mline = self._mutation_line(node)
            if mline is not None and state.mut_line is None:
                state.mut_line = mline
        if isinstance(node, ast.Assign):
            # Ownership transfer: a pinned object stored into a container
            # or table entry now belongs to that owner.
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._transfer(state, _text(node.value))
        return [state], raises

    def on_branch(self, test, state, memo):
        raises = []
        for call in _calls_in_order(test):
            forked = self._apply_call(call, state)
            if forked is not None:
                raises.append(forked)
        test_text = _text(test)
        memo = memo and len(test_text) < 80
        decided = state.conds.get(test_text) if memo else None
        if decided is True:
            return [state], [], raises
        if decided is False:
            return [], [state], raises
        other = state.copy()
        if memo:
            state.conds[test_text] = True
            other.conds[test_text] = False
        return [state], [other], raises

    def on_catch(self, handler, state):
        state.raise_line = None
        state.bug = False
        return state

    def on_raise(self, stmt, state):
        state.raise_line = stmt.lineno
        if stmt.exc is not None and "KernelBug" in _text(stmt.exc):
            state.bug = True
        return state

    # -- events ----------------------------------------------------------

    def _apply_call(self, call, state):
        """Mutates ``state``; returns a forked raise-state or None."""
        name, receiver = call_name(call)
        cls = self.classifier
        forked = None
        if name in INC_CALLS:
            kind = INC_CALLS[name]
            key = (kind, _pin_key(call))
            count, _ = state.pins.get(key, (0, call.lineno))
            state.pins[key] = (count + 1, call.lineno)
        elif name in DEC_CALLS:
            kind = DEC_CALLS[name]
            key = (kind, _pin_key(call))
            entry = state.pins.get(key)
            if entry is not None:
                count, line = entry
                if count <= 1:
                    del state.pins[key]
                else:
                    state.pins[key] = (count - 1, line)
        elif name in cls.releasers:
            kinds = cls.releasers[name]
            for key in [k for k in state.pins if k[0] in kinds]:
                del state.pins[key]
            for kind in [k for k in state.counts if k in kinds]:
                del state.counts[kind]
        elif name in FLUSH_CALLS:
            state.tlb_line = None
        elif name in cls.flushing:
            state.tlb_line = None
        elif name in TRANSFER_CALLS:
            self._transfer(state, _text(call))

        if name in COUNTER_INC:
            kind = COUNTER_INC[name]
            count, _ = state.counts.get(kind, (0, call.lineno))
            state.counts[kind] = (count + 1, call.lineno)
        elif name in COUNTER_DEC:
            state.counts.pop(COUNTER_DEC[name], None)
        elif name == "append" and receiver.endswith("sharers"):
            # odfork's share loop grows a table's sharer list in place.
            count, _ = state.counts.get("sharers", (0, call.lineno))
            state.counts["sharers"] = (count + 1, call.lineno)
        elif name in ("pop", "remove") and receiver.endswith("sharers"):
            state.counts.pop("sharers", None)

        if name == "clear" and call.args and "table" in receiver:
            state.tlb_line = call.lineno
        if name in cls.deferred:
            state.tlb_line = call.lineno

        # clock-charge events: mutations and charges.
        if _is_charge_name(name):
            state.charged = True
        elif name in cls.must_charge:
            state.charged = True
        if state.mut_line is None:
            if name in MUT_CALLS or name in cls.charge_deferred:
                state.mut_line = call.lineno
            elif name in ("free", "free_bulk") and "allocator" in receiver:
                state.mut_line = call.lineno

        if (name in cls.fallible
                or (name in ("hit",) and "failpoints" in receiver)):
            forked = state.copy()
            forked.raise_line = call.lineno
        if name in cls.counters_deferred:
            # The callee may raise with these counters incremented; the
            # obligation to balance them lands on this caller's raise
            # fork.
            if forked is None:
                forked = state.copy()
                forked.raise_line = call.lineno
            for kind in cls.counters_deferred[name]:
                count, _ = forked.counts.get(kind, (0, call.lineno))
                forked.counts[kind] = (count + 1, call.lineno)
        return forked

    def _transfer(self, state, text):
        """Close pins whose key appears in an ownership-transfer site."""
        for key in [k for k in state.pins
                    if k[1] != "<noarg>" and k[1] in text]:
            del state.pins[key]

    def _is_entries_target(self, target):
        # Exactly ``entries`` (``table.entries[i]`` or a local alias), not
        # any name that merely contains it — the TLB's ``self._entries``
        # dict of cached translations is not a PTE array.
        if not isinstance(target, ast.Subscript):
            return False
        value = target.value
        if isinstance(value, ast.Attribute):
            return value.attr == "entries"
        if isinstance(value, ast.Name):
            return value.id == "entries"
        return False

    def _downgrade_line(self, node):
        """Line of a PTE/PMD clear-or-downgrade in ``node``, else None."""
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd):
            text = _text(node)
            soft = (("BIT_ACCESSED" in text or "BIT_DIRTY" in text)
                    and "RW" not in text and "drop" not in text.lower())
            if soft:
                return None
            if self._is_entries_target(node.target):
                return node.lineno
            # ``entry &= drop_rw`` on a local that is then stored back.
            if isinstance(node.target, ast.Name) and "drop" in text:
                return node.lineno
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not self._is_entries_target(target):
                    continue
                value = _text(node.value)
                if ("ENTRY_NONE" in value or value == "0"
                        or "protected" in value or "drop" in value
                        or self._swapifies):
                    return node.lineno
        return None

    def _mutation_line(self, node):
        """Line of a PTE/frame mutation for the clock-charge rule.

        Broader than :meth:`_downgrade_line`: *any* store into a table's
        packed ``entries`` array counts (installs included), as does an
        in-place bit edit.
        """
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if self._is_entries_target(target):
                return node.lineno
        return None


class MustChargeDomain:
    """Boolean must-lattice: True = every path prefix so far has charged.

    ``transfer`` marks a value charged when the node issues a direct
    ``charge*`` call or calls a function already proven must-charge;
    :func:`~.engine.run_lattice` joins with AND at merges, so a
    function's FALL/RETURN exit value is True exactly when every normal
    path charges.
    """

    def __init__(self, must_charge_names):
        self.must_charge = must_charge_names

    def initial(self):
        return False

    def join(self, a, b):
        return a and b

    def transfer(self, node, value):
        if value or node.ast is None:
            return value
        for call in _calls_in_order(node.ast):
            name, _ = call_name(call)
            if _is_charge_name(name) or name in self.must_charge:
                return True
        return value
