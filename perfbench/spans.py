"""Spans recorded from outside the program, for the traced run.

:func:`install` wraps the public entry points of each layer (functions
and methods of ``repro.*``) so every call records one span: its name,
its parent span, its host wall time and the delta of the simulated clock
that was live when it started.  Nothing under ``src/`` changes; the
wrappers are installed in this process only.

Device access methods (``SimulatedMemory.read``/``write`` and friends)
are too fine-grained to wrap without distorting the numbers; the
benchmark counts them through ``MemoryStats`` deltas instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from importlib import import_module

#: span name -> (module, class or None, attributes) for every wrapped
#: entry point.  Several entry points may share one span name.
TARGETS: list[tuple[str, str, str | None, tuple[str, ...]]] = [
    ("plan.execute_fused", "repro.core.plan", None, ("execute_fused",)),
    ("pruning.build", "repro.core.pruning", "PrunedDag", ("build",)),
    ("traversal.topdown", "repro.core.traversal", None, (
        "propagate_weights_topdown",
        "local_weights_for_segment",
        "full_sweep_weights_for_segment",
    )),
    ("traversal.bottomup", "repro.core.traversal", None, (
        "compute_wordlists_bottomup",
        "bottomup_rule_sweep",
        "merge_segment_counts",
    )),
    ("pstruct.merge_from", "repro.pstruct.phashtable", "PHashTable", ("merge_from",)),
    ("pstruct.phashtable_bulk", "repro.pstruct.phashtable", "PHashTable", (
        "create", "insert_many", "add_many", "get_many", "accumulate_into", "to_dict",
    )),
    ("pstruct.pvector", "repro.pstruct.pvector", "PVector", (
        "create", "add_each", "add_at_each", "read_range", "extend", "to_list", "clear",
    )),
    ("kernels.probe_batch", "repro.kernels.hashops", None, ("probe_batch",)),
    ("kernels.scan_chunks", "repro.kernels.hashops", None, ("scan_chunks",)),
    ("kernels.other", "repro.kernels.hashops", None, ("table_views",)),
    ("kernels.other", "repro.kernels.core", None, ("select_occupied",)),
    ("kernels.other", "repro.kernels.core", "Kernels", (
        "read_typed", "write_typed", "apply_pending_adds",
    )),
    ("nvm.flush", "repro.nvm.memory", "SimulatedMemory", ("flush",)),
    ("persist.commit", "repro.nvm.persist", "Transaction", ("commit",)),
    ("persist.complete_phase", "repro.nvm.persist", "PhasePersistence", ("complete_phase",)),
    ("scrub.seal", "repro.nvm.scrub", "MediaGuard", ("seal_dirty",)),
    ("obs.emit", "repro.obs.events", None, ("emit",)),
    ("obs.metrics", "repro.obs.metrics", None, ("inc", "set_gauge", "observe")),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry", ("inc", "set_gauge", "observe")),
    ("sequitur.compress", "repro.sequitur.compressor", "TadocCompressor", ("add_file", "freeze")),
    ("ingest.merge", "repro.ingest.merge", None, ("merge_segment_results", "render_result")),
]

#: Hooks of a fused task, wrapped per instance as ``analytics.hooks``.
FUSED_HOOKS = ("visit_rule", "visit_rule_bottomup", "visit_segment", "finish", "run")
#: Task methods wrapped as ``analytics.hooks`` on every task class.
TASK_METHODS = ("prepare", "run_compressed", "fuse")


class Recorder:
    """In-memory span store (parallel arrays, one entry per span)."""

    def __init__(self) -> None:
        self.active = False
        self.clock = None  # the SimulatedClock created last
        self.cycle = -1  # cycle of the op in flight; -1 outside ops
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.cycles = array("i")
        self.walls = array("d")
        self.sims = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, func, name: str):
        """``func`` recording one span per call while the recorder is active."""
        rec = self
        nid = self.name_id(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return func(*args, **kwargs)
            clock = rec.clock
            sim_start = clock.ns if clock is not None else 0.0
            stack = rec._stack
            index = len(rec.walls)
            rec.names.append(nid)
            rec.parents.append(stack[-1] if stack else -1)
            rec.cycles.append(rec.cycle)
            rec.walls.append(0.0)
            rec.sims.append(0.0)
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                rec.walls[index] = time.perf_counter() - start
                stack.pop()
                if clock is not None:
                    rec.sims[index] = clock.ns - sim_start

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name, over the spans inside ops: call count and self
        wall (``calls``, ``self_s``), and over the first cycle only, which
        repeats exactly: call count and inclusive simulated ns
        (``calls_c0``, ``sim_ns``)."""
        n = len(self.walls)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.walls[i]
        out = {
            name: {"calls": 0, "calls_c0": 0, "self_s": 0.0, "sim_ns": 0.0}
            for name in self.span_names
        }
        for i in range(n):
            if self.cycles[i] < 0:
                continue  # outside any op (engine construction between cycles)
            entry = out[self.span_names[self.names[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.walls[i] - child[i]
            if self.cycles[i] == 0:
                entry["calls_c0"] += 1
                entry["sim_ns"] += self.sims[i]
        return out


def _rebind(old, new) -> None:
    """Point every ``repro.*`` module-level name bound to ``old`` at ``new``
    (catches ``from module import function`` copies)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_attr(rec: Recorder, owner, attr: str, span: str) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(rec.wrap(raw.__func__, span)))
        return
    wrapped = rec.wrap(raw, span)
    setattr(owner, attr, wrapped)
    if inspect.ismodule(owner):
        _rebind(raw, wrapped)


def install(rec: Recorder) -> None:
    """Wrap every target for ``rec``; the wrappers record only while
    ``rec.active`` is true."""
    from repro.analytics import ALL_TASKS
    from repro.analytics.base import AnalyticsTask, FusedTask
    from repro.nvm.memory import SimulatedClock

    for span, module_name, class_name, attrs in TARGETS:
        owner = import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for attr in attrs:
            _wrap_attr(rec, owner, attr, span)

    for cls in (AnalyticsTask, *ALL_TASKS):
        for attr in TASK_METHODS:
            if attr in vars(cls):
                _wrap_attr(rec, cls, attr, "analytics.hooks")

    fused_init = FusedTask.__init__

    def init_with_hooks(self, *args, **kwargs):
        fused_init(self, *args, **kwargs)
        for hook in FUSED_HOOKS:
            func = getattr(self, hook)
            if func is not None:
                setattr(self, hook, rec.wrap(func, "analytics.hooks"))

    FusedTask.__init__ = init_with_hooks

    clock_init = SimulatedClock.__init__

    def track_clock(self, *args, **kwargs):
        clock_init(self, *args, **kwargs)
        rec.clock = self

    SimulatedClock.__init__ = track_clock
