"""Task interface and the execution contexts handed to tasks.

A task never talks to an engine directly; it receives a context object
exposing the device-resident structures it may use.  This keeps each of
the six benchmark tasks a small, testable unit, and lets the compressed
and uncompressed systems share task code paths in benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.grammar import is_separator
from repro.core.pruning import PrunedDag
from repro.core.traversal import (
    compute_wordlists_bottomup,
    propagate_weights_topdown,
)
from repro.metrics.ledger import MemoryLedger
from repro.nvm.allocator import PoolAllocator
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.pstruct.phashtable import PHashTable

#: Charged CPU ops per comparison when tasks sort results.
SORT_CPU_FACTOR = 3.0


def charge_sort(clock: SimulatedClock, n_items: int) -> None:
    """Charge the CPU cost of sorting ``n_items`` (n log2 n comparisons)."""
    if n_items > 1:
        clock.cpu(SORT_CPU_FACTOR * n_items * max(n_items - 1, 1).bit_length())


@dataclass(frozen=True)
class TraversalNeeds:
    """What a task consumes from the shared traversal substrate.

    The planner (:mod:`repro.core.plan`) reads these declarations to
    decide which DAG passes to run and which shared intermediates to
    materialize; compatible tasks are then fused into a single pass per
    traversal direction.

    Attributes:
        direction: The DAG traversal direction this task's per-rule work
            rides on: ``"topdown"`` (global weight propagation order),
            ``"bottomup"`` (reverse topological order), or ``"none"``
            (no per-rule pass of its own).
        weights: Needs the global top-down rule weights
            (:meth:`CompressedTaskContext.ensure_weights`).
        wordlists: Needs the bottom-up per-rule word lists
            (:meth:`CompressedTaskContext.wordlists`).
        segments: Needs the root-body file segments
            (:meth:`CompressedTaskContext.root_segments`).
        file_counts: Needs shared per-file word counts; the planner
            computes them once per plan and hands each file's counts to
            the task's segment visitor.
        profiles: Needs the per-rule n-gram profiles (sequence tasks).
    """

    direction: str = "none"
    weights: bool = False
    wordlists: bool = False
    segments: bool = False
    file_counts: bool = False
    profiles: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("topdown", "bottomup", "none"):
            raise ValueError(f"unknown traversal direction {self.direction!r}")


class FusedTask:
    """One task's participation in a fused multi-task plan.

    A bundle of declared needs plus the visit hooks the planner may call
    during its shared sweeps.  Every hook is optional; a task with no
    hooks (only ``run``) executes opaquely against the shared context --
    it still shares the pool build and every cached intermediate, just
    not the per-rule device reads.

    Hook signatures:

    * ``visit_rule(rule, weight, words)`` -- called once per rule during
      the fused **top-down** sweep, after the global weight propagation;
      ``words`` is the rule's pruned ``(word, freq)`` list.
    * ``visit_rule_bottomup(rule, words, subrules)`` -- called once per
      rule in **reverse topological** order during the fused bottom-up
      sweep (shared with word-list construction when both are needed).
    * ``visit_segment(file_index, segment, counts)`` -- called once per
      root-body file segment; ``counts`` is the shared per-file word
      count dict when :attr:`TraversalNeeds.file_counts` was declared,
      else ``None``.
    * ``finish()`` -- produce the task's result after all sweeps ran.
    * ``run()`` -- opaque fallback executed when no hooks are given
      (defaults to ``task.run_compressed(ctx)``).

    ``wordlist_alternate`` marks a direction-flexible task: a factory for
    an equivalent :class:`FusedTask` that answers from the bottom-up word
    lists instead of running this bundle's own traversal.  When the plan
    already schedules a word-list pass for other tasks, the planner
    swaps the bundle for its alternate, eliminating a whole DAG pass
    from the plan.
    """

    def __init__(
        self,
        task: "AnalyticsTask",
        needs: TraversalNeeds,
        *,
        visit_rule: Callable[[int, int, list], None] | None = None,
        visit_rule_bottomup: Callable[[int, list, list], None] | None = None,
        visit_segment: Callable[[int, list, dict | None], None] | None = None,
        finish: Callable[[], Any] | None = None,
        run: Callable[[], Any] | None = None,
        wordlist_alternate: Callable[[], "FusedTask"] | None = None,
    ) -> None:
        if finish is None and run is None:
            raise ValueError("a FusedTask needs a finish() or a run() hook")
        self.task = task
        self.needs = needs
        self.visit_rule = visit_rule
        self.visit_rule_bottomup = visit_rule_bottomup
        self.visit_segment = visit_segment
        self.finish = finish
        self.run = run
        self.wordlist_alternate = wordlist_alternate
        #: Simulated ns spent inside this task's hooks (planner-filled).
        self.exclusive_ns = 0.0
        #: Simulated ns this task spent in fuse-time preparation
        #: (initialization phase; engine-filled).
        self.init_ns = 0.0


@dataclass
class CompressedTaskContext:
    """Everything a task may touch when running on N-TADOC.

    The pool-resident structures (pruned DAG, traversal queue, counters,
    word lists) live on the configured pool device; ``dram`` is the
    scratch device for transient working buffers, whose peak footprint is
    what the DRAM-saving experiment measures.
    """

    pruned: PrunedDag
    allocator: PoolAllocator
    dram: SimulatedMemory
    dram_allocator: PoolAllocator
    clock: SimulatedClock
    ledger: MemoryLedger
    vocab: list[str]
    file_names: list[str]
    topo_order: list[int]
    reverse_topo: list[int]
    topo_position: list[int]
    strategy: str  # resolved: "topdown" | "bottomup"
    strategy_forced: bool = False  # user pinned the strategy explicitly
    growable: bool = False
    ngram_n: int = 2
    term_vector_k: int = 10
    op_commit: Callable[[], None] = lambda: None
    ngram_names: dict[int, tuple[int, ...]] = field(default_factory=dict)
    ngram_profiles: list[dict[int, int]] | None = None
    #: Ledger bookkeeping for the shared n-gram profiles: True while the
    #: profile bytes are charged, so fused consumers release them once.
    profiles_live: bool = False
    _wordlists: list[PHashTable] | None = None
    _segments: list[list[int]] | None = None
    #: Shared per-file word counts, keyed by the strategy that produced
    #: them (filled by :mod:`repro.analytics.perfile`).
    _file_counts: dict[str, list[dict[int, int]]] = field(default_factory=dict)
    _weights_ready: bool = False

    @property
    def n_files(self) -> int:
        return len(self.file_names)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def ensure_weights(self) -> None:
        """Run the global top-down weight propagation, once per context.

        Every consumer of corpus-global rule weights (word count, sort,
        sequence count) goes through here, so a fused plan charges the
        propagation's device traffic exactly once.  The propagation
        resets weights before pushing, so the first call on a recovered
        pool is equally valid.
        """
        if not self._weights_ready:
            propagate_weights_topdown(self.pruned, self.allocator)
            self._weights_ready = True

    def root_segments(self) -> list[list[int]]:
        """Per-file symbol slices of the root rule body (cached).

        Reads the ordered root body from the pool once and splits it at
        the (unique) file separators.
        """
        if self._segments is None:
            body = self.pruned.raw_body(0)
            segments: list[list[int]] = []
            current: list[int] = []
            for symbol in body:
                if is_separator(symbol):
                    segments.append(current)
                    current = []
                else:
                    current.append(symbol)
            self._segments = segments
        return self._segments

    def wordlists(self) -> list[PHashTable]:
        """Per-rule word lists (bottom-up preprocessing), computed once.

        This is the cached-on-NVM word-list preprocessing the paper
        describes for bottom-up traversal; its cost is charged on first
        use.
        """
        return self.build_wordlists()

    def build_wordlists(self, visitors: tuple = ()) -> list[PHashTable]:
        """Build (or recall) the per-rule word lists, once per context.

        Args:
            visitors: Optional ``(rule, words, subrules)`` callbacks fused
                into the construction sweep -- each rule's entry lists are
                read from the device once and shared between the table
                build and every visitor (the planner's bottom-up fusion).
                Ignored when the word lists were already built.
        """
        if self._wordlists is None:
            self._wordlists = compute_wordlists_bottomup(
                self.pruned,
                self.allocator,
                self.reverse_topo,
                growable=self.growable,
                op_commit=self.op_commit,
                visitors=visitors,
            )
        return self._wordlists


@dataclass
class UncompressedTaskContext:
    """Context for the baseline: dictionary-encoded tokens on a device.

    ``read_file`` streams one file's tokens in line-friendly chunks; the
    counting structures are created on the same device through
    ``allocator``.
    """

    allocator: PoolAllocator
    dram: SimulatedMemory
    dram_allocator: PoolAllocator
    clock: SimulatedClock
    ledger: MemoryLedger
    vocab: list[str]
    file_names: list[str]
    read_file: Callable[[int], Iterator[list[int]]]
    file_lengths: list[int]
    ngram_n: int = 2
    term_vector_k: int = 10
    op_commit: Callable[[], None] = lambda: None
    ngram_names: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def n_files(self) -> int:
        return len(self.file_names)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


class AnalyticsTask(ABC):
    """One of the paper's six benchmark tasks."""

    #: Benchmark name as used in the paper's figures.
    name: str = ""

    def prepare(self, ctx: CompressedTaskContext) -> None:
        """Initialization-phase preprocessing hook.

        The engine calls this inside the *initialization* phase, matching
        the paper's time accounting: dataset-dependent precomputation
        (e.g. the sequence tasks' per-rule n-gram profiles, which make
        their init share dominate on large datasets in Table II) belongs
        to initialization, not traversal.  The default does nothing.
        """

    @abstractmethod
    def run_compressed(self, ctx: CompressedTaskContext) -> Any:
        """Execute on the N-TADOC compressed representation."""

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        """Declare traversal needs and visit hooks for the planner.

        The default participation is opaque: the task runs through
        :meth:`run_compressed` against the shared context, still reusing
        the single pool build and every cached intermediate (weights,
        word lists, segments), but without per-rule read sharing.  Tasks
        override this to expose fused visit hooks.
        """
        return FusedTask(
            self, TraversalNeeds(), run=lambda: self.run_compressed(ctx)
        )

    @abstractmethod
    def run_uncompressed(self, ctx: UncompressedTaskContext) -> Any:
        """Execute the baseline scan over uncompressed tokens."""

    @staticmethod
    @abstractmethod
    def reference(files: list[list[int]]) -> Any:
        """Pure-Python oracle over per-file token lists (for tests)."""

    def result_size_bytes(self, result: Any) -> int:
        """Rough serialized size of a result (for write-back cost)."""
        return _estimate_size(result)


def _estimate_size(value: Any) -> int:
    """Conservative byte estimate of a plain-data result object.

    Numbers (and any other scalar) count 8 bytes; the int case is
    inlined below because analytics results are overwhelmingly
    ``{int: int}`` dicts and ``[int]`` lists, and a recursive call per
    element dominated profile time on large results.
    """
    if isinstance(value, dict):
        total = 0
        for k, v in value.items():
            total += (8 if type(k) is int else _estimate_size(k)) + (
                8 if type(v) is int else _estimate_size(v)
            )
        return total
    if isinstance(value, (list, tuple)):
        total = 8
        for v in value:
            total += 8 if type(v) is int else _estimate_size(v)
        return total
    if isinstance(value, str):
        return len(value) + 4
    return 8
