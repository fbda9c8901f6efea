"""The N-TADOC engine: phases, devices, persistence, and task execution.

The engine stitches every subsystem together along the paper's workflow
(Section IV-A):

* **initialization phase** -- stream the compressed corpus from disk,
  derive the DAG metadata, run the bottom-up summation, build the pruned
  DAG pool (and head/tail store) on the configured device, and persist.
* **graph traversal phase** -- hand the task a
  :class:`~repro.analytics.base.CompressedTaskContext`, collect its
  result, write the result blob into the pool, persist, and charge the
  write-back to disk.

All timing is simulated nanoseconds from the shared clock; the same
engine class also realizes the paper's baselines by configuration:

=====================  ==============================================
Paper system           EngineConfig
=====================  ==============================================
N-TADOC (Fig. 5a)      device="nvm", persistence="phase"
N-TADOC (Fig. 5b)      device="nvm", persistence="operation"
TADOC on DRAM (Fig. 6) device="dram", persistence="none"
N-TADOC on SSD/HDD     device="ssd"/"hdd" (Fig. 7)
naive NVM port         device="nvm", naive=True (Section III-B)
=====================  ==============================================
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.dag import Dag
from repro.core.grammar import CompressedCorpus
from repro.core.pruning import PrunedDag
from repro.core.summation import head_tail_lists, summate_all
from repro.errors import MediaError, OutOfMemoryError, ReproError
from repro.kernels import KERNEL_MODES
from repro.metrics.ledger import MemoryLedger
from repro.metrics.timer import PhaseTimeline
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory, charge_sequential_io
from repro.nvm.persist import PhasePersistence
from repro.nvm.pool import NvmPool
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.pstruct import layout
from repro.pstruct.layout import next_power_of_two
from repro.sequitur import serialization

if TYPE_CHECKING:  # avoid a circular import; tasks import core.grammar
    from repro.analytics.base import AnalyticsTask
    from repro.core.recovery import RecoveryReport
    from repro.nvm.faults import FaultPlan

#: Estimated DRAM bytes per dictionary word (string + index overhead).
_DICT_WORD_OVERHEAD = 60


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one engine run.

    Attributes:
        device: Pool device profile name ("nvm", "dram", "ssd", "hdd").
        persistence: "phase" (flush at phase ends), "operation" (commit
            marker + flush after every logical operation), or "none".
        traversal: "auto" picks bottom-up when the corpus has more files
            than ``bottomup_threshold`` (the Section VI-E heuristic),
            otherwise the stated strategy is forced.
        disk: Device profile used for initial load and final write-back.
        naive: Direct-port mode (Section III-B): scattered allocations,
            per-rule indirected layout, growable structures ignoring the
            Algorithm-2 bounds.
        ngram_n: Sequence length for sequence tasks (head/tail width is
            derived from it).
        term_vector_k: Vector length for the term-vector task.
        pool_bytes: Pool size override; auto-sized when None.
        cache_bytes: CPU-cache model capacity for the pool device.
        bottomup_threshold: File count above which "auto" picks bottom-up.
        op_batch: With operation-level persistence, how many logical
            operations one commit covers (libpmemobj transactions batch
            updates for throughput; the naive port commits singly).
        scattered_layout: Ablation flag -- scattered per-rule allocation
            without the adjacent pool layout (one of the two ingredients
            of ``naive``).
        growable_structures: Ablation flag -- ignore the Algorithm-2
            bounds and grow structures on demand (the other ingredient).
        tracer: Opt-in :class:`~repro.obs.tracer.Tracer` attached for
            the run's duration (spans, op counters, device attribution).
            ``None`` (the default) records nothing and charges nothing;
            either way the simulated costs are bit-identical.  Excluded
            from equality/hashing so configs stay comparable.
    """

    device: str = "nvm"
    persistence: str = "phase"
    traversal: str = "auto"
    disk: str = "ssd"
    naive: bool = False
    ngram_n: int = 2
    term_vector_k: int = 10
    pool_bytes: int | None = None
    cache_bytes: int = 1 << 21
    bottomup_threshold: int = 200
    op_batch: int = 8
    scattered_layout: bool = False
    growable_structures: bool = False
    #: Bulk-kernel backend for the simulated memories: "auto" (numpy when
    #: available, else pure python), "numpy", "python", or "off" (scalar
    #: reference loops).  Simulated time/stats are bit-identical across
    #: all modes; only wall-clock changes.  See docs/kernels.md.
    kernels: str = "auto"
    tracer: Any = field(default=None, compare=False, repr=False)
    #: Arm end-to-end media protection: the pool saves as layout v3, a
    #: :class:`~repro.nvm.scrub.MediaGuard` CRC-seals every persisted
    #: chunk, and every read is verified (corruption surfaces as a typed
    #: :class:`~repro.errors.MediaError` instead of garbage).  Off by
    #: default -- an unprotected run is bit-identical to pre-guard
    #: behavior in simulated time, pool image, and wear counters.
    media_protect: bool = False
    #: Count per-line media program events on the pool device
    #: (:func:`~repro.nvm.wear.wear_report`, wear-triggered fault arming
    #: via ``FaultPlan(wear_death=True)``).
    track_wear: bool = False
    #: Always-on observability (the default): the engine keeps a
    #: :class:`~repro.obs.metrics.MetricsRegistry` and an
    #: :class:`~repro.obs.events.EventJournal` across runs, and persists
    #: the most recent events into the pool's ``__flightrec__`` black-box
    #: region.  Recording is uncharged by contract -- a metrics-on run
    #: charges simulated ns bit-identically (``==``) to a metrics-off
    #: run, and the pool images differ only inside ``__flightrec__``
    #: (both pinned by tests).  ``False`` records nothing.
    metrics: bool = True

    def __post_init__(self) -> None:
        if self.persistence not in ("phase", "operation", "none"):
            raise ValueError(f"unknown persistence {self.persistence!r}")
        if self.traversal not in ("auto", "topdown", "bottomup"):
            raise ValueError(f"unknown traversal {self.traversal!r}")
        if self.kernels not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernels mode {self.kernels!r}; expected one of {KERNEL_MODES}"
            )

    @property
    def use_scattered_layout(self) -> bool:
        """Naive mode implies the scattered, indirected layout."""
        return self.naive or self.scattered_layout

    @property
    def use_growable_structures(self) -> bool:
        """Naive mode implies unbounded, growable structures."""
        return self.naive or self.growable_structures


@dataclass
class RunResult:
    """Outcome of one (engine, task) execution."""

    task: str
    system: str
    result: Any
    phase_ns: dict[str, float]
    total_ns: float
    dram_peak: int
    pool_peak: int
    pool_device: str
    strategy: str
    ngram_names: dict[int, tuple[int, ...]] = field(default_factory=dict)
    pool_stats: Any = None
    #: True when this run resumed from a RecoveryReport instead of a
    #: fresh pool (its analytics output must match the uncrashed run's).
    resumed: bool = False
    #: True when this result came out of a fused multi-task plan; its
    #: timing fields are then *attributions* of the plan's single charge.
    fused: bool = False
    #: This task's even share of the plan's shared substrate cost
    #: (pool build, fused sweeps); 0 for a solo run.
    shared_ns: float = 0.0
    #: Simulated ns spent exclusively in this task's own hooks
    #: (fused plans only; 0 for a solo run).
    exclusive_ns: float = 0.0

    @property
    def failed(self) -> bool:
        """False -- symmetry with :class:`TaskFailure` for the harness."""
        return False

    @property
    def init_ns(self) -> float:
        return self.phase_ns.get("initialization", 0.0)

    @property
    def traversal_ns(self) -> float:
        return self.phase_ns.get("traversal", 0.0)


@dataclass
class TaskFailure:
    """Structured report of one task the engine could not complete.

    Produced by :meth:`NTadocEngine.run_resilient` (and the per-task
    degraded mode of :meth:`NTadocEngine.run_many_resilient`) when media
    damage survives every recovery attempt.  It is never raised: graceful
    degradation returns it in place of a :class:`RunResult` so sibling
    tasks keep running and the harness gets a typed, inspectable outcome
    instead of a silent wrong answer.
    """

    task: str
    #: Human-readable message of the terminal error.
    error: str
    #: MediaError kind ("checksum"/"stuck"/"lost"), or "oom" when the
    #: pool ran out of room for a rebuild, or "unprotected" when media
    #: faults fired without a guard to recover with.
    kind: str | None = None
    offset: int | None = None
    line: int | None = None
    #: The last :class:`~repro.nvm.scrub.ScrubReport`, if a scrub ran.
    scrub: Any = None
    #: Regions renamed out of the way during recovery attempts.
    quarantined_regions: list[str] = field(default_factory=list)
    #: Simulated ns elapsed on the run's clock when the task was failed
    #: (includes the recovery attempts -- they are real, charged work).
    total_ns: float = 0.0

    @property
    def failed(self) -> bool:
        return True


def serialized_size(corpus: CompressedCorpus) -> int:
    """Byte size of the corpus's on-disk form (memoized on the corpus)."""
    cached = getattr(corpus, "_serialized_size", None)
    if cached is None:
        cached = len(serialization.serialize(corpus))
        corpus._serialized_size = cached  # type: ignore[attr-defined]
    return cached


def _dictionary_bytes(corpus: CompressedCorpus) -> int:
    """DRAM footprint of the word dictionary."""
    return sum(len(w) for w in corpus.vocab) + _DICT_WORD_OVERHEAD * len(
        corpus.vocab
    )


@dataclass(frozen=True)
class CorpusAnalysis:
    """Corpus-derived DAG metadata shared by every engine over a corpus.

    Deriving this (DAG view, topological orders, Algorithm-2 bounds,
    head/tail lists) is pure Python work on the corpus alone, so it is
    memoized *on the corpus object* keyed by the head/tail width **and
    the corpus content fingerprint**: a comparison run building one
    engine per system stops re-deriving it, and repeated engine builds
    in tests are cheap, while a corpus whose rules were mutated in place
    (segmented ingest appends, compaction rewrites) can never be served
    stale DAG/topo/bounds -- the fingerprint mismatch forces a fresh
    derivation.  Engines still *charge* the derivation cost per run --
    the memo only removes host work, never simulated cost.
    """

    dag: Dag
    topo: list[int]
    reverse_topo: list[int]
    topo_position: list[int]
    bounds: list[int]
    heads: list
    tails: list
    headtail_k: int


def corpus_analysis(corpus: CompressedCorpus, headtail_k: int) -> CorpusAnalysis:
    """Memoized :class:`CorpusAnalysis` for ``corpus`` at one head/tail width."""
    cache = getattr(corpus, "_analysis_cache", None)
    if cache is None:
        cache = {}
        corpus._analysis_cache = cache  # type: ignore[attr-defined]
    # Key on content, not object identity: a cached entry made before an
    # in-place mutation (ingest append, compaction) must not be served.
    content = corpus.content_key()
    cached = cache.get(headtail_k)
    analysis = cached[1] if cached is not None and cached[0] == content else None
    if analysis is None:
        dag = Dag(corpus)
        topo = dag.topological_order()
        topo_position = [0] * corpus.n_rules
        for position, rule in enumerate(topo):
            topo_position[rule] = position
        # Algorithm 2 bounds, clamped by two further safe upper bounds on
        # a rule's distinct-word count: its expansion length and the
        # vocabulary size (an implementation refinement over the paper's
        # raw summation; see DESIGN.md).
        raw_bounds = summate_all(dag)
        explens = dag.expansion_lengths()
        vocab_size = max(len(corpus.vocab), 1)
        bounds = [
            min(bound, explen, vocab_size)
            for bound, explen in zip(raw_bounds, explens)
        ]
        heads, tails = head_tail_lists(dag, headtail_k)
        analysis = CorpusAnalysis(
            dag=dag,
            topo=topo,
            reverse_topo=list(reversed(topo)),
            topo_position=topo_position,
            bounds=bounds,
            heads=heads,
            tails=tails,
            headtail_k=headtail_k,
        )
        cache[headtail_k] = (content, analysis)
    return analysis


@dataclass
class _RunState:
    """Per-run simulated machinery, shared by the solo and fused paths."""

    clock: SimulatedClock
    pool_mem: SimulatedMemory
    dram_mem: SimulatedMemory
    dram_alloc: Any
    pool: NvmPool
    ledger: MemoryLedger
    timeline: PhaseTimeline
    disk: DeviceProfile
    phase_persist: PhasePersistence | None
    op_commit: Any
    pruned: PrunedDag | None = None
    #: The attached MediaGuard when ``media_protect`` is on, else None.
    guard: Any = None
    #: Pruned-DAG pool builds performed on this machinery so far.
    pool_builds: int = 0


class NTadocEngine:
    """Runs analytics tasks on a compressed corpus under one configuration.

    The heavyweight per-corpus derivations (DAG view, topological orders,
    bounds, head/tail lists) are computed once in Python and *charged*
    per run; the device-resident state is rebuilt per run so every run is
    measured from a cold pool.
    """

    system_name = "ntadoc"

    def __init__(
        self, corpus: CompressedCorpus, config: EngineConfig | None = None
    ) -> None:
        self.corpus = corpus
        self.config = config or EngineConfig()
        k = max(self.config.ngram_n - 1, 1)
        analysis = corpus_analysis(corpus, k)
        self._dag = analysis.dag
        self._topo = analysis.topo
        self._reverse_topo = analysis.reverse_topo
        self._topo_position = analysis.topo_position
        self._bounds = analysis.bounds
        self._heads = analysis.heads
        self._tails = analysis.tails
        self._headtail_k = k
        #: Machinery of the most recent *resilient* run (faultsweep pokes
        #: at the pool/guard after the run to verify scrub idempotence).
        self.last_state: _RunState | None = None
        #: Always-on metrics registry and event journal (None when the
        #: config disables them); both live as long as the engine and
        #: accumulate across runs.
        self.metrics: MetricsRegistry | None = None
        self.journal: EventJournal | None = None
        if self.config.metrics:
            self.metrics = MetricsRegistry()
            self.journal = EventJournal()
            self.journal.bind(registry=self.metrics)
        #: The current flight recorder's journal sink (replaced per run).
        self._recorder_sink: Any = None

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def _estimate_pool_bytes(self, n_tasks: int = 1) -> int:
        corpus = self.corpus
        glen = corpus.grammar_length()
        n = corpus.n_rules
        base = 4096 + n * 64 + glen * 16
        headtail = n * (4 + 8 * self._headtail_k)
        wordlists = sum(
            next_power_of_two(int(max(b, 1) / 0.7) + 1) * 17 + 64
            for b in self._bounds
        )
        counters = len(corpus.vocab) * 24 + 4096
        queue = n * 8 + 4096
        results = glen * 16 + len(corpus.vocab) * 16 + 65536
        estimate = base + headtail + wordlists + counters + queue + results
        # A fused plan shares the pool across its tasks: every extra task
        # may add its own counters, bitmaps, and result blob.
        estimate += (max(n_tasks, 1) - 1) * (counters + results + n * 16)
        if self.config.naive or self.config.scattered_layout or self.config.growable_structures:
            # Scatter gaps (up to 8 lines per allocation) plus growth garbage.
            line = DeviceProfile.by_name(self.config.device).line_size
            estimate = estimate * 3 + (4 * n + 4096) * 9 * line
        return estimate * 2 + (1 << 22)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _fresh_state(
        self, fault_plan: "FaultPlan | None" = None, n_tasks: int = 1
    ) -> _RunState:
        """Cold simulated machinery for one run (or one fused plan)."""
        from repro.nvm.allocator import PoolAllocator

        config = self.config
        clock = SimulatedClock()
        profile = DeviceProfile.by_name(config.device)
        pool_bytes = config.pool_bytes or self._estimate_pool_bytes(n_tasks)
        cache_bytes = config.cache_bytes
        if not profile.byte_addressable:
            # Block devices sit behind the OS page cache; the paper caps
            # the memory budget at 20% of the dataset.
            cache_bytes = max(cache_bytes, pool_bytes // 5)
        pool_mem = SimulatedMemory(
            profile,
            pool_bytes,
            clock,
            cache_bytes=cache_bytes,
            name="pool",
            kernels=config.kernels,
            track_wear=config.track_wear,
        )
        if fault_plan is not None:
            pool_mem.arm_faults(fault_plan)
        dram_mem = SimulatedMemory(
            DeviceProfile.dram(), 1 << 24, clock, name="dram-scratch", kernels=config.kernels
        )
        dram_alloc = PoolAllocator(dram_mem, base=0, capacity=dram_mem.size)
        pool = NvmPool(
            pool_mem,
            scatter=config.use_scattered_layout,
            media_protect=config.media_protect,
        )
        guard = None
        if config.media_protect:
            from repro.nvm.scrub import MediaGuard

            guard = MediaGuard(pool)
        self._alloc_flightrec(pool)
        self._attach_observability(clock, pool_mem, pool)
        ledger = MemoryLedger()
        self._bind_tracer(clock, pool_mem, dram_mem, ledger)
        return _RunState(
            clock=clock,
            pool_mem=pool_mem,
            dram_mem=dram_mem,
            dram_alloc=dram_alloc,
            pool=pool,
            ledger=ledger,
            timeline=PhaseTimeline(clock, tracer=config.tracer),
            disk=DeviceProfile.by_name(config.disk),
            phase_persist=(
                PhasePersistence(pool) if config.persistence == "phase" else None
            ),
            op_commit=self._make_op_commit(pool),
            guard=guard,
        )

    def _resumed_state(self, report: "RecoveryReport") -> _RunState:
        """Machinery wrapped around a recovered pool: its clock keeps
        ticking (recovery cost is part of the measured time) and any
        armed fault plan is disarmed."""
        from repro.nvm.allocator import PoolAllocator

        config = self.config
        pool = report.pool
        pool_mem = pool.memory
        pool_mem.disarm_faults()
        clock = pool_mem.clock
        dram_mem = SimulatedMemory(
            DeviceProfile.dram(), 1 << 24, clock, name="dram-scratch", kernels=config.kernels
        )
        dram_alloc = PoolAllocator(dram_mem, base=0, capacity=dram_mem.size)
        self._attach_observability(clock, pool_mem, pool)
        ledger = MemoryLedger()
        self._bind_tracer(clock, pool_mem, dram_mem, ledger)
        return _RunState(
            clock=clock,
            pool_mem=pool_mem,
            dram_mem=dram_mem,
            dram_alloc=dram_alloc,
            pool=pool,
            ledger=ledger,
            timeline=PhaseTimeline(clock, tracer=config.tracer),
            disk=DeviceProfile.by_name(config.disk),
            phase_persist=(
                PhasePersistence(pool) if config.persistence == "phase" else None
            ),
            op_commit=self._make_op_commit(pool),
            pruned=report.pruned,
        )

    def _bind_tracer(
        self,
        clock: SimulatedClock,
        pool_mem: SimulatedMemory,
        dram_mem: SimulatedMemory,
        ledger: MemoryLedger,
    ) -> None:
        """Bind the configured tracer (if any) to this run's machinery."""
        tracer = self.config.tracer
        if tracer is not None:
            tracer.bind(
                clock=clock,
                memories={"pool": pool_mem, "dram": dram_mem},
                ledger=ledger,
            )

    def _alloc_flightrec(self, pool: NvmPool) -> None:
        """Reserve the black-box region on a fresh pool.

        Allocated *unconditionally* -- metrics on or off -- and pinned
        at the TOP of the pool extent, so data placement (and therefore
        the persisted image outside ``__flightrec__``) is bit-identical
        whether or not the black box exists (allocation is a host-side
        dictionary write; it charges nothing and touches no device
        bytes).  Line-aligned and line-padded like the MediaGuard tables
        so recorder pokes never share a device line with charged data.
        A pool explicitly sized too small for the region simply goes
        without a black box.
        """
        from repro.nvm.flightrec import FLIGHTREC_REGION, region_bytes

        if pool.has_region(FLIGHTREC_REGION):
            pool.reserve_top_region(FLIGHTREC_REGION)
            return
        line_size = pool.memory.profile.line_size
        size = region_bytes()
        size = (size + line_size - 1) // line_size * line_size
        try:
            pool.alloc_region_top(FLIGHTREC_REGION, size, align=line_size)
        except OutOfMemoryError:
            pass

    def _attach_observability(
        self, clock: SimulatedClock, pool_mem: SimulatedMemory, pool: NvmPool
    ) -> None:
        """Rebind the journal to this run's clock and install the
        flight recorder over the pool's black-box region (resuming the
        on-media sequence numbers when the region already holds a ring,
        e.g. a reopened or recovered pool)."""
        journal = self.journal
        if journal is None:
            return
        from repro.nvm.flightrec import FLIGHTREC_REGION, FlightRecorder

        journal.bind(clock=clock)
        if self._recorder_sink is not None:
            journal.remove_sink(self._recorder_sink)
            self._recorder_sink = None
        if pool.has_region(FLIGHTREC_REGION):
            pool.reserve_top_region(FLIGHTREC_REGION)
            offset, size = pool.get_region(FLIGHTREC_REGION)
            recorder = FlightRecorder(
                pool_mem,
                offset,
                size,
                snapshot_provider=self._flight_snapshot(pool_mem),
            )
            pool_mem.attach_flight_recorder(recorder)
            self._recorder_sink = recorder.record
            journal.add_sink(recorder.record)
        journal.emit(
            "engine_start",
            device=self.config.device,
            persistence=self.config.persistence,
        )
        journal.emit(
            "kernel_backend",
            backend=type(pool_mem.kernels).__name__
            if pool_mem.kernels is not None
            else "scalar",
            mode=self.config.kernels,
        )

    def _flight_snapshot(self, pool_mem: SimulatedMemory):
        """Provider for the per-flush ``metrics_snapshot`` slot: a small
        dict of headline counters (must stay well under one slot)."""
        stats = pool_mem.stats
        journal = self.journal

        def provider() -> dict[str, Any]:
            return {
                "events": len(journal.events) if journal is not None else 0,
                "flush_ops": stats.flush_ops,
                "bytes_read": stats.bytes_read,
                "bytes_written": stats.bytes_written,
                "cache_hits": stats.cache_hits,
            }

        return provider

    @contextmanager
    def _observed(self):
        """Attach tracer, metrics registry, and event journal around a
        run so deep layers (pool, scrub, planner, kernels) can record
        through the module-level helpers without plumbing."""
        with obs.attached(self.config.tracer):
            with obs_metrics.attached(self.metrics):
                with obs_events.attached(self.journal):
                    yield

    def _record_run_metrics(
        self, state: _RunState, stats_start, records_start: int, label: str
    ) -> None:
        """Fold one execution's device-traffic delta into the registry.

        Sampled once per run at flush/phase granularity (never per
        access), which keeps the always-on overhead negligible.
        ``records_start`` scopes the timeline to this execution: a
        reused state (degraded-mode re-runs) keeps earlier attempts'
        phase records.
        """
        registry = self.metrics
        if registry is None:
            return
        delta = state.pool_mem.stats.delta(stats_start)
        registry.inc("ntadoc_runs_total", kind=label)
        registry.inc("ntadoc_pool_bytes_read_total", delta.bytes_read)
        registry.inc("ntadoc_pool_bytes_written_total", delta.bytes_written)
        registry.inc("ntadoc_pool_cache_hits_total", delta.cache_hits)
        registry.inc("ntadoc_pool_cache_misses_total", delta.cache_misses)
        registry.inc("ntadoc_pool_flush_ops_total", delta.flush_ops)
        registry.inc("ntadoc_pool_flushed_lines_total", delta.flushed_lines)
        for record in state.timeline.records[records_start:]:
            registry.observe(
                "ntadoc_phase_ns", record.sim_ns, phase=record.name
            )

    def _charge_init_stream(self, state: _RunState) -> None:
        """Per-run initialization charges that precede any pool work:
        stream the compressed artifact from disk, house the dictionary in
        DRAM, and pay the metadata derivation (DAG build, topo sort,
        Algorithm 2, head/tail preprocessing) -- linear grammar passes."""
        corpus = self.corpus
        charge_sequential_io(state.clock, state.disk, serialized_size(corpus))
        state.ledger.charge("dram", "dictionary", _dictionary_bytes(corpus))
        glen = corpus.grammar_length()
        state.clock.cpu(4 * glen + 6 * corpus.n_rules)

    def _build_pruned(self, state: _RunState) -> PrunedDag:
        """Build the device-resident pruned DAG pool (once per plan)."""
        config = self.config
        state.pool_builds += 1
        return PrunedDag.build(
            state.pool,
            self.corpus,
            self._dag,
            bounds=None if config.use_growable_structures else self._bounds,
            headtail_k=self._headtail_k,
            heads=self._heads,
            tails=self._tails,
            per_rule=config.use_scattered_layout,
            on_rule=(
                state.op_commit if config.persistence == "operation" else None
            ),
        )

    def _make_context(self, state: _RunState):
        """The shared task context over ``state``'s pruned DAG pool."""
        from repro.analytics.base import CompressedTaskContext

        config = self.config
        corpus = self.corpus
        return CompressedTaskContext(
            pruned=state.pruned,
            allocator=state.pool.allocator,
            dram=state.dram_mem,
            dram_allocator=state.dram_alloc,
            clock=state.clock,
            ledger=state.ledger,
            vocab=corpus.vocab,
            file_names=corpus.file_names,
            topo_order=self._topo,
            reverse_topo=self._reverse_topo,
            topo_position=self._topo_position,
            strategy=self._resolve_strategy(),
            strategy_forced=config.traversal != "auto",
            growable=config.use_growable_structures,
            ngram_n=config.ngram_n,
            term_vector_k=config.term_vector_k,
            op_commit=(
                state.op_commit
                if config.persistence == "operation"
                else (lambda: None)
            ),
        )

    def _peaks(self, state: _RunState) -> tuple[int, int]:
        """(dram_peak, pool_peak) of one finished run or plan."""
        dram_peak = state.ledger.peak("dram") + state.dram_alloc.peak_bytes
        pool_peak = state.pool.allocator.peak_bytes
        if self.config.device == "dram":
            dram_peak += pool_peak
        return dram_peak, pool_peak

    def run(
        self,
        task: "AnalyticsTask",
        *,
        fault_plan: "FaultPlan | None" = None,
        resume_from: "RecoveryReport | None" = None,
    ) -> RunResult:
        """Execute ``task`` through both phases; return the measurement.

        Args:
            task: The analytics task to run.
            fault_plan: Optional fault-injection schedule armed on the
                pool device for the whole run (crash-sweep harness).
            resume_from: Resume from a crashed run's
                :class:`~repro.core.recovery.RecoveryReport` instead of
                building a fresh pool; completed phases are skipped and
                the analytics output is bit-identical to an uncrashed
                run's.
        """
        if resume_from is not None:
            return self._run_resumed(task, resume_from)
        state = self._fresh_state(fault_plan)
        return self._execute_solo(task, state)

    def _execute_solo(self, task: "AnalyticsTask", state: _RunState) -> RunResult:
        """Both phases of one solo task against prepared machinery.

        Reuses ``state.pruned`` when it already exists (degraded-mode
        siblings after a media recovery); a fresh state always builds.
        """
        stats_start = state.pool_mem.stats.snapshot()
        records_start = len(state.timeline.records)
        with self._observed():
            obs_events.emit("phase_start", phase="initialization", task=task.name)
            with state.timeline.phase("initialization"):
                with obs.span("init:stream", category="engine"):
                    self._charge_init_stream(state)
                if state.pruned is None:
                    with obs.span("init:pool_build", category="engine"):
                        state.pruned = self._build_pruned(state)

            ctx = self._make_context(state)

            # Task-specific precomputation belongs to the initialization
            # phase (Table II's accounting); re-enter it for the prepare
            # hook and the phase checkpoint.
            with state.timeline.phase("initialization"):
                with obs.span(f"task:{task.name}:prepare", category="task"):
                    task.prepare(ctx)
                self._persist_phase(state.pool, state.phase_persist, "initialization")

            obs_events.emit("phase_start", phase="traversal", task=task.name)
            with state.timeline.phase("traversal"):
                with obs.span(f"task:{task.name}:run", category="task"):
                    result = task.run_compressed(ctx)
                result_bytes = task.result_size_bytes(result)
                with obs.span(f"task:{task.name}:write_back", category="task"):
                    self._write_result_blob(state.pool, result_bytes)
                self._persist_phase(state.pool, state.phase_persist, "traversal")
                # Write analytics output back to disk (end of measurement
                # window).
                with obs.span("io:result_writeback", category="io"):
                    charge_sequential_io(
                        state.clock, state.disk, result_bytes, write=True
                    )
            obs_events.emit("task_complete", task=task.name)
        self._record_run_metrics(state, stats_start, records_start, "solo")
        return self._solo_result(task, state, ctx, result)

    def _run_resumed(
        self, task: "AnalyticsTask", report: "RecoveryReport"
    ) -> RunResult:
        """Resume an interrupted run from a recovered pool.

        Completed phases are skipped: with initialization checkpointed,
        only the per-run CPU/stream charges are re-paid and the traversal
        phase re-executes against the surviving pruned DAG.  Traversal is
        overwrite-idempotent (weights reset, structures rebuilt at the
        restored allocator top), so the analytics output is bit-identical
        to an uncrashed run's.
        """
        if report.needs_full_rebuild or report.pruned is None:
            # Not even initialization survived: nothing to resume from.
            return self.run(task)
        state = self._resumed_state(report)
        stats_start = state.pool_mem.stats.snapshot()
        records_start = len(state.timeline.records)
        with self._observed():
            obs_events.emit(
                "phase_start", phase="initialization", task=task.name,
                resumed=True,
            )
            with state.timeline.phase("initialization"):
                # The compressed artifact is re-streamed from disk and the
                # in-DRAM derivations re-paid; the device-resident DAG pool
                # itself survived the crash and is NOT rebuilt.
                with obs.span("init:stream", category="engine"):
                    self._charge_init_stream(state)

            ctx = self._make_context(state)

            with state.timeline.phase("initialization"):
                with obs.span(f"task:{task.name}:prepare", category="task"):
                    task.prepare(ctx)
                # The initialization checkpoint already persisted before
                # the crash; it is not re-written.
                obs_events.emit(
                    "phase_commit", phase="initialization", resumed=True
                )

            obs_events.emit(
                "phase_start", phase="traversal", task=task.name, resumed=True
            )
            with state.timeline.phase("traversal"):
                with obs.span(f"task:{task.name}:run", category="task"):
                    result = task.run_compressed(ctx)
                result_bytes = task.result_size_bytes(result)
                with obs.span(f"task:{task.name}:write_back", category="task"):
                    self._write_result_blob(state.pool, result_bytes)
                self._persist_phase(state.pool, state.phase_persist, "traversal")
                with obs.span("io:result_writeback", category="io"):
                    charge_sequential_io(
                        state.clock, state.disk, result_bytes, write=True
                    )
            obs_events.emit("task_complete", task=task.name, resumed=True)
        self._record_run_metrics(state, stats_start, records_start, "resumed")
        return self._solo_result(task, state, ctx, result, resumed=True)

    def _solo_result(
        self,
        task: "AnalyticsTask",
        state: _RunState,
        ctx,
        result: Any,
        *,
        resumed: bool = False,
    ) -> RunResult:
        dram_peak, pool_peak = self._peaks(state)
        total_ns = state.timeline.total_sim_ns()
        if self.metrics is not None:
            self.metrics.observe("ntadoc_task_ns", total_ns, task=task.name)
        return RunResult(
            task=task.name,
            system=self.system_name,
            result=result,
            phase_ns=state.timeline.as_dict(),
            total_ns=total_ns,
            dram_peak=dram_peak,
            pool_peak=pool_peak,
            pool_device=self.config.device,
            strategy=ctx.strategy,
            ngram_names=ctx.ngram_names,
            pool_stats=state.pool_mem.stats,
            resumed=resumed,
        )

    # ------------------------------------------------------------------
    # Fused multi-task execution (the shared-traversal planner)
    # ------------------------------------------------------------------

    def run_many(
        self,
        tasks: "list[AnalyticsTask]",
        *,
        fault_plan: "FaultPlan | None" = None,
        resume_from: "RecoveryReport | None" = None,
    ):
        """Execute many tasks against ONE pool build and fused traversals.

        The planner (:mod:`repro.core.plan`) runs at most one DAG pass
        per traversal direction and one root-segment sweep, dispatching
        shared per-rule and per-file records to every task that declared
        a need for them.  Per-task results are bit-identical to solo
        :meth:`run` calls; simulated time is charged once and attributed
        per task (an even share of the shared substrate plus each task's
        exclusive hook time).

        Args:
            tasks: The analytics tasks to fuse, in submission order.
            fault_plan: Optional fault-injection schedule armed on the
                pool device for the whole plan (crash-sweep harness).
            resume_from: Resume a crashed plan from its recovered pool;
                per-task outputs match an uncrashed plan's.

        Returns:
            A :class:`~repro.core.plan.PlanResult`.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("run_many needs at least one task")
        if resume_from is not None:
            return self._run_many_resumed(tasks, resume_from)
        state = self._fresh_state(fault_plan, n_tasks=len(tasks))
        return self._execute_fused(tasks, state)

    def run_many_on(self, tasks: "list[AnalyticsTask]", state: _RunState):
        """Execute a fused plan against caller-prepared machinery.

        The segmented-ingest layer (:mod:`repro.ingest`) reuses one
        nested pool and one built pruned DAG per sealed segment across
        many queries; it constructs the :class:`_RunState` itself (with
        a fresh per-query timeline) and calls this instead of
        :meth:`run_many`.  When ``state.pruned`` already exists the pool
        build is skipped, exactly like a degraded-mode solo re-run.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("run_many_on needs at least one task")
        return self._execute_fused(tasks, state)

    def _execute_fused(self, tasks: "list[AnalyticsTask]", state: _RunState):
        """One fused plan against prepared machinery (see run_many).

        Reuses ``state.pruned`` when it already exists (the segmented
        layer keeps segment DAGs built across queries); a fresh state
        always builds.
        """
        from repro.core.plan import execute_fused

        stats_start = state.pool_mem.stats.snapshot()
        records_start = len(state.timeline.records)
        builds_start = state.pool_builds
        with self._observed():
            obs_events.emit(
                "phase_start",
                phase="initialization",
                tasks=[task.name for task in tasks],
            )
            with state.timeline.phase("initialization"):
                with obs.span("init:stream", category="engine"):
                    self._charge_init_stream(state)
                if state.pruned is None:
                    with obs.span("init:pool_build", category="engine"):
                        state.pruned = self._build_pruned(state)

            ctx = self._make_context(state)

            with state.timeline.phase("initialization"):
                fused = self._fuse_tasks(ctx, tasks)
                self._persist_phase(state.pool, state.phase_persist, "initialization")

            obs_events.emit("phase_start", phase="traversal")
            with state.timeline.phase("traversal"):
                outcome = execute_fused(ctx, fused)
                self._write_plan_results(state, fused, outcome.results)
                self._persist_phase(state.pool, state.phase_persist, "traversal")
            for task in tasks:
                obs_events.emit("task_complete", task=task.name, fused=True)
        self._record_run_metrics(state, stats_start, records_start, "fused")
        return self._finish_plan(
            state, ctx, fused, outcome, pool_builds=state.pool_builds - builds_start
        )

    def _run_many_resumed(self, tasks: "list[AnalyticsTask]", report):
        """Resume an interrupted fused plan from a recovered pool (same
        contract as :meth:`_run_resumed`, for the whole plan)."""
        from repro.core.plan import execute_fused

        if report.needs_full_rebuild or report.pruned is None:
            return self.run_many(tasks)
        state = self._resumed_state(report)
        stats_start = state.pool_mem.stats.snapshot()
        records_start = len(state.timeline.records)
        with self._observed():
            obs_events.emit(
                "phase_start", phase="initialization", resumed=True
            )
            with state.timeline.phase("initialization"):
                with obs.span("init:stream", category="engine"):
                    self._charge_init_stream(state)

            ctx = self._make_context(state)

            with state.timeline.phase("initialization"):
                fused = self._fuse_tasks(ctx, tasks)
                # The initialization checkpoint already persisted before
                # the crash; it is not re-written.
                obs_events.emit(
                    "phase_commit", phase="initialization", resumed=True
                )

            obs_events.emit("phase_start", phase="traversal", resumed=True)
            with state.timeline.phase("traversal"):
                outcome = execute_fused(ctx, fused)
                self._write_plan_results(state, fused, outcome.results)
                self._persist_phase(state.pool, state.phase_persist, "traversal")
            for task in tasks:
                obs_events.emit("task_complete", task=task.name, fused=True)
        self._record_run_metrics(state, stats_start, records_start, "resumed")
        return self._finish_plan(
            state, ctx, fused, outcome, pool_builds=0, resumed=True
        )

    def _fuse_tasks(self, ctx, tasks: "list[AnalyticsTask]") -> list:
        """Collect every task's fused declaration (initialization phase).

        Fuse-time preparation (e.g. the sequence tasks' rule profiles) is
        the fused counterpart of the solo prepare() hook; its simulated
        time is attributed exclusively to the declaring task.
        """
        fused = []
        for task in tasks:
            with obs.span(f"task:{task.name}:fuse", category="task"):
                start = ctx.clock.ns
                f = task.fuse(ctx)
                f.init_ns += ctx.clock.ns - start
            fused.append(f)
        return fused

    def _write_plan_results(self, state: _RunState, fused: list, results: list) -> None:
        """Write each task's result blob and charge its disk write-back
        (both attributed exclusively to the producing task)."""
        for f, result in zip(fused, results):
            with obs.span(f"task:{f.task.name}:write_back", category="task"):
                start = state.clock.ns
                result_bytes = f.task.result_size_bytes(result)
                self._write_result_blob(state.pool, result_bytes)
                charge_sequential_io(
                    state.clock, state.disk, result_bytes, write=True
                )
                f.exclusive_ns += state.clock.ns - start

    def _finish_plan(
        self,
        state: _RunState,
        ctx,
        fused: list,
        outcome,
        *,
        pool_builds: int,
        resumed: bool = False,
    ):
        """Assemble the PlanResult: per-task attribution of one charge."""
        from repro.core.plan import PlanResult, PlanStats, plan_groups

        phase_ns = state.timeline.as_dict()
        total_ns = state.timeline.total_sim_ns()
        n = len(fused)
        init_total = phase_ns.get("initialization", 0.0)
        trav_total = phase_ns.get("traversal", 0.0)
        shared_init = max(init_total - sum(f.init_ns for f in fused), 0.0)
        shared_trav = max(trav_total - sum(f.exclusive_ns for f in fused), 0.0)
        dram_peak, pool_peak = self._peaks(state)
        results = []
        for f, result in zip(fused, outcome.results):
            task_phases = {
                "initialization": shared_init / n + f.init_ns,
                "traversal": shared_trav / n + f.exclusive_ns,
            }
            if self.metrics is not None:
                self.metrics.observe(
                    "ntadoc_task_ns",
                    task_phases["initialization"] + task_phases["traversal"],
                    task=f.task.name,
                )
            results.append(
                RunResult(
                    task=f.task.name,
                    system=self.system_name,
                    result=result,
                    phase_ns=task_phases,
                    total_ns=task_phases["initialization"]
                    + task_phases["traversal"],
                    dram_peak=dram_peak,
                    pool_peak=pool_peak,
                    pool_device=self.config.device,
                    strategy=ctx.strategy,
                    ngram_names=ctx.ngram_names,
                    pool_stats=state.pool_mem.stats,
                    resumed=resumed,
                    fused=True,
                    shared_ns=(shared_init + shared_trav) / n,
                    exclusive_ns=f.init_ns + f.exclusive_ns,
                )
            )
        stats = PlanStats(
            n_tasks=n,
            pool_builds=pool_builds,
            dag_passes=outcome.dag_passes,
            segment_sweeps=outcome.segment_sweeps,
            groups=plan_groups(fused),
            fused=True,
        )
        return PlanResult(
            results=results, stats=stats, phase_ns=phase_ns, total_ns=total_ns
        )

    # ------------------------------------------------------------------
    # Resilient execution (media-fault graceful degradation)
    # ------------------------------------------------------------------

    def run_resilient(
        self,
        task: "AnalyticsTask",
        *,
        fault_plan: "FaultPlan | None" = None,
        max_recoveries: int = 2,
    ) -> "RunResult | TaskFailure":
        """Like :meth:`run`, but media damage degrades gracefully.

        A :class:`~repro.errors.MediaError` surfacing anywhere in the run
        triggers recovery instead of propagating: scrub the pool (heal
        transients, remap stuck lines, quarantine unrecoverable chunks),
        rename the damaged build's regions out of the way (never freed --
        the exact-size free list would recycle damaged extents into
        fresh structures), and rebuild the pruned DAG from the source
        corpus.  After ``max_recoveries`` failed rebuilds the task is
        failed with a structured :class:`TaskFailure` -- never a silent
        wrong answer.

        Recovery needs ``EngineConfig(media_protect=True)``; without a
        guard the first media error fails the task (kind="unprotected").
        When recovery succeeds the analytics output is bit-identical to
        a fault-free run's; only simulated time differs (the recovery
        work is real, charged time).
        """
        state = self._fresh_state(fault_plan)
        self.last_state = state
        return self._attempt_resilient(task, state, max_recoveries)

    def run_many_resilient(
        self,
        tasks: "list[AnalyticsTask]",
        *,
        fault_plan: "FaultPlan | None" = None,
        max_recoveries: int = 2,
    ):
        """Like :meth:`run_many`, with per-task graceful degradation.

        The fused plan is attempted once; if a media error surfaces, the
        pool is scrubbed, the damaged build quarantined, and every task
        re-run solo against the recovered pool so sibling tasks complete
        even when one task's data is gone for good.  Tasks that still
        cannot finish appear as :class:`TaskFailure` entries in
        ``PlanResult.failures``; ``results`` holds the finishers.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("run_many_resilient needs at least one task")
        state = self._fresh_state(fault_plan, n_tasks=len(tasks))
        self.last_state = state
        try:
            return self._execute_fused(tasks, state)
        except MediaError as exc:
            if state.guard is None:
                failures = [
                    self._fail_task(task, state, exc, kind="unprotected")
                    for task in tasks
                ]
                return self._degraded_plan(state, [], failures)
            try:
                self._recover_media(state, [])
            except MediaError as scrub_exc:
                # Device failing during its own recovery: every task of
                # the plan degrades to a typed failure.
                failures = [
                    self._fail_task(task, state, scrub_exc) for task in tasks
                ]
                return self._degraded_plan(state, [], failures)
        # Degraded mode: siblings complete solo against the scrubbed
        # pool; a task whose damage persists fails alone.
        results: list[RunResult] = []
        failures: list[TaskFailure] = []
        for task in tasks:
            out = self._attempt_resilient(task, state, max_recoveries)
            if isinstance(out, TaskFailure):
                failures.append(out)
            else:
                results.append(out)
        return self._degraded_plan(state, results, failures)

    def scrub_and_quarantine(self):
        """Scrub the last resilient run's pool and quarantine its build.

        The faultsweep harness's post-run leg: a full scrub pass catches
        *latent* damage the run never read, and the quarantine-rename
        forces the next :meth:`rerun_resilient` to rebuild from source
        instead of trusting chunks the scrub's write test touched.
        Returns the :class:`~repro.nvm.scrub.ScrubReport`.

        Raises:
            ReproError: without a preceding media-protected resilient run.
            MediaError: when the device fails faster than the scrub can
                walk it (damage landing on the scrub's own bookkeeping
                reads) -- still a typed, detected outcome.
        """
        state = self.last_state
        if state is None or state.guard is None:
            raise ReproError(
                "no media-protected resilient run to scrub; call "
                "run_resilient with EngineConfig(media_protect=True) first"
            )
        return self._recover_media(state, [])

    def rerun_resilient(
        self, task: "AnalyticsTask", *, max_recoveries: int = 2
    ) -> "RunResult | TaskFailure":
        """Re-run ``task`` on the last resilient run's machinery.

        The faultsweep harness's re-analyze leg: after
        :meth:`scrub_and_quarantine` the pool holds only healed (or
        quarantined) chunks, and a successful re-run must be bit-identical
        to a fault-free run's analytics output.

        Raises:
            ReproError: without a preceding resilient run.
        """
        if self.last_state is None:
            raise ReproError("no resilient run to re-analyze")
        return self._attempt_resilient(task, self.last_state, max_recoveries)

    def _attempt_resilient(
        self, task: "AnalyticsTask", state: _RunState, max_recoveries: int
    ) -> "RunResult | TaskFailure":
        quarantined: list[str] = []
        last_scrub = None
        for attempt in range(max_recoveries + 1):
            try:
                return self._execute_solo(task, state)
            except MediaError as exc:
                if state.guard is None:
                    return self._fail_task(
                        task,
                        state,
                        exc,
                        kind="unprotected",
                        scrub=last_scrub,
                        quarantined=quarantined,
                    )
                if attempt >= max_recoveries:
                    return self._fail_task(
                        task, state, exc, scrub=last_scrub, quarantined=quarantined
                    )
                try:
                    last_scrub = self._recover_media(state, quarantined)
                except MediaError as scrub_exc:
                    # The device is failing faster than the scrub can
                    # walk it (e.g. wear death on the recovery's own
                    # bookkeeping lines).  Still a typed outcome.
                    return self._fail_task(
                        task,
                        state,
                        scrub_exc,
                        scrub=last_scrub,
                        quarantined=quarantined,
                    )
            except OutOfMemoryError as exc:
                # Only rebuilds crowded out by quarantined extents are a
                # resilience outcome; a fresh-pool OOM is a sizing bug.
                if not any(
                    name.startswith("__quarantined")
                    for name in state.pool.region_names()
                ):
                    raise
                return self._fail_task(
                    task,
                    state,
                    exc,
                    kind="oom",
                    scrub=last_scrub,
                    quarantined=quarantined,
                )
        raise AssertionError("unreachable")

    def _recover_media(self, state: _RunState, quarantined: list[str]):
        """Scrub the pool and quarantine the damaged build (force rebuild).

        Returns the :class:`~repro.nvm.scrub.ScrubReport`.  Every
        non-infrastructure region of the failed build is renamed to a
        ``__quarantined{n}__`` name: the rebuild must not collide with
        surviving names, and the damaged extents must never re-enter the
        allocator's free list.  Remap-table updates ride a transaction
        log so a crash mid-recovery stays recoverable by the PR-3 triad.
        """
        from repro.nvm.persist import TransactionLog

        pool = state.pool
        with self._observed():
            with state.timeline.phase("recovery"):
                with obs.span("recover:media", category="recovery") as span:
                    txlog = TransactionLog(
                        pool, capacity=1 << 14, auto_capacity=True
                    )
                    report = state.guard.scrub(txlog=txlog)
                    seq = sum(
                        1
                        for name in pool.region_names()
                        if name.startswith("__quarantined")
                    )
                    for name in list(pool.region_names()):
                        if name.startswith("__") or name.startswith("results_"):
                            continue
                        qname = f"__quarantined{seq}__{name}"
                        pool.rename_region(name, qname)
                        quarantined.append(qname)
                        seq += 1
                    state.pruned = None
                    if span is not None:
                        span.attrs["mismatches"] = report.mismatches
                        span.attrs["quarantined_regions"] = len(quarantined)
                    obs_events.emit(
                        "media_recovery",
                        severity="warning",
                        mismatches=report.mismatches,
                        quarantined_regions=len(quarantined),
                    )
                    obs_metrics.inc("ntadoc_media_recoveries_total")
        return report

    def _fail_task(
        self,
        task: "AnalyticsTask",
        state: _RunState,
        exc: Exception,
        *,
        kind: str | None = None,
        scrub: Any = None,
        quarantined: "list[str] | None" = None,
    ) -> TaskFailure:
        return TaskFailure(
            task=task.name,
            error=str(exc),
            kind=kind if kind is not None else getattr(exc, "kind", None),
            offset=getattr(exc, "offset", None),
            line=getattr(exc, "line", None),
            scrub=scrub,
            quarantined_regions=list(quarantined or ()),
            total_ns=state.clock.ns,
        )

    def _degraded_plan(
        self,
        state: _RunState,
        results: "list[RunResult]",
        failures: "list[TaskFailure]",
    ):
        from repro.core.plan import PlanResult, PlanStats

        stats = PlanStats(
            n_tasks=len(results) + len(failures),
            # The plan's machinery is fresh: every build (the fused
            # attempt's and each post-recovery rebuild) belongs to it.
            pool_builds=state.pool_builds,
            fused=False,
        )
        return PlanResult(
            results=results,
            stats=stats,
            phase_ns=state.timeline.as_dict(),
            total_ns=state.timeline.total_sim_ns(),
            failures=failures,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_strategy(self) -> str:
        if self.config.traversal != "auto":
            return self.config.traversal
        if self.corpus.n_files > self.config.bottomup_threshold:
            return "bottomup"
        return "topdown"

    def _make_op_commit(self, pool: NvmPool):
        """Operation-level persistence: commit marker + flush per batch."""
        if self.config.persistence != "operation":
            return lambda: None
        if pool.has_region("__opmarker__"):  # resumed run
            marker_off = pool.get_region("__opmarker__")[0]
        else:
            marker_off = pool.alloc_region("__opmarker__", 8)
        mem = pool.memory
        batch = max(1, self.config.op_batch)
        pending = 0

        def op_commit() -> None:
            nonlocal pending
            pending += 1
            if pending < batch:
                return
            pending = 0
            # The batch's data must be durable before the commit marker
            # advances -- flushes are not atomic, so marker and data on
            # one flush could persist in either order.
            mem.flush()
            count = layout.read_u64(mem, marker_off)
            layout.write_u64(mem, marker_off, count + 1)
            mem.flush()

        return op_commit

    def _persist_phase(
        self, pool: NvmPool, phase_persist: PhasePersistence | None, name: str
    ) -> None:
        if phase_persist is not None:
            with obs.span(f"persist:phase:{name}", category="persist"):
                # Data (and directory) first, marker second: flushes are
                # not atomic, so a marker riding the same flush as its
                # data could persist ahead of it and checkpoint a phase
                # whose writes never reached media.
                pool.flush()
                # Emitted between the data flush and the marker flush so
                # the commit record rides the marker's flush into the
                # black box -- the on-media tail tracks the checkpoint
                # to within one torn flush.
                obs_events.emit("phase_commit", phase=name)
                phase_persist.complete_phase(name)
        elif self.config.persistence == "operation":
            with obs.span(f"persist:phase:{name}", category="persist"):
                obs_events.emit("phase_commit", phase=name)
                pool.flush()

    def _write_result_blob(self, pool: NvmPool, result_bytes: int) -> None:
        """Write the serialized result into the pool (sequential stream)."""
        if result_bytes <= 0:
            return
        region = f"results_{len(pool.region_names())}"
        offset = pool.alloc_region(region, result_bytes)
        mem = pool.memory
        # One zero-fill per 4 KiB stripe keeps the historical access shape
        # (write_ops, per-call spans) while fill avoids materializing data.
        written = 0
        while written < result_bytes:
            step = min(4096, result_bytes - written)
            mem.fill(offset + written, step)
            written += step


def run_task(
    corpus: CompressedCorpus,
    task: "AnalyticsTask",
    config: EngineConfig | None = None,
) -> RunResult:
    """One-shot convenience: build an engine and run a single task."""
    return NTadocEngine(corpus, config).run(task)


def check_pool_fits(result: RunResult) -> None:
    """Sanity guard used by the harness.

    Raises:
        ReproError: if the run reported a zero-byte pool footprint, which
            would indicate the engine did no device-resident work.
    """
    if result.pool_peak <= 0:
        raise ReproError("engine run left no footprint on the pool device")
