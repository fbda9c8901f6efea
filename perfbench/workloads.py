"""The benchmark's three workloads, generated from one seed.

A workload owns its inputs, its engines and its oracle.  The driver in
``run.py`` calls :meth:`Workload.setup` (timed as ``setup_s``), then
:meth:`Workload.prepare_oracle` (untimed), then replays
:meth:`Workload.cycle` over and over: each cycle is a fixed, seeded list
of ops, and every op goes through the public API only.

Every ``NTadocEngine.run``/``run_many`` builds a fresh pool, so the
modelled CPU cache starts empty on every op of ``trio_manyfile`` and
``mixed_fewfile``.  ``ingest_stream`` starts every cycle from a fresh
``SegmentedEngine`` and replays the same trace, so its caches start
empty per cycle and carry over between the ops of one cycle.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.analytics import WordCount, task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.core.ngrams import pack_ngram
from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.datasets.profiles import PROFILES
from repro.harness.crashsweep import canonical_result
from repro.ingest.engine import SegmentedEngine
from repro.ingest.merge import canonical_json
from repro.sequitur.compressor import compress_files
from repro.sequitur.dictionary import tokenize

TASKS = (
    "word_count",
    "sort",
    "term_vector",
    "inverted_index",
    "sequence_count",
    "ranked_inverted_index",
)
TRIO = ("word_count", "inverted_index", "term_vector")
CHECKPOINT_TASKS = ["word_count", "inverted_index"]
PAIRS = [
    ("word_count", "inverted_index"),
    ("sort", "term_vector"),
    ("sequence_count", "ranked_inverted_index"),
]
TRIPLES = [TRIO, ("sort", "sequence_count", "ranked_inverted_index")]


def derive_seed(seed: int, label: str) -> int:
    """A per-input seed: the same (seed, label) always gives the same value."""
    return random.Random(f"{seed}:{label}").randrange(1 << 31)


@dataclass
class OpRecord:
    """What one op did, read from the public results after it returned."""

    kind: str
    wall_s: float
    sim_ns: float
    stats: Any  # MemoryStats of the pool device over this op
    dram_peak: int = 0
    pool_peak: int = 0
    init_ns: float = 0.0
    traversal_ns: float = 0.0
    bottomup_passes: int = 0
    topdown_passes: int = 0
    segments: int = 0
    tokens: int = 0  # tokens Sequitur compressed during the op
    failed: str = ""  # non-empty: why the op counts as failed
    cal_s: float = 0.0  # calibration sample next to the op (see run.py)

    def sim_key(self) -> tuple:
        """Every simulated value of the op; repeats must compare ``==``."""
        s = self.stats
        return (
            self.kind, self.sim_ns, s.bytes_written, s.cache_hits,
            s.cache_misses, s.writebacks, s.flush_ops, s.flushed_lines,
            s.seal_bytes, self.dram_peak, self.pool_peak, self.init_ns,
            self.traversal_ns, self.bottomup_passes, self.topdown_passes,
            self.segments,
        )


def _plan_fields(results: list) -> dict:
    """Op fields from a list of ``RunResult``/``PlanResult`` objects."""
    out = {"init_ns": 0.0, "traversal_ns": 0.0, "bottomup_passes": 0,
           "topdown_passes": 0, "dram_peak": 0, "pool_peak": 0}
    for res in results:
        out["init_ns"] += res.phase_ns.get("initialization", 0.0)
        out["traversal_ns"] += res.phase_ns.get("traversal", 0.0)
        runs = getattr(res, "results", [res])
        stats = getattr(res, "stats", None)
        if stats is not None:
            out["bottomup_passes"] += stats.dag_passes.get("bottomup", 0)
            out["topdown_passes"] += stats.dag_passes.get("topdown", 0)
        for run in runs:
            out["dram_peak"] = max(out["dram_peak"], run.dram_peak)
            out["pool_peak"] = max(out["pool_peak"], run.pool_peak)
    return out


def _expected(task_name: str, token_files: list, vocab: list, config) -> str:
    """Canonical JSON of ``task.reference`` over decompressed token lists."""
    task = task_by_name(task_name)
    if task_name in ("sequence_count", "ranked_inverted_index"):
        result = task.reference(token_files, config.ngram_n)
        result = {pack_ngram(k): v for k, v in result.items()}
    elif task_name == "sort":
        counts = WordCount.reference(token_files)
        result = sorted(counts.items(), key=lambda pair: vocab[pair[0]])
    elif task_name == "term_vector":
        result = task.reference(token_files, config.term_vector_k, vocab)
    else:
        result = task.reference(token_files)
    return canonical_result(result)


class Workload:
    """Base class: see the module docstring for the call order."""

    name = ""
    why = ""
    #: Host seconds one cycle takes at the reference speed (see run.py),
    #: measured when the benchmark was written.  A run replays
    #: round(--seconds / ref_cycle_s) cycles, so a run at a given
    #: --seconds always does the same work, whatever the program's speed.
    ref_cycle_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """Untimed oracle preparation (decompressed inputs, references)."""

    def input_size(self) -> dict:
        raise NotImplementedError

    def start_cycle(self) -> None:
        """Untimed per-cycle preparation."""

    def cycle(self) -> list[Callable[[], OpRecord]]:
        raise NotImplementedError


def exact_length_files(spec: CorpusSpec) -> list[tuple[str, str]]:
    """``spec.n_files`` files of exactly ``spec.tokens_per_file`` words.

    Each file joins two generated files and keeps the first
    ``tokens_per_file`` words, so the seed changes what the files say but
    (almost never) how long they are.  A single file's length otherwise
    varies by a quarter of its mean between seeds.
    """
    pairs = generate_corpus_files(dataclasses.replace(spec, n_files=2 * spec.n_files))
    files = []
    for (name, first), (_, second) in zip(pairs[0::2], pairs[1::2]):
        words = f"{first} {second}".split()[: spec.tokens_per_file]
        files.append((name, " ".join(words)))
    return files


class _CorpusWorkload(Workload):
    """Queries over static corpora: ``trio_manyfile`` and ``mixed_fewfile``."""

    datasets: tuple[str, ...] = ()
    config = EngineConfig()
    exact_length = False  # cut every file to the profile's mean length

    def setup(self) -> None:
        self.corpora = {}
        self.engines = {}
        for name in self.datasets:
            spec = dataclasses.replace(
                PROFILES[name].spec, seed=derive_seed(self.seed, name)
            )
            if self.exact_length:
                files = exact_length_files(spec)
            else:
                files = generate_corpus_files(spec)
            self.corpora[name] = compress_files(files)
            self.engines[name] = NTadocEngine(self.corpora[name], self.config)
        for name in self.datasets:
            self._warm_up(self.engines[name])
        self.expected: dict[tuple[str, str], str] = {}

    def _warm_up(self, engine: NTadocEngine) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        self.token_files = {
            name: corpus.expand_files() for name, corpus in self.corpora.items()
        }

    def input_size(self) -> dict:
        sizes = {}
        for name, corpus in self.corpora.items():
            sizes[name] = {
                "files": corpus.n_files,
                "rules": corpus.n_rules,
                "tokens": sum(len(f) for f in self.token_files[name]),
                "vocab": len(corpus.vocab),
            }
        return sizes

    def _check(self, dataset: str, runs: list) -> str:
        for run in runs:
            key = (dataset, run.task)
            if key not in self.expected:
                self.expected[key] = _expected(
                    run.task, self.token_files[dataset],
                    self.corpora[dataset].vocab, self.config,
                )
            if canonical_result(run.result) != self.expected[key]:
                return f"{dataset}/{run.task}: output differs from the oracle"
        return ""

    def _query(self, dataset: str, tasks: tuple[str, ...]) -> Callable[[], OpRecord]:
        engine = self.engines[dataset]
        task_objs = [task_by_name(t) for t in tasks]

        def op() -> OpRecord:
            # One task calls run and several call run_many, as `ntadoc run` does.
            start = time.perf_counter()
            if len(task_objs) == 1:
                res = engine.run(task_objs[0])
            else:
                res = engine.run_many(task_objs)
            wall = time.perf_counter() - start
            runs = getattr(res, "results", [res])
            return OpRecord(
                kind="query",
                wall_s=wall,
                sim_ns=res.total_ns,
                stats=runs[0].pool_stats,
                failed=self._check(dataset, runs),
                **_plan_fields([res]),
            )

        return op


class TrioManyFile(_CorpusWorkload):
    name = "trio_manyfile"
    why = "host-time hot path: fused wc+ii+tv on 1000 small files, bottom-up merge"
    datasets = ("B",)
    config = EngineConfig()
    ref_cycle_s = 0.31

    def _warm_up(self, engine: NTadocEngine) -> None:
        engine.run_many([task_by_name(t) for t in TRIO])

    def cycle(self) -> list[Callable[[], OpRecord]]:
        return [self._query("B", TRIO)]


class MixedFewFile(_CorpusWorkload):
    name = "mixed_fewfile"
    why = "few large files, operation persistence: top-down traversal and commit flushes"
    datasets = ("A", "C", "D")
    config = EngineConfig(persistence="operation")
    exact_length = True  # few files: their lengths would not average out
    ref_cycle_s = 4.6

    def _warm_up(self, engine: NTadocEngine) -> None:
        engine.run(task_by_name("word_count"))

    def cycle(self) -> list[Callable[[], OpRecord]]:
        # Per dataset, every task once alone, once in a pair and once in a
        # triple.  The groups are fixed and the seed picks the op order:
        # seeded groups moved sim_ns_per_op by 18% between seeds.
        plan = [
            (dataset, group)
            for dataset in self.datasets
            for group in [(task,) for task in TASKS] + PAIRS + TRIPLES
        ]
        random.Random(derive_seed(self.seed, "mixed-stream")).shuffle(plan)
        return [self._query(dataset, tasks) for dataset, tasks in plan]


# ----------------------------------------------------------------------
# ingest_stream
# ----------------------------------------------------------------------

# The live corpus grows by two docs a round.  With equal appends and
# deletes, each compaction's merged segment was as big as the previous
# one, so whether it fitted that retired extent (and paid a 1.8 MB
# zero-fill) flipped between seeds and moved nvm_write_bytes_per_op by
# 20%.  Deltas smaller than the 13-doc bulk segments always fit the bulk
# extents for the same reason.
BULK_DOCS = 120
DELTA_DOCS = 8  # appended per round
DELETE_DOCS = 6  # deleted per round
ROUNDS = 12
COMPACT_EVERY = 4


class IngestStream(Workload):
    name = "ingest_stream"
    why = "writes beside reads: Sequitur, manifest transactions, sealing, compaction"
    config = EngineConfig(media_protect=True)
    ref_cycle_s = 1.55

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The benchmark's only hook into the program: it reads the
        # PlanResult of every per-segment query, which run_tasks drops.
        self.plans: list = []
        original = NTadocEngine.run_many_on

        def run_many_on(engine, tasks, state):
            outcome = original(engine, tasks, state)
            self.plans.append(outcome)
            return outcome

        NTadocEngine.run_many_on = run_many_on

    def setup(self) -> None:
        spec = CorpusSpec(
            n_files=BULK_DOCS + DELTA_DOCS * ROUNDS,
            tokens_per_file=40,
            vocab_size=1500,
            phrase_pool=300,
            templates=8,
            template_len=200,
            window=20,
            reuse=0.9,
            zipf_exponent=1.3,
            noise=0.02,
            seed=derive_seed(self.seed, "ingest-docs"),
        )
        # Equal lengths put the auto-seals at the same trace lines for
        # every seed; with free lengths the seal count, and with it
        # nvm_write_bytes_per_op, moved by 15% between seeds.
        docs = iter(exact_length_files(spec))
        rng = random.Random(derive_seed(self.seed, "ingest-trace"))
        self.texts: dict[str, str] = {}
        trace: list[tuple[str, str]] = []
        live: list[str] = []

        def appends(count: int) -> None:
            for _ in range(count):
                name, text = next(docs)
                self.texts[name] = text
                live.append(name)
                trace.append(("append", name))

        def checkpoint() -> None:
            trace.append(("seal", ""))
            trace.append(("checkpoint", ""))
            self.checkpoints.append(list(live))

        self.checkpoints: list[list[str]] = []
        appends(BULK_DOCS)
        checkpoint()
        for round_no in range(1, ROUNDS + 1):
            appends(DELTA_DOCS)
            for _ in range(DELETE_DOCS):
                trace.append(("delete", live.pop(rng.randrange(len(live)))))
            checkpoint()
            if round_no % COMPACT_EVERY == 0:
                trace.append(("compact", ""))
        self.trace = trace
        self._warm_up()

    def _warm_up(self) -> None:
        engine = SegmentedEngine(self.config)
        for op, name in self.trace[:DELTA_DOCS]:
            engine.append(name, self.texts[name])
        engine.run_tasks(CHECKPOINT_TASKS)
        self.plans.clear()

    def prepare_oracle(self) -> None:
        # Decompress-and-count over the live documents the generator holds.
        self.tokens = {name: tokenize(text) for name, text in self.texts.items()}
        self.expected = [self._oracle(live) for live in self.checkpoints]

    def _oracle(self, live: list[str]) -> str:
        counts: dict[str, int] = {}
        postings: dict[str, list[str]] = {}
        for name in live:
            words = self.tokens[name]
            for word in words:
                counts[word] = counts.get(word, 0) + 1
            for word in sorted(set(words)):
                postings.setdefault(word, []).append(name)
        return canonical_json({"word_count": counts, "inverted_index": postings})

    def input_size(self) -> dict:
        n_append = sum(1 for op, _ in self.trace if op == "append")
        return {
            "trace_ops": len(self.trace),
            "appends": n_append,
            "deletes": sum(1 for op, _ in self.trace if op == "delete"),
            "checkpoints": len(self.checkpoints),
            "compactions": sum(1 for op, _ in self.trace if op == "compact"),
            "live_docs": len(self.checkpoints[-1]),
            "tokens": sum(len(self.tokens[name]) for name in self.texts),
            "vocab": len({w for words in self.tokens.values() for w in words}),
            "segments_at_end": self.final_segments,
        }

    def start_cycle(self) -> None:
        self.engine = SegmentedEngine(self.config)
        self.plans.clear()

    def cycle(self) -> list[Callable[[], OpRecord]]:
        ops = []
        checkpoint = 0
        for op, name in self.trace:
            ops.append(self._op(op, name, checkpoint))
            if op == "checkpoint":
                checkpoint += 1
        return ops

    def _op(self, kind: str, name: str, checkpoint: int) -> Callable[[], OpRecord]:
        def op() -> OpRecord:
            engine = self.engine
            before = engine.memory.stats.snapshot()
            sim_before = engine.clock.ns
            text = self.texts.get(name, "")
            start = time.perf_counter()
            if kind == "append":
                out = engine.append(name, text)
            elif kind == "delete":
                out = engine.delete(name)
            elif kind == "seal":
                out = engine.seal()
            elif kind == "compact":
                out = engine.compact()
            else:
                out = engine.run_tasks(CHECKPOINT_TASKS)
            wall = time.perf_counter() - start
            record = OpRecord(
                kind="query" if kind == "checkpoint" else kind,
                wall_s=wall,
                sim_ns=engine.clock.ns - sim_before,
                stats=engine.memory.stats.delta(before),
                **_plan_fields(self.plans),
            )
            record.pool_peak = engine.pool.allocator.peak_bytes
            if kind in ("append", "seal", "compact") and out is not None:
                record.tokens = sum(len(f) for f in out.corpus.expand_files())
            self.plans.clear()
            if kind == "checkpoint":
                record.segments = out.n_segments
                self.final_segments = out.n_segments
                if canonical_json(out.rendered) != self.expected[checkpoint]:
                    record.failed = f"checkpoint {checkpoint}: differs from the oracle"
            return record

        return op


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrioManyFile, MixedFewFile, IngestStream)
}

