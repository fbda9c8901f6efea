"""Media-protected runs on the bulk kernels, held against the scalar paths.

With ``media_protect`` the kernels verify seals as they charge instead of
standing down (``SimulatedMemory.kernel_ready`` no longer looks at the
integrity mirror).  Every case compares kernels ``off`` (the scalar
reference) with the ``python`` and -- when importable -- ``numpy``
backends, and requires ``==``:

* datasets A-D, solo and fused, under phase and operation persistence:
  clock bits, memory stats, wear, the seal mirror, the CRC work done,
  the pool image and the outputs;
* a byte poked into a clean, sealed line that a kernel scan or probe
  reads: the same ``MediaError`` (line, offset, kind) with the same
  clock and stats, and the same graceful degradation under
  ``run_resilient``;
* a poked line of the second child of a grouped build: the kernel call
  stops where the per-child scalar loop stops;
* a cache small enough to force dirty evictions inside the kernels: the
  seal mirror (resealed at every eviction) stays ``==``.
"""

from __future__ import annotations

import gc
import zlib
from types import SimpleNamespace

import pytest

from repro.analytics import perfile
from repro.analytics.inverted_index import InvertedIndex
from repro.analytics.term_vector import TermVector
from repro.analytics.word_count import WordCount
from repro.core import traversal
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets.profiles import corpus_for, dataset_files
from repro.errors import MediaError
from repro.harness.crashsweep import canonical_result
from repro.ingest.engine import SegmentedEngine
from repro.kernels import hashops, numpy_or_none
from repro.nvm import memory as memory_mod
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.nvm.persist import PhasePersistence
from repro.nvm.pool import NvmPool
from repro.nvm.scrub import MediaGuard
from repro.pstruct.phashtable import PHashTable

SCALE = 0.05
TASKS = (WordCount, InvertedIndex, TermVector)
LINE = DeviceProfile.nvm().line_size


def _backends() -> tuple[str, ...]:
    """Kernel-backed modes held against "off" ("numpy" when importable)."""
    return ("python", "numpy") if numpy_or_none() is not None else ("python",)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the kernels called (probe, scan and both DAG sweeps)."""
    calls: list[str] = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(hashops, "probe_batch")
    spy(hashops, "scan_chunks")
    spy(traversal, "sweep_subrule_weights")
    spy(perfile, "accumulate_rule_words")
    return calls


@pytest.fixture
def crc_calls(monkeypatch):
    """One-element list counting the CRCs the memory computes (seal
    verifications plus program-time reseals)."""
    count = [0]

    def crc32(data, value=0):
        count[0] += 1
        return zlib.crc32(data, value)

    monkeypatch.setattr(memory_mod, "zlib", SimpleNamespace(crc32=crc32))
    return count


def _mem_state(mem: SimulatedMemory) -> tuple:
    """Clock bits, stats, wear, seal mirror and image (flight-recorder
    window masked: its event slots name the kernel backend by design)."""
    image = bytes(mem._buf)
    rec = mem._flightrec
    if rec is not None:
        lo, hi = rec.window
        image = image[:lo] + bytes(hi - lo) + image[hi:]
    seals = mem._integrity_seals
    return (
        mem.clock.ns.hex(),
        mem.stats,
        mem.wear,
        None if seals is None else dict(seals),
        mem._last_media_line,
        image,
    )


def _engine_runs(corpus, mode: str, fused: bool, persistence: str) -> list:
    """Outputs plus pool state of each run of :data:`TASKS`."""
    engine = NTadocEngine(
        corpus,
        EngineConfig(kernels=mode, persistence=persistence, media_protect=True),
    )
    if fused:
        plans = [engine.run_many_resilient([cls() for cls in TASKS])]
    else:
        plans = []
        for cls in TASKS:
            run = engine.run_resilient(cls())
            plans.append(SimpleNamespace(results=[run], total_ns=run.total_ns))
    return [
        (
            plan.total_ns.hex(),
            [canonical_result(run.result) for run in plan.results],
            _mem_state(engine.last_state.pool_mem),
        )
        for plan in plans
    ]


@pytest.mark.parametrize("persistence", ["phase", "operation"])
@pytest.mark.parametrize("fused", [False, True], ids=["solo", "fused"])
@pytest.mark.parametrize("dataset", ["A", "B", "C", "D"])
def test_media_protected_runs_identical(
    dataset, fused, persistence, kernel_calls, crc_calls
):
    corpus = corpus_for(dataset, scale=SCALE)
    reference = _engine_runs(corpus, "off", fused, persistence)
    reference_crcs = crc_calls[0]
    assert kernel_calls == []
    assert reference_crcs > 0
    for mode in _backends():
        crc_calls[0] = 0
        assert _engine_runs(corpus, mode, fused, persistence) == reference, mode
        # Same reads verified, same lines resealed.
        assert crc_calls[0] == reference_crcs, mode
    assert kernel_calls


# -- damage under a kernel read ---------------------------------------------


def _sealed_table(mode: str, cache_bytes: int = 1 << 20):
    """A media-protected pool holding one flushed (sealed) hash table."""
    mem = SimulatedMemory(
        DeviceProfile.nvm(),
        1 << 18,
        SimulatedClock(),
        cache_bytes=cache_bytes,
        name="pool",
        kernels=mode,
        track_wear=True,
    )
    pool = NvmPool(mem, media_protect=True)
    MediaGuard(pool)
    size = 1 << 15
    base = pool.alloc_region("tables", size, align=LINE)
    table = PHashTable.create(PoolAllocator(mem, base=base, capacity=size), 40)
    table.add_many((key * 7919, key + 1) for key in range(40))
    pool.flush()
    return mem, pool, table


def _slot_of(table: PHashTable, key: int) -> int:
    slot, found = table._locate(key)
    assert found
    return slot


#: Where to damage a flushed table: (name, byte offset of the poke).
_SITES = {
    "status": lambda t, slot: t._status_off(slot),
    "key": lambda t, slot: t._key_off(slot),
    "value": lambda t, slot: t._value_off(slot),
}

#: Kernel operations that read the damaged table.
_OPS = {
    "get_many": lambda t, keys: t.get_many(keys),
    "add_many": lambda t, keys: t.add_many((k, 5) for k in keys),
    "insert_many": lambda t, keys: t.insert_many((k, 9) for k in keys),
    "items": lambda t, keys: t.to_dict(),
    # Scan of the damaged table, probed into a fresh one.
    "merge_from": lambda t, keys: PHashTable.create(t._allocator, 64).merge_from(t),
}


def _damaged_op(mode: str, site: str, op: str):
    """Poke one byte of a sealed line, run ``op``; return the error and
    the memory state it left."""
    mem, _, table = _sealed_table(mode)
    keys = [key * 7919 for key in range(40)]
    victim = keys[17]
    offset = _SITES[site](table, _slot_of(table, victim))
    mem.poke(offset, bytes([mem.peek(offset, 1)[0] ^ 0x5A]))
    start_stats = mem.stats.snapshot()
    with pytest.raises(MediaError) as info:
        _OPS[op](table, keys)
    exc = info.value
    assert exc.kind == "checksum"
    assert exc.line == offset // LINE
    assert mem.stats != start_stats  # the failing read was charged
    return (exc.line, exc.offset, exc.kind, str(exc), len(table)), _mem_state(mem)


@pytest.mark.parametrize(
    "site,op",
    # insert_many overwrites values without reading them.
    [
        (site, op)
        for site in sorted(_SITES)
        for op in sorted(_OPS)
        if (site, op) != ("value", "insert_many")
    ],
)
def test_poked_table_line_raises_identically(site, op, kernel_calls):
    reference = _damaged_op("off", site, op)
    assert kernel_calls == []
    for mode in _backends():
        assert _damaged_op(mode, site, op) == reference, mode
    assert kernel_calls


def _damaged_build(mode: str):
    """Build a parent from three sealed children, the second one damaged
    in a line only it occupies; return the error and the state left."""
    mem, pool, _ = _sealed_table(mode)
    size = 1 << 15
    alloc = PoolAllocator(
        mem, base=pool.alloc_region("build", size, align=LINE), capacity=size
    )
    children = []
    for low in (100, 200, 300):
        child = PHashTable.create(alloc, 40)  # 64 slots: 1088 data bytes
        child.add_many((low + key, key + 1) for key in range(30))
        children.append(child)
    pool.flush()
    # Slot 32's key sits 320 bytes into the child's data: its line holds
    # nothing of the first child.
    offset = children[1]._key_off(32)
    assert offset // LINE > (children[0]._value_off(63) + 7) // LINE
    mem.poke(offset, bytes([mem.peek(offset, 1)[0] ^ 0x5A]))
    parent = PHashTable.create(alloc, 100)
    with pytest.raises(MediaError) as info:
        parent.build([(7, 1), (8, 2)], [(child, 2) for child in children])
    exc = info.value
    assert exc.line == offset // LINE
    state = _mem_state(mem)
    return (exc.line, exc.offset, exc.kind, str(exc), len(parent)), state, parent.to_dict()


def test_poked_second_child_of_a_build_raises_identically(kernel_calls):
    reference = _damaged_build("off")
    assert kernel_calls == []
    # The words and the first child landed before the damaged scan.
    assert len(reference[2]) == 2 + 30
    for mode in _backends():
        assert _damaged_build(mode) == reference, mode
    assert "probe_batch" in kernel_calls


def _poke_meta_once(monkeypatch):
    """Damage the pruned DAG's metadata region right after the first
    completed phase (its lines are then clean and sealed), once.  The
    damaged record sits mid-region, so the top-down sweep is the first
    read of its line."""
    original = PhasePersistence.complete_phase
    done = []

    def complete_phase(self, name):
        original(self, name)
        if not done and self.pool.has_region("meta"):
            done.append(name)
            offset, size = self.pool.get_region("meta")
            offset += size // 2
            mem = self.pool.memory
            mem.poke(offset, bytes([mem.peek(offset, 1)[0] ^ 0xFF]))

    monkeypatch.setattr(PhasePersistence, "complete_phase", complete_phase)
    return done


def _resilient_outcome(mode: str, monkeypatch, fused: bool):
    done = _poke_meta_once(monkeypatch)
    engine = NTadocEngine(
        corpus_for("A", scale=SCALE),
        EngineConfig(kernels=mode, media_protect=True),
    )
    if fused:
        plan = engine.run_many_resilient([cls() for cls in TASKS])
        outcome = (
            [
                (run.total_ns.hex(), canonical_result(run.result))
                for run in plan.results
            ],
            plan.failures,
        )
    else:
        out = engine.run_resilient(InvertedIndex())
        outcome = (
            out
            if out.failed
            else (out.total_ns.hex(), out.phase_ns, canonical_result(out.result))
        )
    assert done, "the metadata region was never damaged"
    return outcome, _mem_state(engine.last_state.pool_mem)


@pytest.mark.parametrize("fused", [False, True], ids=["solo", "fused"])
def test_resilient_run_degrades_identically(fused, monkeypatch, kernel_calls):
    reference = _resilient_outcome("off", monkeypatch, fused)
    assert kernel_calls == []
    if not fused:
        # The damage was detected and recovered from: a clean run's answer.
        clean = NTadocEngine(
            corpus_for("A", scale=SCALE), EngineConfig(kernels="off", media_protect=True)
        )
        assert reference[0][2] == canonical_result(clean.run(InvertedIndex()).result)
    for mode in _backends():
        assert _resilient_outcome(mode, monkeypatch, fused) == reference, mode
    assert "sweep_subrule_weights" in kernel_calls


def test_poked_meta_line_raises_from_the_sweep_kernel(monkeypatch):
    """The metadata damage above is caught by a kernel read, not by a
    scalar read the kernels left in place."""
    _poke_meta_once(monkeypatch)
    engine = NTadocEngine(
        corpus_for("A", scale=SCALE),
        EngineConfig(kernels="python", media_protect=True),
    )
    with pytest.raises(MediaError) as info:
        engine.run(InvertedIndex())
    assert any(
        entry.name == "sweep_subrule_weights" for entry in info.traceback
    )


# -- dirty evictions inside the kernels ---------------------------------------


def _evicting_workload(mode: str):
    """Probe batches through a 4-line cache over sealed tables: nearly
    every miss evicts a dirty line, which reseals it."""
    mem, pool, table = _sealed_table(mode, cache_bytes=4 * LINE)
    writebacks = mem.stats.writebacks
    keys = [key * 7919 for key in range(80)]
    table.add_many((k, 3) for k in keys[:30])
    out = table.get_many(keys)
    pool.flush()
    table.add_many((k, 1) for k in keys[10:40])
    scanned = table.to_dict()
    assert mem.stats.writebacks > writebacks
    return out, scanned, _mem_state(mem)


def test_dirty_evictions_reseal_identically(kernel_calls):
    reference = _evicting_workload("off")
    for mode in _backends():
        assert _evicting_workload(mode) == reference, mode
    assert "probe_batch" in kernel_calls


# -- kernel-side state on a long-lived memory ---------------------------------


@pytest.mark.parametrize("media_protect", [False, True], ids=["plain", "media"])
def test_kernel_state_does_not_grow_across_queries(media_protect):
    """Table views live on the table objects, not on the memory's
    ``Kernels``: checkpoint queries on one long-lived engine, with
    appends between them so result tables land at new offsets, leave no
    buffer view behind."""
    engine = SegmentedEngine(
        EngineConfig(media_protect=media_protect), seal_threshold_tokens=64
    )
    docs = dataset_files("B", scale=SCALE)
    for name, text in docs[:6]:
        engine.append(name, text)
    tasks = ["word_count", "inverted_index"]
    engine.run_tasks(tasks)
    kern = engine.memory.kernels
    slots = {name: getattr(kern, name) for name in kern.__slots__}
    views = _count_memoryviews()
    for name, text in docs[6:26]:
        engine.append(name, text)
        engine.run_tasks(tasks)
    assert _count_memoryviews() <= views
    assert {name: getattr(kern, name) for name in kern.__slots__} == slots


def _count_memoryviews() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, memoryview))
