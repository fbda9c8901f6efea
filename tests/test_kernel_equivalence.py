"""Differential equivalence suite for the bulk-kernel subsystem.

The kernels (``repro.kernels``) promise the charge-from-plan /
execute-vectorized contract: simulated time, per-device stats, wear,
and the device buffer image are **bit-identical** (``==``, no
tolerances) whether a workload runs through the scalar reference paths
(``kernels="off"``) or the bulk kernels (``"auto"``/``"python"``).
This suite holds that promise three ways:

* property-based op programs over the persistent containers, replayed
  against one memory per mode and compared snapshot-for-snapshot,
* an engine-level fused trio run compared across every mode,
* the per-file top-down sweep kernel on datasets A, C and D, solo and
  fused, with pool images, stats and outputs compared across backends,
  plus the stand-down cases (armed fault plan, media protection),
* the crash-sweep harness run with kernels on and off, whose reports
  (recovery costs included) must render identically.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics import perfile
from repro.analytics.inverted_index import InvertedIndex
from repro.analytics.ranked_inverted_index import RankedInvertedIndex
from repro.analytics.term_vector import TermVector
from repro.analytics.word_count import WordCount
from repro.core import traversal
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets.profiles import corpus_for
from repro.errors import CapacityError
from repro.harness.crashsweep import (
    SweepConfig,
    canonical_result,
    render_report,
    run_sweep,
)
from repro.kernels import make, numpy_or_none
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan
from repro.nvm.memory import SimulatedMemory
from repro.pstruct.phashtable import PHashTable
from repro.pstruct.pqueue import PQueue
from repro.pstruct.pvector import PVector
from repro.sequitur.compressor import compress_files

#: Kernel-backed modes checked against the scalar "off" reference.
MODES = ("auto", "python")


def snapshot(mem: SimulatedMemory) -> tuple:
    """Every observable the contract pins, as one comparable tuple."""
    s = mem.stats
    return (
        mem.clock.ns,
        bytes(mem._buf),
        mem.wear,
        mem._last_media_line,
        s.device_ns,
        s.cache_hits,
        s.cache_misses,
        s.writebacks,
        s.lines_read,
        s.lines_written,
        s.read_ops,
        s.write_ops,
        s.bytes_read,
        s.bytes_written,
    )


# -- hash-table op programs ------------------------------------------------

_KEYS = st.integers(min_value=0, max_value=47)
_VALS = st.integers(min_value=-40, max_value=2000)
_PAIRS = st.lists(st.tuples(_KEYS, _VALS), max_size=40)

_TABLE_OP = st.one_of(
    st.tuples(st.just("add_many"), _PAIRS),
    st.tuples(st.just("insert_many"), _PAIRS),
    st.tuples(st.just("get_many"), st.lists(_KEYS, max_size=30)),
    st.tuples(st.just("merge"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("accumulate"), st.just(None)),
    st.tuples(st.just("items"), st.just(None)),
    st.tuples(st.just("delete"), _KEYS),
)


def _run_table_program(mode: str, cache_bytes: int, ops) -> tuple:
    mem = SimulatedMemory(
        DeviceProfile.nvm(), 1 << 20, cache_bytes=cache_bytes, kernels=mode
    )
    alloc = PoolAllocator(mem, 0, 1 << 19)
    source = PHashTable.create(alloc, 64)
    target = PHashTable.create(alloc, 48)
    source.add_many((k, k % 7 + 1) for k in range(40))
    observed: list = []
    for name, arg in ops:
        try:
            if name == "add_many":
                target.add_many(arg)
            elif name == "insert_many":
                target.insert_many(arg)
            elif name == "get_many":
                observed.append(target.get_many(arg, default=-1))
            elif name == "merge":
                target.merge_from(source, scale=arg)
            elif name == "accumulate":
                counts: dict = {}
                target.accumulate_into(counts, mem.clock)
                observed.append(counts)
            elif name == "items":
                observed.append(list(target.items()))
            elif name == "delete":
                observed.append(target.delete(arg))
        except CapacityError as exc:
            # The kernel raises mid-batch with the scalar path's partial
            # state; message and every later observation must agree too.
            observed.append(("capacity", str(exc)))
    observed.append(target.to_dict())
    observed.append((len(target), target._tombstones))
    return snapshot(mem), observed


class TestHashTableDifferential:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(_TABLE_OP, max_size=12),
        cache_bytes=st.sampled_from([1 << 10, 1 << 13, 1 << 20]),
    )
    def test_programs_replay_identically(self, ops, cache_bytes):
        reference = _run_table_program("off", cache_bytes, ops)
        for mode in MODES:
            assert _run_table_program(mode, cache_bytes, ops) == reference

    def test_capacity_error_partial_state_matches(self):
        pairs = [(k, 1) for k in range(200)]

        def run(mode):
            mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 20, kernels=mode)
            alloc = PoolAllocator(mem, 0, 1 << 19)
            table = PHashTable.create(alloc, 8)
            with pytest.raises(CapacityError) as err:
                table.add_many(pairs)
            return snapshot(mem), str(err.value), table.to_dict(), len(table)

        reference = run("off")
        for mode in MODES:
            assert run(mode) == reference


# -- vector / queue bulk ops ----------------------------------------------


def _run_container_program(mode: str, values, elem_size: int) -> tuple:
    mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 20, kernels=mode)
    alloc = PoolAllocator(mem, 0, 1 << 19)
    vec = PVector.create(alloc, capacity=512, elem_size=elem_size)
    vec.extend(values)
    queue = PQueue.create(alloc, capacity=256)
    queue.push_many([v % 1000 for v in values[:200]])
    drained = queue.pop_many(150)
    observed = (
        list(vec.read_range(0, len(vec))),
        vec.to_list(),
        list(vec),
        drained,
        queue.pop_many(100),
    )
    return snapshot(mem), observed


class TestContainerDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1), max_size=120
        ),
        elem_size=st.sampled_from([4, 8]),
    )
    def test_vector_and_queue_replay_identically(self, values, elem_size):
        reference = _run_container_program("off", values, elem_size)
        for mode in MODES:
            assert _run_container_program(mode, values, elem_size) == reference


# -- engine level ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    phrase = "omega theta iota kappa " * 9
    files = [(f"doc{i}", phrase + f"word{i % 3} tail{i}") for i in range(8)]
    return compress_files(files)


class TestEngineDifferential:
    def test_fused_trio_identical_across_modes(self, corpus):
        tasks = lambda: [WordCount(), InvertedIndex(), TermVector()]  # noqa: E731
        reference = None
        for mode in ("off", *MODES):
            engine = NTadocEngine(corpus, EngineConfig(kernels=mode))
            run = engine.run_many(tasks())
            key = (run.total_ns, [str(r.result) for r in run.results])
            if reference is None:
                reference = key
            else:
                assert key == reference, mode

    def test_solo_run_identical_across_modes(self, corpus):
        reference = None
        for mode in ("off", *MODES):
            run = NTadocEngine(corpus, EngineConfig(kernels=mode)).run(WordCount())
            key = (run.total_ns, run.result)
            if reference is None:
                reference = key
            else:
                assert key == reference, mode


# -- top-down sweep kernel (repro.kernels.dagops) --------------------------

SWEEP_TASKS = (InvertedIndex, TermVector, RankedInvertedIndex)


def _backends() -> tuple[str, ...]:
    """Kernel-backed modes to hold against "off" ("numpy" when importable)."""
    return ("python", "numpy") if numpy_or_none() is not None else ("python",)


def _pool_snapshot(mem: SimulatedMemory) -> tuple:
    """:func:`snapshot` with the flight-recorder window masked: its event
    slots name the kernel backend by design."""
    clock_ns, image, *rest = snapshot(mem)
    rec = mem._flightrec
    if rec is not None:
        lo, hi = rec.window
        image = image[:lo] + bytes(hi - lo) + image[hi:]
    return (clock_ns, image, *rest)


def _sweep_runs(corpus, mode: str, fused: bool, fault_plan=None, **config) -> list:
    """Outputs plus pool snapshot of each run of the sweep tasks."""
    engine = NTadocEngine(corpus, EngineConfig(kernels=mode, **config))
    if fused:
        plans = [
            engine.run_many_resilient(
                [cls() for cls in SWEEP_TASKS], fault_plan=fault_plan
            )
        ]
    else:
        plans = []
        for cls in SWEEP_TASKS:
            run = engine.run_resilient(cls(), fault_plan=fault_plan)
            plans.append(SimpleNamespace(results=[run], total_ns=run.total_ns))
    return [
        (
            plan.total_ns,
            [canonical_result(run.result) for run in plan.results],
            _pool_snapshot(engine.last_state.pool_mem),
        )
        for plan in plans
    ]


@pytest.fixture
def sweep_calls(monkeypatch):
    """Names of the dagops kernels called, in order."""
    calls: list[str] = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(traversal, "sweep_subrule_weights")
    spy(perfile, "accumulate_rule_words")
    return calls


class TestTopdownSweepKernel:
    @pytest.mark.parametrize("fused", [False, True], ids=["solo", "fused"])
    @pytest.mark.parametrize("dataset", ["A", "C", "D"])
    def test_identical_across_backends(self, dataset, fused, sweep_calls):
        corpus = corpus_for(dataset, scale=0.05)
        reference = _sweep_runs(corpus, "off", fused)
        assert sweep_calls == []
        for mode in _backends():
            assert _sweep_runs(corpus, mode, fused) == reference, mode
        assert set(sweep_calls) == {
            "sweep_subrule_weights",
            "accumulate_rule_words",
        }

    def test_stands_down_under_armed_fault_plan(self, sweep_calls):
        corpus = corpus_for("C", scale=0.05)
        reference = _sweep_runs(corpus, "off", True, fault_plan=FaultPlan())
        got = _sweep_runs(corpus, "python", True, fault_plan=FaultPlan())
        assert got == reference
        assert sweep_calls == []

    def test_stands_down_under_media_protect(self, sweep_calls):
        corpus = corpus_for("C", scale=0.05)
        reference = _sweep_runs(corpus, "off", True, media_protect=True)
        got = _sweep_runs(corpus, "python", True, media_protect=True)
        assert got == reference
        assert sweep_calls == []


# -- crash sweep with kernels ---------------------------------------------


def _sweep_config(kernels: str) -> SweepConfig:
    return SweepConfig(
        engine_write_points=8,
        engine_line_points=4,
        torn_per_flush=2,
        tx_write_points=6,
        tx_torn_points=4,
        integrity_rules=1,
        kernels=kernels,
    )


class TestCrashSweepWithKernels:
    def test_sweep_report_identical_with_and_without_kernels(self):
        with_kernels = run_sweep(_sweep_config("auto"))
        without = run_sweep(_sweep_config("off"))
        assert with_kernels["violations"] == []
        # The config echo differs by construction, and the black-box
        # sample embeds the kernel_backend journal event, which names
        # the backend by design; its counters must still agree.
        # Everything measured (points, recoveries, costs, digests)
        # must match bit-for-bit.
        with_kernels["config"].pop("kernels")
        without["config"].pop("kernels")
        bb_with = with_kernels.pop("blackbox")
        bb_without = without.pop("blackbox")
        assert {k: v for k, v in bb_with.items() if k != "sample"} == {
            k: v for k, v in bb_without.items() if k != "sample"
        }
        assert render_report(with_kernels) == render_report(without)


# -- backend selection -----------------------------------------------------


class TestBackendSelection:
    def test_no_numpy_env_forces_python_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        kern = make(mem, "auto")
        assert kern is not None and kern.np is None

    def test_numpy_mode_raises_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with pytest.raises(RuntimeError):
            make(mem, "numpy")

    def test_off_mode_has_no_kernels(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16, kernels="off")
        assert mem.kernels is None
        assert not mem.kernel_ready
