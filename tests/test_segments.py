"""Unit tests for the segment layer: pool v4 extents, SegmentedCorpus,
the manifest codec, and trace parsing."""

import pytest

from repro.core.engine import EngineConfig, NTadocEngine
from repro.errors import PoolLayoutError, ReproError
from repro.ingest import SegmentedCorpus, SegmentedEngine
from repro.ingest.trace import TraceOp, format_trace, parse_trace, synthetic_trace
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.nvm.pool import NvmPool


def _mem(size=1 << 20, track_wear=False):
    return SimulatedMemory(
        DeviceProfile.nvm(), size, SimulatedClock(), track_wear=track_wear
    )


class TestSegmentedPool:
    def test_create_get_retire_roundtrip(self):
        pool = NvmPool(_mem(), segmented=True)
        off = pool.create_segment("seg0", 4096)
        assert pool.has_segment("seg0")
        assert pool.get_segment("seg0") == (off, 4096)
        assert pool.segment_names() == ["seg0"]
        pool.retire_segment("seg0")
        assert not pool.has_segment("seg0")
        assert pool.segment_names() == []

    def test_segment_extents_are_line_aligned_and_disjoint(self):
        pool = NvmPool(_mem(), segmented=True)
        line = pool.memory.profile.line_size
        extents = []
        for i in range(4):
            off = pool.create_segment(f"s{i}", 1000 + i * 64)
            assert off % line == 0
            extents.append((off, 1000 + i * 64))
        spans = sorted((off, off + size) for off, size in extents)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_duplicate_segment_name_rejected(self):
        pool = NvmPool(_mem(), segmented=True)
        pool.create_segment("seg0", 1024)
        with pytest.raises(PoolLayoutError):
            pool.create_segment("seg0", 1024)

    def test_non_segmented_pool_rejects_segments(self):
        pool = NvmPool(_mem())
        with pytest.raises(PoolLayoutError):
            pool.create_segment("seg0", 1024)

    def test_retired_extent_is_reused_and_sanitized(self):
        mem = _mem()
        pool = NvmPool(mem, segmented=True)
        off = pool.create_segment("old", 4096)
        mem.write(off, b"\xab" * 4096)
        mem.flush()
        pool.retire_segment("old")
        off2 = pool.create_segment("new", 4096)
        assert off2 == off  # whole-extent reuse
        assert mem.read(off2, 4096) == bytes(4096)  # recycled media zeroed

    def test_wear_aware_placement_prefers_cold_extent(self):
        mem = _mem(track_wear=True)
        pool = NvmPool(mem, segmented=True)
        hot = pool.create_segment("hot", 4096)
        cold = pool.create_segment("cold", 4096)
        for _ in range(50):  # heat the first extent
            mem.write(hot, b"x" * 256)
            mem.flush()
        pool.retire_segment("hot")
        pool.retire_segment("cold")
        chosen = pool.create_segment("fresh", 4096)
        assert chosen == cold

    def test_v4_directory_survives_reopen(self):
        mem = _mem()
        pool = NvmPool(mem, segmented=True, media_protect=False)
        off = pool.create_segment("seg0", 2048)
        pool.alloc_region("plain", 128)
        pool.flush()
        reopened = NvmPool(mem)
        reopened.load_directory()
        assert reopened.segmented
        assert reopened.get_segment("seg0") == (off, 2048)
        assert reopened.has_region("plain")

    def test_nested_segment_pool_is_isolated(self):
        mem = _mem()
        pool = NvmPool(mem, segmented=True)
        base = pool.create_segment("seg0", 1 << 16)
        nested = pool.segment_pool("seg0")
        r = nested.alloc_region("inner", 256)
        assert base <= r < base + (1 << 16)
        nested.save_directory()
        pool.flush()
        again = pool.segment_pool("seg0")
        again.load_directory()
        assert again.get_region("inner") == (r, 256)


class TestSegmentedCorpus:
    def _corpus(self, threshold=8):
        return SegmentedCorpus(seal_threshold_tokens=threshold)

    def test_append_seal_shares_dictionary(self):
        c = self._corpus()
        c.append("a", "red green blue")
        s1 = c.seal()
        c.append("b", "green blue yellow")
        s2 = c.seal()
        # Earlier segment's vocab is a prefix of the later one's.
        assert s2.corpus.vocab[: len(s1.corpus.vocab)] == s1.corpus.vocab
        green = s1.corpus.vocab.index("green")
        assert s2.corpus.vocab[green] == "green"

    def test_duplicate_live_name_rejected(self):
        c = self._corpus()
        c.append("a", "one")
        with pytest.raises(ReproError):
            c.append("a", "two")
        c.seal()
        with pytest.raises(ReproError):
            c.append("a", "three")

    def test_name_reusable_after_delete(self):
        c = self._corpus()
        c.append("a", "one two")
        c.seal()
        c.delete("a")
        c.append("a", "three four")  # tombstoned name is free again
        assert c.live_doc_names() == ["a"]

    def test_should_seal_threshold(self):
        c = self._corpus(threshold=4)
        c.append("a", "one two")
        assert not c.should_seal
        c.append("b", "three four")
        assert c.should_seal

    def test_delete_from_buffer_removes_outright(self):
        c = self._corpus()
        c.append("a", "one two three")
        kind, _ = c.delete("a")
        assert kind == "buffer"
        assert c.buffered_tokens == 0
        assert c.seal() is None

    def test_delete_from_segment_plants_tombstone(self):
        c = self._corpus()
        c.append("a", "one")
        c.append("b", "two")
        c.seal()
        kind, seg_index = c.delete("a")
        assert (kind, seg_index) == ("segment", 0)
        assert c.segments[0].tombstones == {0}
        assert c.live_doc_names() == ["b"]
        with pytest.raises(ReproError):
            c.delete("a")  # already dead

    def test_compact_preserves_global_order(self):
        c = self._corpus()
        for i in range(6):
            c.append(f"d{i}", f"word{i} common text")
            if i % 2 == 1:
                c.seal()
        c.delete("d2")
        before = c.live_doc_names()
        retired, merged = c.compact(upto=2)
        assert [s.name for s in retired] == ["seg000000", "seg000001"]
        assert merged.corpus.file_names == ["d0", "d1", "d3"]
        assert c.live_doc_names() == before

    def test_compact_all_tombstoned_vanishes(self):
        c = self._corpus()
        c.append("a", "one")
        c.seal()
        c.append("b", "two")
        c.seal()
        c.delete("a")
        retired, merged = c.compact(upto=1)
        assert merged is None
        assert len(retired) == 1
        assert c.live_doc_names() == ["b"]

    def test_compact_bad_range(self):
        c = self._corpus()
        with pytest.raises(ValueError):
            c.compact()
        c.append("a", "one")
        c.seal()
        with pytest.raises(ValueError):
            c.compact(upto=2)

    def test_recompressed_empty_raises(self):
        c = self._corpus()
        with pytest.raises(ReproError):
            c.recompressed()

    def test_recompressed_matches_live_docs(self):
        c = self._corpus()
        c.append("a", "alpha beta")
        c.append("b", "beta gamma")
        c.seal()
        c.delete("a")
        c.append("c", "gamma delta")
        ref = c.recompressed()
        assert ref.file_names == ["b", "c"]
        assert ref.expand_text() == ["beta gamma", "gamma delta"]

    def test_from_segments_roundtrip(self):
        c = self._corpus()
        for i in range(4):
            c.append(f"d{i}", f"shared tokens w{i}")
            c.seal()
        c.delete("d1")
        rebuilt = SegmentedCorpus.from_segments(list(c.segments))
        assert rebuilt.live_doc_names() == c.live_doc_names()
        assert rebuilt.dictionary.words() == c.dictionary.words()
        rebuilt.append("d9", "shared tokens more")
        seg = rebuilt.seal()
        assert seg.name == "seg000004"  # id continues past the max seen


class TestManifest:
    def test_manifest_roundtrip_via_engine(self):
        eng = SegmentedEngine(EngineConfig(), seal_threshold_tokens=4)
        eng.append("a", "one two three four")  # auto-seals
        eng.append("b", "five six seven eight")
        eng.seal()
        eng.delete("a")
        entries = eng._read_manifest()
        assert [name for name, _, _ in entries] == ["seg000000", "seg000001"]
        assert entries[0][2] == [0]  # a's tombstone is durable
        assert entries[1][2] == []

    def test_oversized_manifest_rejected(self):
        eng = SegmentedEngine(EngineConfig())
        eng.corpus.append("a", "x " * 4)
        seg = eng.corpus.seal()
        seg.tombstones.update(range(20000))  # blows the 64 KiB region
        eng.corpus.segments = [seg]
        with pytest.raises(ReproError):
            eng._manifest_blob()


class TestSegmentQueries:
    def _plans(self, monkeypatch):
        """Record every per-segment fused plan a query runs."""
        plans = []
        original = NTadocEngine.run_many_on

        def spy(engine, tasks, state):
            plan = original(engine, tasks, state)
            plans.append(plan)
            return plan

        monkeypatch.setattr(NTadocEngine, "run_many_on", spy)
        return plans

    def _engine(self):
        eng = SegmentedEngine(EngineConfig(), seal_threshold_tokens=8)
        for i in range(6):
            eng.append(f"d{i}", f"alpha beta gamma delta {i} epsilon zeta eta")
        return eng

    def test_second_query_reports_no_pool_build(self, monkeypatch):
        eng = self._engine()
        plans = self._plans(monkeypatch)
        eng.run_tasks(["word_count", "inverted_index"])
        first = len(plans)
        assert first >= 2
        eng.run_tasks(["word_count", "inverted_index"])
        assert len(plans) == 2 * first
        # Segment DAGs are built at seal time; queries only reuse them.
        assert [p.stats.pool_builds for p in plans] == [0] * len(plans)

    def test_segment_plans_stay_bottomup_under_auto(self, monkeypatch):
        eng = self._engine()
        plans = self._plans(monkeypatch)
        eng.run_tasks(["inverted_index"])
        assert plans
        for plan in plans:
            assert plan.results[0].strategy == "bottomup"
            assert plan.stats.dag_passes["bottomup"] == 1


class TestTrace:
    def test_parse_format_roundtrip(self):
        ops = synthetic_trace(n_docs=5, doc_tokens=4, rounds=2, seed=11)
        assert parse_trace(format_trace(ops)) == ops

    def test_parse_skips_comments_and_blanks(self):
        ops = parse_trace("# hi\n\nappend a x y\nseal\ncheckpoint\n")
        assert ops == [
            TraceOp("append", "a", "x y"),
            TraceOp("seal"),
            TraceOp("checkpoint"),
        ]

    def test_parse_rejects_bad_ops(self):
        with pytest.raises(ReproError):
            parse_trace("frobnicate a")
        with pytest.raises(ReproError):
            parse_trace("append lonely")
        with pytest.raises(ReproError):
            parse_trace("delete")
        with pytest.raises(ReproError):
            parse_trace("seal extra")
