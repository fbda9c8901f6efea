"""Engine-level media resilience: graceful degradation, quarantine,
scrub + re-analyze, and fused sibling completion."""

import pytest

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine, TaskFailure
from repro.errors import ReproError
from repro.harness.faultsweep import _ReadTrace
from repro.nvm.faults import FaultPlan, MediaFault
from repro.obs.tracer import Tracer
from repro.sequitur import compress_files


@pytest.fixture(scope="module")
def corpus():
    phrase = (
        "persistent analytics over compressed text without decompression "
    )
    return compress_files(
        [
            ("a.txt", (phrase + "alpha beta ") * 6),
            ("b.txt", ("beta gamma " + phrase) * 6),
        ]
    )


def protected_engine(corpus, **kwargs):
    return NTadocEngine(
        corpus, EngineConfig(media_protect=True, **kwargs)
    )


def reference(engine, name):
    """Fault-free resilient run plus its traced clean-read points."""
    trace = _ReadTrace()
    plan = FaultPlan()
    plan.on_read = trace
    ref = engine.run_resilient(task_by_name(name), fault_plan=plan)
    assert not ref.failed
    return ref, trace


def fault_at(trace, index=0, kind="bitflip"):
    ordinal, offset, _span = trace.reads[index]
    return MediaFault(kind, offset, b"\xff", arm_read=ordinal - 1)


class TestRunResilient:
    def test_recovers_bit_identical_output(self, corpus):
        engine = protected_engine(corpus)
        ref, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run_resilient(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        assert out.result == ref.result
        # Recovery is real, charged work: the clock must have moved.
        assert out.total_ns > ref.total_ns

    def test_recovery_quarantines_damaged_build(self, corpus):
        engine = protected_engine(corpus)
        _, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run_resilient(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        names = engine.last_state.pool.region_names()
        assert any(n.startswith("__quarantined") for n in names)

    def test_unprotected_fault_fails_typed(self, corpus):
        engine = NTadocEngine(corpus, EngineConfig(media_protect=False))
        out = engine.run_resilient(task_by_name("word_count"))
        assert not out.failed  # no faults, no guard needed
        # Now arm a fault with no guard: typed failure, no silent answer.
        protected = protected_engine(corpus)
        _, trace = reference(protected, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run_resilient(task_by_name("word_count"), fault_plan=plan)
        if out.failed:  # fault landed on consumed bytes of this layout
            assert out.kind == "unprotected"
            assert isinstance(out, TaskFailure)

    def test_exhausted_recoveries_fail_typed(self, corpus):
        engine = protected_engine(corpus)
        _, trace = reference(engine, "word_count")
        # Stuck damage on every attempt's read path, zero recoveries
        # allowed: the first MediaError must surface as a TaskFailure.
        plan = FaultPlan(
            media_faults=[fault_at(trace, index=2, kind="stuck_line")]
        )
        out = engine.run_resilient(
            task_by_name("word_count"), fault_plan=plan, max_recoveries=0
        )
        assert out.failed
        assert out.kind in ("checksum", "stuck", "lost")
        assert out.error
        assert out.total_ns > 0

    def test_failure_and_result_expose_failed_flag(self, corpus):
        engine = protected_engine(corpus)
        ref, _ = reference(engine, "word_count")
        assert ref.failed is False
        failure = TaskFailure(task="word_count", error="boom", kind="stuck")
        assert failure.failed is True


class TestScrubAndReanalyze:
    def test_scrub_then_rerun_matches_reference(self, corpus):
        engine = protected_engine(corpus)
        ref, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run_resilient(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        first = engine.scrub_and_quarantine()
        second = engine.scrub_and_quarantine()
        assert second.mismatches == 0
        assert second.quarantined == 0
        again = engine.rerun_resilient(task_by_name("word_count"))
        assert not again.failed
        assert again.result == ref.result

    def test_scrub_without_resilient_run_raises(self, corpus):
        engine = protected_engine(corpus)
        with pytest.raises(ReproError):
            engine.scrub_and_quarantine()
        with pytest.raises(ReproError):
            engine.rerun_resilient(task_by_name("word_count"))

    def test_recovery_emits_obs_spans(self, corpus):
        tracer = Tracer()
        engine = protected_engine(corpus, tracer=tracer)
        _, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run_resilient(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        names = [span.name for span in tracer.spans()]
        assert "recover:media" in names
        assert "scrub:pass" in names
        recover = next(
            s for s in tracer.spans() if s.name == "recover:media"
        )
        assert recover.attrs["quarantined_regions"] >= 1


class TestRunManyResilient:
    TASKS = ("word_count", "inverted_index", "term_vector")

    def test_fault_free_plan_matches_run_many(self, corpus):
        engine = protected_engine(corpus)
        tasks = [task_by_name(n) for n in self.TASKS]
        plan = engine.run_many_resilient(tasks)
        assert not plan.failures
        normal = engine.run_many([task_by_name(n) for n in self.TASKS])
        for a, b in zip(plan.results, normal.results):
            assert a.result == b.result

    def test_siblings_complete_around_damage(self, corpus):
        engine = protected_engine(corpus)
        tasks = [task_by_name(n) for n in self.TASKS]
        trace = _ReadTrace()
        counter = FaultPlan()
        counter.on_read = trace
        ref = engine.run_many_resilient(tasks, fault_plan=counter)
        ref_results = {r.task: r.result for r in ref.results}
        # Aim at a read the fused plan really makes: the middle one of
        # its clean reads (the count moves whenever the planner does).
        fault = fault_at(trace, index=len(trace.reads) // 2)
        fplan = FaultPlan(media_faults=[fault])
        out = engine.run_many_resilient(
            [task_by_name(n) for n in self.TASKS], fault_plan=fplan
        )
        assert fault.applied
        assert len(out.results) + len(out.failures) == len(self.TASKS)
        for run in out.results:
            assert run.result == ref_results[run.task]
        for failure in out.failures:
            assert failure.kind  # typed, never silent

    def test_empty_task_list_rejected(self, corpus):
        engine = protected_engine(corpus)
        with pytest.raises(ValueError):
            engine.run_many_resilient([])
