"""One question, one answer: ``run(t)`` and ``run_many([t])`` must agree.

A fused plan of one task follows the same traversal rule as the solo
run (Section VI-E: per-file counts top-down on few-file corpora,
bottom-up on many-file ones), so it must charge the same simulated
time, phase by phase, and produce the same canonical output.  The grid
covers every paper task on datasets A-D (small scale), under phase and
operation persistence, with media protection off and on.

The cells marked ``xfail(strict=True)`` still diverge: fused
sequence_count takes each rule's weight from the shared weight-and-words
record read where the solo run reads the weight field alone, and fused
ranked_inverted_index commits two operations per file (its visitor's and
the sweep's) under operation persistence.  A fix flips them to passing,
which the strict marker reports.
"""

from __future__ import annotations

import pytest

from repro.analytics import ALL_TASKS
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets.profiles import corpus_for
from repro.harness.crashsweep import canonical_result

SCALE = 0.05
DATASETS = ("A", "B", "C", "D")
PERSISTENCE = ("phase", "operation")

#: Cells that diverge today: (task, dataset, persistence), any media mode.
RESIDUALS = {
    *(("sequence_count", d, p) for d in DATASETS for p in PERSISTENCE),
    ("ranked_inverted_index", "B", "operation"),
    ("ranked_inverted_index", "C", "operation"),
}


def _cells():
    for task in ALL_TASKS:
        for dataset in DATASETS:
            for persistence in PERSISTENCE:
                for media in (False, True):
                    marks = ()
                    if (task.name, dataset, persistence) in RESIDUALS:
                        marks = pytest.mark.xfail(
                            strict=True, reason="ROADMAP item 1 residual"
                        )
                    yield pytest.param(
                        task,
                        dataset,
                        persistence,
                        media,
                        id=f"{task.name}-{dataset}-{persistence}"
                        f"-{'media' if media else 'plain'}",
                        marks=marks,
                    )


@pytest.mark.parametrize("task_cls,dataset,persistence,media", list(_cells()))
def test_run_equals_run_many_of_one(task_cls, dataset, persistence, media):
    config = EngineConfig(persistence=persistence, media_protect=media)
    engine = NTadocEngine(corpus_for(dataset, scale=SCALE), config)
    solo = engine.run(task_cls())
    plan = engine.run_many([task_cls()])
    fused = plan.results[0]
    assert canonical_result(fused.result) == canonical_result(solo.result)
    assert plan.total_ns == solo.total_ns
    assert plan.phase_ns == solo.phase_ns
    assert fused.total_ns == solo.total_ns
    assert fused.strategy == solo.strategy
