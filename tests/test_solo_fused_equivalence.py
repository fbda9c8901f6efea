"""One question, one answer: ``run(t)`` charges its pinned values, and
``run_many([t])`` agrees with it bit for bit.

``run(t)`` is a plan of one task: it goes through the same plan body as
``run_many``, and reports its phases straight from the run's timeline
where ``run_many`` reports per-task attributions.  Two grids check it:

* ``test_run_equals_run_many_of_one`` -- every paper task on datasets
  A-D (small scale), under phase and operation persistence, with media
  protection off and on: both entry points charge the same simulated
  time, phase by phase, and produce the same canonical output.
* ``test_run_matches_pin`` -- what ``run(t)`` charges (total and
  per-phase simulated ns, the canonical output's digest, the DRAM/pool
  peaks) for every paper task plus word search and word locate, on
  datasets A-D under eight engine configurations, against
  ``fixtures/run_pins.json``.  The paper tasks' pins are the charges of
  the former dedicated solo path; a change that moves one must re-pin it
  deliberately.

Regenerate the fixture (only for a deliberate re-pin) with::

    PYTHONPATH=src python tests/test_solo_fused_equivalence.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analytics import ALL_TASKS
from repro.analytics.locate import WordLocate
from repro.analytics.search import WordSearch
from repro.core.dag import Dag
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets.profiles import corpus_for
from repro.harness.crashsweep import canonical_result
from repro.harness.runner import build_engine

PINS = Path(__file__).resolve().parent / "fixtures" / "run_pins.json"
SCALE = 0.05
DATASETS = ("A", "B", "C", "D")
PERSISTENCE = ("phase", "operation")

#: Pinned configurations: name -> (system, base config).
CONFIGS = {
    "phase": ("ntadoc", EngineConfig()),
    "operation": ("ntadoc_op", EngineConfig()),
    "none": ("ntadoc_custom", EngineConfig(persistence="none")),
    "ssd": ("ntadoc_ssd", EngineConfig()),
    "topdown": ("ntadoc", EngineConfig(traversal="topdown")),
    "bottomup": ("ntadoc", EngineConfig(traversal="bottomup")),
    "naive": ("naive_nvm", EngineConfig()),
    "tadoc_dram": ("tadoc_dram", EngineConfig()),
}

PINNED_TASKS = (*(cls.name for cls in ALL_TASKS), "word_search", "word_locate")


def _cells():
    for task in ALL_TASKS:
        for dataset in DATASETS:
            for persistence in PERSISTENCE:
                for media in (False, True):
                    yield pytest.param(
                        task,
                        dataset,
                        persistence,
                        media,
                        id=f"{task.name}-{dataset}-{persistence}"
                        f"-{'media' if media else 'plain'}",
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
    assert not solo.fused and fused.fused
    assert solo.shared_ns == solo.exclusive_ns == 0.0


def _task(name: str, corpus):
    if name == "word_search":
        n = len(corpus.vocab)
        return WordSearch([0, n // 2, n - 1])
    if name == "word_locate":
        return WordLocate(1, Dag(corpus).expansion_lengths())
    return next(cls for cls in ALL_TASKS if cls.name == name)()


def _key(task: str, dataset: str, config_name: str) -> str:
    return f"{task}/{dataset}/{config_name}"


def _charges(task: str, dataset: str, config_name: str) -> dict:
    system, base = CONFIGS[config_name]
    engine = build_engine(system, corpus_for(dataset, scale=SCALE), base)
    run = engine.run(_task(task, engine.corpus))
    digest = hashlib.sha256(canonical_result(run.result).encode()).hexdigest()
    return {
        "total_ns": run.total_ns,
        "phase_ns": run.phase_ns,
        "digest": digest[:16],
        "dram_peak": run.dram_peak,
        "pool_peak": run.pool_peak,
    }


PIN_KEYS = [
    (task, dataset, config_name)
    for task in PINNED_TASKS
    for dataset in DATASETS
    for config_name in CONFIGS
]


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize(
    "task,dataset,config_name", PIN_KEYS, ids=[_key(*key) for key in PIN_KEYS]
)
def test_run_matches_pin(pins, task, dataset, config_name):
    assert _charges(task, dataset, config_name) == pins[
        _key(task, dataset, config_name)
    ]


def test_pins_cover_exactly_the_grid(pins):
    assert set(pins) == {_key(*key) for key in PIN_KEYS}


if __name__ == "__main__":
    PINS.write_text(
        json.dumps(
            {_key(*key): _charges(*key) for key in PIN_KEYS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
