"""Guard on hand-inlined copies of the LRU charge rule.

The miss/evict/write-back rule lives in ``repro/nvm/cache.py``; hot
paths in ``repro/nvm/memory.py`` and ``repro/kernels/hashops.py`` inline
copies of it for speed, each one an ``OrderedDict.popitem(False)``
eviction that must stay in lockstep with the others.  This test counts
those sites so the number can only go down: a change that needs another
copy has to remove one first (or raise the ceiling here, in review).
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Inline eviction sites allowed outside ``nvm/cache.py``.
CEILING = 14


def _sites() -> dict[str, int]:
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "repro/nvm/cache.py":
            continue
        n = path.read_text(encoding="utf-8").count("popitem(False)")
        if n:
            counts[rel] = n
    return counts


def test_inline_eviction_sites_within_ceiling():
    sites = _sites()
    assert sum(sites.values()) <= CEILING, sites


def test_sites_are_where_the_charge_rule_is_inlined():
    assert set(_sites()) <= {"repro/nvm/memory.py", "repro/kernels/hashops.py"}
