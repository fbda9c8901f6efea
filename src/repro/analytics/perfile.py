"""Shared per-file word counting used by term vector and inverted index.

Both traversal strategies of Section VI-E are implemented:

* **bottom-up**: pre-compute every rule's word list once, then each file
  merges only the lists its root segment references (cost independent of
  the file count);
* **top-down**: for each file, a full-DAG topological sweep propagates
  segment-seeded weights (the original TADOC behaviour whose cost is
  O(files x |DAG|)).

Per-file counts are cached on the context, keyed by the strategy that
produced them, so a fused plan (or several tasks sharing one context)
charges the device traffic once no matter how many consumers read the
counts.
"""

from __future__ import annotations

from repro.analytics.base import CompressedTaskContext, UncompressedTaskContext
from repro.core.grammar import is_word
from repro.core.traversal import (
    full_sweep_weights_for_segment,
    merge_segment_counts,
)
from repro.kernels.dagops import accumulate_rule_words


def per_file_word_counts(
    ctx: CompressedTaskContext, strategy: str | None = None
) -> list[dict[int, int]]:
    """Word counts per file on the compressed representation (cached).

    Args:
        ctx: The shared task context.
        strategy: ``"topdown"`` or ``"bottomup"``; defaults to the
            context's resolved strategy.  Counts computed under one
            strategy are cached and reused by every later consumer.
    """
    strategy = strategy or ctx.strategy
    cached = ctx._file_counts.get(strategy)
    if cached is not None:
        return cached
    counts: list[dict[int, int]] = []
    for segment in ctx.root_segments():
        file_counts = segment_word_counts(ctx, segment, strategy)
        ctx.ledger.charge("dram", "file_counts", len(file_counts) * 16)
        counts.append(file_counts)
        ctx.op_commit()
    for file_counts in counts:
        ctx.ledger.release("dram", "file_counts", len(file_counts) * 16)
    ctx._file_counts[strategy] = counts
    return counts


def segment_word_counts(
    ctx: CompressedTaskContext, segment: list[int], strategy: str
) -> dict[int, int]:
    """Word counts for one root-body file segment under ``strategy``."""
    if strategy == "bottomup":
        return merge_segment_counts(
            ctx.pruned, segment, ctx.wordlists(), ctx.clock
        )
    weights = full_sweep_weights_for_segment(
        ctx.pruned, segment, ctx.topo_order
    )
    file_counts: dict[int, int] = {}
    for symbol in segment:
        ctx.clock.cpu(1)
        if is_word(symbol):
            file_counts[symbol] = file_counts.get(symbol, 0) + 1
    kern = ctx.pruned.sweep_kernels()
    if kern is not None:
        accumulate_rule_words(kern, ctx.pruned.meta_offset, weights, file_counts)
    else:
        for rule, weight in weights.items():
            for word, freq in ctx.pruned.words(rule):
                file_counts[word] = file_counts.get(word, 0) + weight * freq
                ctx.clock.cpu(1)
    return file_counts


def per_file_word_counts_scan(
    ctx: UncompressedTaskContext,
) -> list[dict[int, int]]:
    """Word counts per file for the uncompressed baseline scan."""
    counts: list[dict[int, int]] = []
    for file_index in range(ctx.n_files):
        file_counts: dict[int, int] = {}
        for chunk in ctx.read_file(file_index):
            for token in chunk:
                file_counts[token] = file_counts.get(token, 0) + 1
                ctx.clock.cpu(4)
        ctx.ledger.charge("dram", "file_counts", len(file_counts) * 16)
        counts.append(file_counts)
        ctx.op_commit()
    for file_counts in counts:
        ctx.ledger.release("dram", "file_counts", len(file_counts) * 16)
    return counts
