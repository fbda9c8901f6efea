"""Pruning method with NVM pool management (Section IV-B, Algorithm 1).

Two observations drive the design: rule bodies contain duplicate subrule
references, and their internal order is irrelevant for bag-of-words
analytics.  Pruning therefore rewrites each rule as two frequency lists
-- ``(subrule, freq)`` pairs first, then ``(word, freq)`` pairs -- and
writes them *consecutively* into a DAG pool on NVM, with rule metadata in
a separate fixed-stride table.  Both choices exist to keep DAG traversal
on 256-byte Optane lines cache-friendly.

On-device layout::

    region "dag_info"  : u32 n_rules | u32 n_files | u32 headtail_k
                         | u32 flags | u64 raw_root_offset ...
    region "meta"      : n_rules fixed records (48 B each)::
        u64 entry_offset   -- position of pruned entries in "dag"
        u64 raw_offset     -- position of the ordered body in "raw"
        u32 n_subrules | u32 n_words | u32 raw_len
        u32 in_degree  | u32 out_degree | u32 bound
        u64 weight         -- mutable, updated during traversal
    region "dag"       : per rule, adjacently:
                         n_subrules * (u32 id, u32 freq)
                         n_words    * (u32 id, u32 freq)
    region "raw"       : per rule, the ordered body (u32 symbols),
                         kept for sequence analytics (head/tail walks)
    region "headtail"  : optional HeadTailStore records

The ordered bodies are retained because pruning alone discards sequence
information; the paper keeps sequence tasks correct via the head/tail
preprocessing (Section IV-B last paragraph), which walks ordered bodies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.dag import Dag
from repro.core.grammar import RULE_BASE, SEP_BASE, CompressedCorpus
from repro.nvm.pool import NvmPool
from repro.pstruct import layout
from repro.pstruct.headtail import HeadTailStore

_INFO = struct.Struct("<IIII")
_FLAG_INDEXED = 1
_META = struct.Struct("<QQIIIIIIQ")
META_RECORD_SIZE = _META.size  # 48

_INFO_REGION = "dag_info"
_META_REGION = "meta"
_DAG_REGION = "dag"
_RAW_REGION = "raw"
_HEADTAIL_REGION = "headtail"


@dataclass(frozen=True)
class PrunedRule:
    """Python-side result of pruning one rule (Algorithm 1's output)."""

    subrules: list[tuple[int, int]]  # (rule index, frequency), id-sorted
    words: list[tuple[int, int]]     # (word id, frequency), id-sorted
    raw_length: int                  # symbols in the unpruned body

    @property
    def pruned_length(self) -> int:
        """Number of (id, freq) entries after pruning."""
        return len(self.subrules) + len(self.words)

    @property
    def savings(self) -> float:
        """Fraction of grammar entries removed by pruning."""
        if self.raw_length == 0:
            return 0.0
        return 1.0 - self.pruned_length / self.raw_length


def prune_rule(body: list[int]) -> PrunedRule:
    """Algorithm 1's bucket pass: collapse a body into frequency lists.

    Separators carry no analytics weight and are dropped here (they remain
    available in the ordered body).
    """
    subs: dict[int, int] = {}
    words: dict[int, int] = {}
    sget = subs.get
    wget = words.get
    for symbol in body:
        if symbol >= RULE_BASE:
            key = symbol - RULE_BASE
            subs[key] = sget(key, 0) + 1
        elif symbol < SEP_BASE:
            words[symbol] = wget(symbol, 0) + 1
    return PrunedRule(
        subrules=sorted(subs.items()),
        words=sorted(words.items()),
        raw_length=len(body),
    )


def redundancy_savings(corpus: CompressedCorpus) -> float:
    """Corpus-wide fraction of grammar entries eliminated by pruning.

    The paper reports this eliminates "at most 50.2% of the grammar
    redundancy on NVM".
    """
    raw_total = 0
    pruned_total = 0
    for body in corpus.rules:
        pruned = prune_rule(body)
        raw_total += pruned.raw_length
        pruned_total += pruned.pruned_length
    if raw_total == 0:
        return 0.0
    return 1.0 - pruned_total / raw_total


class PrunedDag:
    """Device-resident pruned DAG: the N-TADOC working representation."""

    def __init__(self, pool: NvmPool) -> None:
        self.pool = pool
        self._mem = pool.memory
        info_off, _ = pool.get_region(_INFO_REGION)
        n_rules, n_files, headtail_k, flags = _INFO.unpack(
            self._mem.read(info_off, _INFO.size)
        )
        self.n_rules = n_rules
        self.n_files = n_files
        self.headtail_k = headtail_k
        self.indexed_layout = bool(flags & _FLAG_INDEXED)
        self._meta_off, _ = pool.get_region(_META_REGION)
        self.headtail: HeadTailStore | None = None
        if headtail_k and pool.has_region(_HEADTAIL_REGION):
            ht_off, _ = pool.get_region(_HEADTAIL_REGION)
            self.headtail = HeadTailStore.attach(
                pool.allocator, ht_off, n_rules, headtail_k
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        pool: NvmPool,
        corpus: CompressedCorpus,
        dag: Dag,
        bounds: list[int] | None = None,
        headtail_k: int = 0,
        heads: list[list[int]] | None = None,
        tails: list[list[int]] | None = None,
        per_rule: bool = False,
        on_rule=None,
    ) -> "PrunedDag":
        """Prune every rule into the pool (Algorithm 1 applied corpus-wide).

        Args:
            pool: Destination pool (usually on the NVM device).
            corpus: The compressed corpus.
            dag: Its DAG view (for in/out degrees).
            bounds: Optional per-rule word-list upper bounds (Algorithm 2
                output) stored into the metadata records.
            headtail_k: Width of head/tail buffers (0 disables them).
            heads: Per-rule head word lists (required when headtail_k > 0).
            tails: Per-rule tail word lists (required when headtail_k > 0).
            per_rule: Use the *naive* layout: each rule's metadata, entries
                and body are separate heap allocations reached through an
                indirection table, instead of adjacent pool streams.  With
                a scattered allocator this models the direct TADOC port
                the paper measures at 13.37x overhead (Section III-B).
            on_rule: Optional callback invoked after each rule is written
                (the engine uses it for operation-level persistence).
        """
        mem = pool.memory
        n_rules = corpus.n_rules
        # The Dag already ran the bucket pass over every body; reuse its
        # frequency maps instead of re-scanning every symbol.
        pruned = [
            PrunedRule(
                subrules=sorted(dag.subrule_freq[rule].items()),
                words=sorted(dag.word_freq[rule].items()),
                raw_length=len(corpus.rules[rule]),
            )
            for rule in range(n_rules)
        ]
        entries_bytes = sum(p.pruned_length for p in pruned) * 8
        raw_bytes = sum(len(body) for body in corpus.rules) * 4

        info_off = pool.alloc_region(_INFO_REGION, _INFO.size)
        if per_rule:
            # Indirection table: rule -> metadata record offset.
            meta_off = pool.alloc_region(_META_REGION, n_rules * 8)
        else:
            meta_off = pool.alloc_region(_META_REGION, n_rules * META_RECORD_SIZE)
            dag_off = pool.alloc_region(_DAG_REGION, max(entries_bytes, 8))
            raw_off = pool.alloc_region(_RAW_REGION, max(raw_bytes, 4))
        mem.write(
            info_off,
            _INFO.pack(
                n_rules, corpus.n_files, headtail_k,
                _FLAG_INDEXED if per_rule else 0,
            ),
        )

        if not per_rule and on_rule is None:
            # Fast path: assemble the three region streams in Python and
            # write each region with a single sequential device access.
            # Only usable without the per-operation persistence callback,
            # which needs device state committed after every rule.
            entry_top = dag_off
            raw_top = raw_off
            entry_blob = bytearray()
            raw_blob = bytearray()
            meta_blob = bytearray()
            for rule in range(n_rules):
                info = pruned[rule]
                body = corpus.rules[rule]
                flat: list[int] = []
                for idx, freq in info.subrules:
                    flat.extend((idx, freq))
                for word, freq in info.words:
                    flat.extend((word, freq))
                entry_blob += struct.pack("<%dI" % len(flat), *flat)
                raw_blob += struct.pack("<%dI" % len(body), *body)
                meta_blob += _META.pack(
                    entry_top,
                    raw_top,
                    len(info.subrules),
                    len(info.words),
                    len(body),
                    dag.in_degree[rule],
                    dag.out_degree[rule],
                    bounds[rule] if bounds is not None else 0,
                    0,  # weight
                )
                entry_top += len(flat) * 4
                raw_top += len(body) * 4
            if entry_blob:
                mem.write_batch(dag_off, entry_blob)
            if raw_blob:
                mem.write_batch(raw_off, raw_blob)
            mem.write_batch(meta_off, meta_blob)
        else:
            # Algorithm 1's pool_top pointers for the two write streams.
            if not per_rule:
                entry_top = dag_off
                raw_top = raw_off
            for rule in range(n_rules):
                info = pruned[rule]
                body = corpus.rules[rule]
                # Write pruned entries: subrules first, then words (adjacent).
                flat = []
                for idx, freq in info.subrules:
                    flat.extend((idx, freq))
                for word, freq in info.words:
                    flat.extend((word, freq))
                if per_rule:
                    entry_top = pool.allocator.alloc(max(len(flat) * 4, 4))
                    raw_top = pool.allocator.alloc(max(len(body) * 4, 4))
                layout.write_u32_array(mem, entry_top, flat)
                # Ordered body for sequence analytics.
                layout.write_u32_array(mem, raw_top, body)
                record = _META.pack(
                    entry_top,
                    raw_top,
                    len(info.subrules),
                    len(info.words),
                    len(body),
                    dag.in_degree[rule],
                    dag.out_degree[rule],
                    bounds[rule] if bounds is not None else 0,
                    0,  # weight
                )
                if per_rule:
                    record_off = pool.allocator.alloc(META_RECORD_SIZE)
                    mem.write(record_off, record)
                    layout.write_u64(mem, meta_off + rule * 8, record_off)
                else:
                    mem.write(meta_off + rule * META_RECORD_SIZE, record)
                    entry_top += len(flat) * 4
                    raw_top += len(body) * 4
                if on_rule is not None:
                    on_rule()

        if headtail_k:
            if heads is None or tails is None:
                raise ValueError("headtail_k set but heads/tails missing")
            store = HeadTailStore.create(pool.allocator, n_rules, headtail_k)
            # Record the region so attach() can find it.
            pool.register_region(
                _HEADTAIL_REGION, store.base_offset, n_rules * store.record_size
            )
            for rule in range(n_rules):
                store.set(rule, heads[rule], tails[rule])
        return cls(pool)

    @classmethod
    def attach(cls, pool: NvmPool) -> "PrunedDag":
        """Reopen a pruned DAG from a pool whose directory is loaded."""
        return cls(pool)

    # ------------------------------------------------------------------
    # Metadata access
    # ------------------------------------------------------------------

    def _record_offset(self, rule: int) -> int:
        """Device offset of the rule's metadata record."""
        if self.indexed_layout:
            # Naive layout: chase the indirection pointer first.
            return layout.read_u64(self._mem, self._meta_off + rule * 8)
        return self._meta_off + rule * META_RECORD_SIZE

    @property
    def meta_offset(self) -> int:
        """Device offset of the metadata region (packed layout: the
        record of rule ``r`` sits at ``meta_offset + r * 48``)."""
        return self._meta_off

    def sweep_kernels(self):
        """The device's bulk kernels when per-rule sweeps may use them.

        ``None`` -- run the scalar reference reads -- under the indexed
        (naive) layout, whose records are reached through pointers, and
        whenever ``kernel_ready`` is false (fault plan armed, trace
        recorder attached, media seals verified, kernels off).
        """
        if self.indexed_layout or not self._mem.kernel_ready:
            return None
        return self._mem.kernels

    def meta(self, rule: int) -> tuple[int, int, int, int, int, int, int, int, int]:
        """Raw metadata record: (entry_off, raw_off, n_sub, n_words,
        raw_len, in_deg, out_deg, bound, weight)."""
        self._check(rule)
        raw = self._mem.read(self._record_offset(rule), META_RECORD_SIZE)
        return _META.unpack(raw)

    def bound(self, rule: int) -> int:
        """The Algorithm-2 upper bound stored for ``rule``."""
        return self.meta(rule)[7]

    def in_degree(self, rule: int) -> int:
        return self.meta(rule)[5]

    def in_degrees(self) -> list[int]:
        """Every rule's in-degree.

        With the packed layout the whole metadata region is streamed in
        one bulk read; the indexed (naive) layout has no contiguous region
        to stream and falls back to per-rule records.
        """
        if self.indexed_layout:
            return [self.meta(rule)[5] for rule in range(self.n_rules)]
        raw = self._mem.read_batch(self._meta_off, self.n_rules * META_RECORD_SIZE)
        return [record[5] for record in _META.iter_unpack(raw)]

    def weight(self, rule: int) -> int:
        """Current traversal weight of ``rule``."""
        self._check(rule)
        return layout.read_u64(self._mem, self._record_offset(rule) + 40)

    def set_weight(self, rule: int, weight: int) -> None:
        """Store the traversal weight of ``rule``."""
        self._check(rule)
        layout.write_u64(self._mem, self._record_offset(rule) + 40, weight)

    def add_weight(self, rule: int, delta: int) -> int:
        """Read-modify-write weight update; returns the new weight."""
        self._check(rule)
        return self._mem.rmw_add(self._record_offset(rule) + 40, 8, delta)

    def add_weight_many(self, pairs) -> None:
        """Apply :meth:`add_weight` for many ``(rule, delta)`` pairs.

        One fused RMW per site in input order.  The indexed (naive)
        layout pays its per-rule pointer chase and falls back to scalar
        updates.
        """
        if self.indexed_layout:
            for rule, delta in pairs:
                self.add_weight(rule, delta)
            return
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        if not pairs:
            return
        n = self.n_rules
        base = self._meta_off + 40
        sites = []
        for rule, delta in pairs:
            if not 0 <= rule < n:
                raise IndexError(f"rule {rule} out of range [0, {n})")
            sites.append((base + rule * META_RECORD_SIZE, delta))
        self._mem.rmw_add_each(sites, 8)

    def reset_weights(self) -> None:
        """Zero every rule's weight (between tasks).

        The packed layout rewrites the metadata region with one bulk
        read-modify-write instead of ``n_rules`` 8-byte stores.
        """
        if self.indexed_layout:
            for rule in range(self.n_rules):
                self.set_weight(rule, 0)
            return
        n = self.n_rules
        region = bytearray(self._mem.read_batch(self._meta_off, n * META_RECORD_SIZE))
        zero = bytes(8)
        for off in range(40, n * META_RECORD_SIZE, META_RECORD_SIZE):
            region[off : off + 8] = zero
        self._mem.write_batch(self._meta_off, region)

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------

    def subrules(self, rule: int) -> list[tuple[int, int]]:
        """Pruned ``(subrule index, frequency)`` pairs of ``rule``."""
        entry_off, _, n_sub, _, _, _, _, _, _ = self.meta(rule)
        flat = layout.read_u32_array(self._mem, entry_off, n_sub * 2)
        return list(zip(flat[0::2], flat[1::2]))

    def words(self, rule: int) -> list[tuple[int, int]]:
        """Pruned ``(word id, frequency)`` pairs of ``rule``."""
        entry_off, _, n_sub, n_words, _, _, _, _, _ = self.meta(rule)
        flat = layout.read_u32_array(
            self._mem, entry_off + n_sub * 8, n_words * 2
        )
        return list(zip(flat[0::2], flat[1::2]))

    def entries(self, rule: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Both entry lists with a single contiguous device read."""
        entry_off, _, n_sub, n_words, _, _, _, _, _ = self.meta(rule)
        flat = layout.read_u32_array(self._mem, entry_off, (n_sub + n_words) * 2)
        pairs = list(zip(flat[0::2], flat[1::2]))
        return pairs[:n_sub], pairs[n_sub:]

    def weight_and_subrules(self, rule: int) -> tuple[int, list[tuple[int, int]]]:
        """``(weight, subrules)`` from one metadata record read.

        The weight field lives in the same 48-byte record as the entry
        pointers, so traversals that need both pay a single record read
        instead of two.
        """
        entry_off, _, n_sub, _, _, _, _, _, weight = self.meta(rule)
        flat = layout.read_u32_array(self._mem, entry_off, n_sub * 2)
        return weight, list(zip(flat[0::2], flat[1::2]))

    def weight_and_words(self, rule: int) -> tuple[int, list[tuple[int, int]]]:
        """``(weight, words)`` from one metadata record read."""
        entry_off, _, n_sub, n_words, _, _, _, _, weight = self.meta(rule)
        flat = layout.read_u32_array(
            self._mem, entry_off + n_sub * 8, n_words * 2
        )
        return weight, list(zip(flat[0::2], flat[1::2]))

    def bound_and_entries(
        self, rule: int
    ) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
        """``(bound, subrules, words)`` from one metadata record read."""
        entry_off, _, n_sub, n_words, _, _, _, bound, _ = self.meta(rule)
        flat = layout.read_u32_array(self._mem, entry_off, (n_sub + n_words) * 2)
        pairs = list(zip(flat[0::2], flat[1::2]))
        return bound, pairs[:n_sub], pairs[n_sub:]

    def raw_body(self, rule: int) -> list[int]:
        """The ordered (unpruned) body of ``rule``."""
        _, raw_off, _, _, raw_len, _, _, _, _ = self.meta(rule)
        return layout.read_u32_array(self._mem, raw_off, raw_len)

    def _check(self, rule: int) -> None:
        if not 0 <= rule < self.n_rules:
            raise IndexError(f"rule {rule} out of range [0, {self.n_rules})")


def prune_corpus(
    pool: NvmPool,
    corpus: CompressedCorpus,
    dag: Dag | None = None,
    bounds: list[int] | None = None,
    headtail_k: int = 0,
    heads: list[list[int]] | None = None,
    tails: list[list[int]] | None = None,
) -> PrunedDag:
    """Convenience wrapper: build a :class:`PrunedDag` for a corpus."""
    if dag is None:
        dag = Dag(corpus)
    return PrunedDag.build(
        pool,
        corpus,
        dag,
        bounds=bounds,
        headtail_k=headtail_k,
        heads=heads,
        tails=tails,
    )
