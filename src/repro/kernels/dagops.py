"""Charge-exact kernels for the per-file top-down sweep (Section VI-E).

Counting one file top-down reads the whole pruned DAG: the full sweep
reads every rule's metadata record and subrule list, then the file's
weighted rules have their word lists read.  The scalar path issues each
read through ``PrunedDag.meta`` and ``layout.read_u32_array``; these
kernels issue the identical read sequence -- same offsets, sizes and
order, each charged by the kernels' one read-charge routine
(:func:`~repro.kernels.hashops.read_charger`) -- and decode the records
straight from the device buffer.  Per-entry CPU charges are added one at
a time in the scalar order, so the clock's float sum is bit-identical.
Under media protection that routine verifies each read's seals right
after charging it, so damage surfaces as the scalar path's
``MediaError``, at the same read.

The caller guarantees ``mem.kernel_ready`` and the packed pruned-DAG
layout (fixed-stride metadata records); otherwise it runs the scalar
reference loop.
"""

from __future__ import annotations

import struct

from repro.kernels.hashops import read_charger

#: Size of one packed metadata record (``repro.core.pruning._META``).
META_RECORD_SIZE = 48

#: The record's leading fields: entry offset, raw offset, n_subrules,
#: n_words.
_META_HEAD = struct.Struct("<QQII")


def sweep_subrule_weights(
    kern, meta_offset: int, topo_order: list[int], weights: list[int]
) -> None:
    """Push ``weights`` down the DAG, reading every rule in ``topo_order``.

    Charge-identical to ``full_sweep_weights_for_segment``'s scalar loop:
    per rule, one 48-byte record read, one subrule-list read when the
    rule has subrules, and one CPU op per subrule entry.
    """
    mem = kern.mem
    buf = mem._buf
    clock = mem.clock
    cpu_ns = clock.CPU_OP_NS
    charge_read = read_charger(kern)
    unpack_head = _META_HEAD.unpack_from
    unpack_from = struct.unpack_from
    for rule in topo_order:
        record = meta_offset + rule * META_RECORD_SIZE
        charge_read(record, META_RECORD_SIZE)
        entry_off, _, n_sub, _ = unpack_head(buf, record)
        if not n_sub:
            continue
        charge_read(entry_off, n_sub * 8)
        ns = clock.ns
        weight = weights[rule]
        if weight:
            flat = unpack_from(f"<{n_sub * 2}I", buf, entry_off)
            for i in range(0, n_sub * 2, 2):
                ns += cpu_ns
                weights[flat[i]] += weight * flat[i + 1]
        else:
            # An unweighted rule's entries are read (and charged) but
            # push nothing: only the per-entry CPU charges remain.
            for _ in range(n_sub):
                ns += cpu_ns
        clock.ns = ns


def accumulate_rule_words(
    kern, meta_offset: int, weights: dict[int, int], counts: dict[int, int]
) -> None:
    """Add ``weight x freq`` of every weighted rule's words into ``counts``.

    Charge-identical to reading ``PrunedDag.words(rule)`` for each rule
    of ``weights`` in iteration order: one record read, one word-list
    read when the rule has words, and one CPU op per word entry.
    """
    mem = kern.mem
    buf = mem._buf
    clock = mem.clock
    cpu_ns = clock.CPU_OP_NS
    charge_read = read_charger(kern)
    unpack_head = _META_HEAD.unpack_from
    unpack_from = struct.unpack_from
    get = counts.get
    for rule, weight in weights.items():
        record = meta_offset + rule * META_RECORD_SIZE
        charge_read(record, META_RECORD_SIZE)
        entry_off, _, n_sub, n_words = unpack_head(buf, record)
        if not n_words:
            continue
        words_off = entry_off + n_sub * 8
        charge_read(words_off, n_words * 8)
        flat = unpack_from(f"<{n_words * 2}I", buf, words_off)
        ns = clock.ns
        for i in range(0, n_words * 2, 2):
            word = flat[i]
            counts[word] = get(word, 0) + weight * flat[i + 1]
            ns += cpu_ns
        clock.ns = ns
