"""DAG traversal engines: top-down weight propagation and bottom-up
word-list construction (Section IV-A "Workflow", Section VI-E).

Both engines operate purely on the device-resident
:class:`~repro.core.pruning.PrunedDag`, so every hop is charged by the
device cost model.  The traversal queue lives in the pool, as in Fig. 3.

* :func:`propagate_weights_topdown` -- Kahn-style topological sweep; each
  popped rule pushes weight to its subrules.  One sweep answers global
  tasks (word count).  Per-file variants re-run the sweep per file, which
  is what collapses on many-file datasets (the ~1000x effect of
  Section VI-E).
* :func:`compute_wordlists_bottomup` -- builds one pre-sized hash table
  per rule (capacity from the Algorithm-2 bound) in reverse topological
  order; per-file tasks then merge only the tables their segment
  references.
"""

from __future__ import annotations

from repro.core.grammar import is_rule_ref, is_separator, rule_index
from repro.core.pruning import PrunedDag
from repro.kernels.dagops import sweep_subrule_weights
from repro.nvm.allocator import PoolAllocator
from repro.obs import tracer as obs
from repro.pstruct import layout
from repro.pstruct.phashtable import PHashTable
from repro.pstruct.pqueue import PQueue

#: Rules drained from the traversal queue per block; one header store is
#: amortized over the whole block instead of paid per pop.
_POP_BLOCK = 128


def propagate_weights_topdown(
    pruned: PrunedDag,
    allocator: PoolAllocator,
    root_weight: int = 1,
) -> None:
    """Propagate rule weights from the root down the DAG.

    After this call, ``pruned.weight(r)`` is the number of times rule
    ``r`` occurs in the corpus expansion (Step 1-2 of the paper's word
    count example).  Uses a pool-resident traversal queue and a
    pool-resident remaining-degree array, per Fig. 3.
    """
    with obs.span(
        "traversal:weights_topdown",
        category="traversal",
        rules=pruned.n_rules,
    ):
        n = pruned.n_rules
        mem = allocator.memory
        remaining_off = allocator.alloc(max(n * 4, 4))
        degrees = pruned.in_degrees()
        layout.write_u32_array(mem, remaining_off, degrees)
        queue = PQueue.create(allocator, capacity=max(n, 1))

        pruned.reset_weights()
        pruned.set_weight(0, root_weight)
        roots = [rule for rule in range(n) if degrees[rule] == 0]
        if roots:
            queue.push_many(roots)
        while not queue.is_empty():
            # Edge updates are batched across the whole popped block: no
            # rule in a block can reference another (members already
            # reached in-degree zero), so reading every member's weight
            # up front and then issuing all weight pushes followed by all
            # in-degree decrements is order-safe.  Each site still pays
            # its own fused read-modify-write.
            weight_sites: list[tuple[int, int]] = []
            dec_sites: list[tuple[int, int]] = []
            dec_subs: list[int] = []
            for rule in queue.pop_many(_POP_BLOCK):
                weight, subs = pruned.weight_and_subrules(rule)
                for sub, freq in subs:
                    weight_sites.append((sub, weight * freq))
                    dec_sites.append((remaining_off + sub * 4, -1))
                    dec_subs.append(sub)
            if not weight_sites:
                continue
            pruned.add_weight_many(weight_sites)
            lefts = mem.rmw_add_each(dec_sites, 4, collect=True)
            ready = [sub for sub, left in zip(dec_subs, lefts) if left == 0]
            if ready:
                queue.push_many(ready)
        allocator.free(remaining_off, max(n * 4, 4))


def local_weights_for_segment(
    pruned: PrunedDag,
    segment: list[int],
    topo_position: list[int],
) -> dict[int, int]:
    """Per-file weight propagation for one root-rule segment.

    This is the *top-down per-file* strategy: weights are seeded from the
    rule references inside the file's segment of the root body and pushed
    down in topological order.  ``topo_position[r]`` gives r's rank in a
    global topological order (used to process touched rules in a valid
    order without sweeping the whole DAG).
    """
    clock = pruned.pool.memory.clock
    weights: dict[int, int] = {}
    for symbol in segment:
        if is_rule_ref(symbol):
            idx = rule_index(symbol)
            weights[idx] = weights.get(idx, 0) + 1
            clock.cpu(1)
    # Discover the reachable subgraph, caching each rule's entries so the
    # propagation pass below does not re-read the device.
    entries: dict[int, list[tuple[int, int]]] = {}
    stack = list(weights)
    while stack:
        rule = stack.pop()
        if rule in entries:
            continue
        subs = pruned.subrules(rule)
        entries[rule] = subs
        stack.extend(sub for sub, _ in subs if sub not in entries)
    # Propagate in (restricted) topological order.
    for rule in sorted(entries, key=topo_position.__getitem__):
        weight = weights.get(rule, 0)
        if not weight:
            continue
        for subrule, freq in entries[rule]:
            clock.cpu(1)
            weights[subrule] = weights.get(subrule, 0) + weight * freq
    return {rule: w for rule, w in weights.items() if w}


def full_sweep_weights_for_segment(
    pruned: PrunedDag,
    segment: list[int],
    topo_order: list[int],
) -> dict[int, int]:
    """Per-file weights via a full-DAG topological sweep.

    This mirrors the original TADOC top-down implementation, which "needs
    to traverse the DAG when processing each file": the sweep visits
    every rule whether or not the file references it, so per-file cost is
    O(|DAG|) and total cost is O(files x |DAG|) -- the behaviour that is
    ~1000x slower than bottom-up on many-file datasets (Section VI-E).
    """
    clock = pruned.pool.memory.clock
    weights = [0] * pruned.n_rules
    for symbol in segment:
        if is_rule_ref(symbol):
            weights[rule_index(symbol)] += 1
            clock.cpu(1)
    kern = pruned.sweep_kernels()
    if kern is not None:
        sweep_subrule_weights(kern, pruned.meta_offset, topo_order, weights)
    else:
        for rule in topo_order:
            weight = weights[rule]
            # The faithful sweep reads every rule's entries regardless of
            # weight.
            for subrule, freq in pruned.subrules(rule):
                clock.cpu(1)
                if weight:
                    weights[subrule] += weight * freq
    return {rule: w for rule, w in enumerate(weights) if w}


def compute_wordlists_bottomup(
    pruned: PrunedDag,
    allocator: PoolAllocator,
    reverse_topo: list[int],
    growable: bool = False,
    op_commit=None,
    visitors: tuple = (),
) -> list[PHashTable]:
    """Build every rule's word list bottom-up (reverse topological order).

    Each rule's table is created with capacity from its Algorithm-2 bound
    (``pruned.bound``), so no table ever rehashes.  With ``growable=True``
    the bounds are ignored and tables start minimal -- the naive-baseline
    mode that pays reconstruction traffic on every overflow.  The table
    of rule r maps word id -> occurrences in ONE expansion of r.

    ``visitors`` are optional ``(rule, words, subrules)`` callbacks fused
    into the sweep: each rule's entry lists are read from the device once
    and shared between the table construction and every visitor, so
    bottom-up consumers (word search marking, locate marking) ride the
    same DAG pass instead of re-reading every rule.

    Returns the per-rule tables, indexed by rule.
    """
    with obs.span(
        "traversal:wordlists_bottomup",
        category="traversal",
        rules=pruned.n_rules,
        visitors=len(visitors),
    ):
        return _compute_wordlists_bottomup(
            pruned, allocator, reverse_topo, growable, op_commit, visitors
        )


def _compute_wordlists_bottomup(
    pruned: PrunedDag,
    allocator: PoolAllocator,
    reverse_topo: list[int],
    growable: bool,
    op_commit,
    visitors: tuple,
) -> list[PHashTable]:
    tables: list[PHashTable | None] = [None] * pruned.n_rules
    for rule in reverse_topo:
        if growable:
            # The naive-baseline mode keeps faithful per-element updates:
            # its cost is the point of measuring it.
            table = PHashTable.create(allocator, expected_entries=4, growable=True)
            words = pruned.words(rule)
            subs = pruned.subrules(rule)
            for word, freq in words:
                table.add(word, freq)
            for subrule, freq in subs:
                subtable = tables[subrule]
                for word, count in subtable.items():
                    table.add(word, count * freq)
        else:
            bound, subs, words = pruned.bound_and_entries(rule)
            table = PHashTable.create(allocator, expected_entries=max(bound, 1))
            if words:
                table.add_many(words)
            for subrule, freq in subs:
                # Charge-identical to add_many over subtable.items(); the
                # kernel path fuses the scan and the home-ordered probes.
                table.merge_from(tables[subrule], scale=freq)
        tables[rule] = table
        for visit in visitors:
            visit(rule, words, subs)
        if op_commit is not None:
            op_commit()
    return tables  # type: ignore[return-value]


def bottomup_rule_sweep(pruned: PrunedDag, reverse_topo: list[int], visitors: tuple) -> None:
    """One reverse-topological DAG pass feeding per-rule visitors.

    Used by the planner when bottom-up consumers (search/locate marking)
    are fused *without* word-list construction: each rule's entry lists
    are read once (a single contiguous record read) and handed to every
    ``(rule, words, subrules)`` visitor.
    """
    with obs.span(
        "traversal:bottomup_sweep",
        category="traversal",
        rules=pruned.n_rules,
        visitors=len(visitors),
    ):
        for rule in reverse_topo:
            subs, words = pruned.entries(rule)
            for visit in visitors:
                visit(rule, words, subs)


def merge_segment_counts(
    pruned: PrunedDag,
    segment: list[int],
    wordlists: list[PHashTable],
    clock,
) -> dict[int, int]:
    """Word counts for one file segment, given per-rule word lists.

    Bare words in the segment count directly; each rule reference merges
    that rule's (pre-computed) word list.  This is the bottom-up per-file
    strategy: cost is proportional to the segment plus the referenced
    word lists, independent of the total file count.
    """
    counts: dict[int, int] = {}
    for symbol in segment:
        clock.cpu(1)
        if is_separator(symbol):
            continue
        if is_rule_ref(symbol):
            # One cpu op per merged pair, chunked bulk reads underneath.
            wordlists[rule_index(symbol)].accumulate_into(counts, clock)
        else:
            counts[symbol] = counts.get(symbol, 0) + 1
    return counts
