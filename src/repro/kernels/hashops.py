"""Fused probe/insert/lookup and scan kernels for :class:`PHashTable`.

``probe_batch`` is the execution engine behind ``add_many``,
``insert_many``, ``get_many``, ``merge_from`` and ``build`` (one rule's
bottom-up word list) when kernels are active.  It runs an ordered list
of *groups* -- pair batches or child tables to scan -- in one frame,
each group **sequentially in the caller-given order** -- exactly the
order the scalar calls use -- so probe paths, cache evolution, header
stores and every charged nanosecond match the scalar ``_locate``/
``_write_slot``/``rmw_add`` sequence bit for bit.  What changes is the
wall-clock cost per element: all simulator state (LRU dict, stats,
clock, bookkeeping sets) is hoisted into locals once per call, stats
are derived from per-kind touch counts at the end, and slot data moves
through zero-copy ``memoryview.cast`` views of the device buffer
instead of per-field ``int.to_bytes``/``int.from_bytes`` round-trips.
``accumulate_segment`` is the bottom-up per-file pass: one call per
file segment folds every referenced rule's table into the counts.

The caller guarantees (see ``PHashTable._kernel_ok``):

* batched cost model, no fault plan armed, no pending read corruption
  (those run the scalar reference path),
* non-growable table (the naive baseline keeps faithful scalar costs),
* 8-aligned key/value buffers and ``line_size`` a multiple of 8 and
  greater than 8, so every 8-byte field access stays within one device
  line and is never a whole-line write.

Charge blocks below are transliterations of the single-line fast paths
of ``SimulatedMemory.read_uint`` / ``write_uint`` / ``rmw_add``; keep
them in lockstep with ``repro/nvm/memory.py``.  Every eviction
write-back goes through ``SimulatedMemory._program_line``, so wear and
the media-protect seal mirror evolve exactly as on the scalar path.

Media protection (an attached integrity mirror) is verified, not stood
down for: each read of a clean, sealed line is checked by
``SimulatedMemory._verify_read`` right after its charge -- in
``read_charger`` for every span it charges, and in ``probe_batch`` after
each status, key and value read -- so a ``MediaError`` surfaces with the
scalar path's clock, stats and partly updated table.  Verification
charges nothing, like the DIMM ECC check it models.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import CapacityError

#: Batch modes.
ADD = 0  # found -> rmw value += aux; missing -> insert aux
PUT = 1  # found -> overwrite value = aux; missing -> insert aux
GET = 2  # found -> out[aux] = value; missing -> leave default

_EMPTY = 0
_OCCUPIED = 1
_TOMBSTONE = 2

#: Sentinel for "last media line is None"; line numbers are >= 0 so the
#: sequential check ``line == lml + 1`` can never match it.
_NO_LML = -(1 << 60)

#: Slots per bulk status/key/value read of a table scan.
_CHUNK = 512

#: Sort key of a ``(home, key, aux)`` probe entry: C-level, and
#: ``list.sort`` keeps it stable, so ties keep the caller's order.
_HOME = itemgetter(0)


def table_views(kern, data_offset: int, capacity: int):
    """Zero-copy (status, key, value) views of one table's buffers.

    Uncached: the table object holds them (``PHashTable._views``), so
    they are dropped with the table.
    """
    buf_mv = memoryview(kern.mem._buf)
    key_base = data_offset + capacity
    value_base = data_offset + capacity * 9
    return (
        buf_mv[data_offset : data_offset + capacity],
        buf_mv[key_base : key_base + capacity * 8].cast("Q"),
        buf_mv[value_base : value_base + capacity * 8].cast("q"),
    )


def _consts(kern):
    """Per-device invariants hoisted once per :class:`Kernels` instance.

    Every entry is either an immutable profile cost or a singleton
    object assigned exactly once in ``SimulatedMemory.__init__`` (the
    cache, stats, clock, and bookkeeping sets are mutated in place,
    never replaced), so caching the tuple is safe for the memory's
    lifetime.
    """
    consts = kern.consts
    if consts is None:
        mem = kern.mem
        profile = mem.profile
        consts = (
            profile.line_size,
            profile.read_ns,
            profile.seq_read_ns,
            profile.write_ns,
            profile.seq_write_ns,
            profile.syscall_ns,
            mem.clock,
            mem.stats,
            mem._cache,
            mem._dirty_lines,
            mem._evict_programmed,
            mem._media_lines,
        )
        kern.consts = consts
    return consts


def read_charger(kern):
    """The kernels' one read-charge routine for ``kern``'s memory.

    ``charge_read(offset, size)`` charges exactly what
    ``SimulatedMemory.read(offset, size)`` charges on the batched cost
    model -- LRU evolution, clock, per-device stats, eviction
    write-backs, wear and reseals -- without moving data; the caller
    reads the bytes through a zero-copy view afterwards.  While an
    integrity mirror is attached the returned routine also verifies the
    span's seals right after charging it.  Call once per kernel call
    (the mirror is attached or detached only between kernel calls); the
    routines are built once per :class:`~repro.kernels.core.Kernels`
    instance and cached on it.
    """
    chargers = kern.read_charge
    if chargers is None:
        chargers = kern.read_charge = _build_read_chargers(kern)
    return chargers[kern.mem._integrity_seals is not None]


def _build_read_chargers(kern):
    """``(charge_read, charge_and_verify_read)`` for :func:`read_charger`."""
    mem = kern.mem
    (
        line_size,
        read_ns,
        seq_read_ns,
        write_ns,
        seq_write_ns,
        syscall,
        clock,
        stats,
        cache,
        _dirty_lines,
        evict_programmed,
        _media,
    ) = _consts(kern)
    access_many = cache.access_many
    cache_lines = cache._lines
    move_to_end = cache_lines.move_to_end
    program_line = mem._program_line
    verify_read = mem._verify_read
    ep_add = evict_programmed.add

    def charge_read(offset: int, size: int) -> None:
        # Transliteration of SimulatedMemory.read's batched span charge
        # (_touch_batch, dirty=False branch) plus read-op accounting;
        # keep in lockstep with repro/nvm/memory.py.
        first = offset // line_size
        last = (offset + size - 1) // line_size
        if first == last and first in cache_lines:
            # Single-line cache hit: read()'s fast path, 1 ns.
            move_to_end(first)
            stats.cache_hits += 1
            stats.lines_read += 1
            clock.ns += 1.0
            stats.read_ops += 1
            stats.bytes_read += size
            return
        n = last - first + 1
        n_hits, miss_runs, evictions = access_many(first, last, False)
        stats.cache_hits += n_hits
        stats.cache_misses += n - n_hits
        stats.lines_read += n
        total = float(n_hits)
        device = 0.0
        if miss_runs:
            lml = mem._last_media_line
            prev_end = None
            for run_start, run_len in miss_runs:
                before = prev_end if prev_end is not None else lml
                base = (
                    seq_read_ns
                    if before is not None and run_start == before + 1
                    else read_ns
                )
                cost = base + (run_len - 1) * seq_read_ns + run_len * syscall
                total += cost
                device += cost
                prev_end = run_start + run_len - 1
            mem._last_media_line = prev_end
        if evictions:
            for at, victim in evictions:
                cost = (seq_write_ns if victim == at + 1 else write_ns) + syscall
                total += cost
                device += cost
                program_line(victim)
                ep_add(victim)
            stats.writebacks += len(evictions)
        if device:
            stats.device_ns += device
        clock.ns += total
        stats.read_ops += 1
        stats.bytes_read += size

    def charge_and_verify_read(offset: int, size: int) -> None:
        charge_read(offset, size)
        verify_read(offset, size)

    return charge_read, charge_and_verify_read


def _scan_chunk(charge_read, np_mod, views, data_offset: int, capacity: int, start):
    """Charge one chunk of a table scan; return its live ``(keys, vals)``.

    Charge-identical to one chunk of the scalar ``PHashTable.items``
    scan: one bulk status read and -- only when the chunk holds occupied
    slots -- one bulk key read and one bulk value read, each charged (and
    seal-verified) by ``charge_read``.  Returns ``None`` for a chunk with
    no live slot.

    The numpy gather pays ~3 fixed array setups; the find loop is linear
    in the occupied count.  Crossover sits around a few dozen live
    slots, so sparse chunks (the common case in the bottom-up sweep's
    many small tables) stay on the find loop.
    """
    st_mv, k_mv, v_mv = views
    n = min(_CHUNK, capacity - start)
    charge_read(data_offset + start, n)
    statuses = bytes(st_mv[start : start + n])
    if _OCCUPIED not in statuses:
        return None
    charge_read(data_offset + capacity + start * 8, n * 8)
    charge_read(data_offset + capacity * 9 + start * 8, n * 8)
    if np_mod is not None and statuses.count(_OCCUPIED) >= 48:
        end = start + n
        idx = np_mod.flatnonzero(np_mod.frombuffer(statuses, dtype=np_mod.uint8) == 1)
        return (
            np_mod.asarray(k_mv[start:end])[idx].tolist(),
            np_mod.asarray(v_mv[start:end])[idx].tolist(),
        )
    keys = []
    vals = []
    find = statuses.find
    i = find(_OCCUPIED)
    while i >= 0:
        keys.append(k_mv[start + i])
        vals.append(v_mv[start + i])
        i = find(_OCCUPIED, i + 1)
    return keys, vals


def scan_chunks(kern, views, *, data_offset: int, capacity: int):
    """Yield per-chunk ``(keys, vals)`` lists of one table's occupied slots.

    Charge-identical to the scalar ``PHashTable.items`` scan (see
    :func:`_scan_chunk`).  Charges land before each ``yield``, so a
    partial drain leaves the same simulator state as a partial drain of
    the scalar generator.  Data moves through the table's zero-copy
    ``views`` (see :func:`table_views`) instead of ``mem.read`` copies.
    """
    np_mod = kern.np
    charge_read = read_charger(kern)
    for start in range(0, capacity, _CHUNK):
        live = _scan_chunk(charge_read, np_mod, views, data_offset, capacity, start)
        if live is not None:
            yield live


def accumulate_segment(
    kern, segment, spec_of, counts: dict, clock, *, word_limit: int, rule_base: int
) -> dict:
    """Fold one file segment's word counts into ``counts``, in one pass.

    Charge-identical to the scalar per-symbol loop of
    ``repro.core.traversal.merge_segment_counts`` with
    ``PHashTable.accumulate_into`` for each rule reference: one
    ``CPU_OP_NS`` per symbol; a symbol below ``word_limit`` is a word and
    counts once, one at or above ``rule_base`` references rule
    ``symbol - rule_base`` and every other symbol is a separator.  A
    rule's table (``spec_of(rule)`` gives its ``(views, data_offset,
    capacity)``) is scanned chunk by chunk, each chunk's reads followed
    by one ``CPU_OP_NS`` per live pair, in the scalar order.
    """
    cpu_ns = clock.CPU_OP_NS
    charge_read = read_charger(kern)
    np_mod = kern.np
    get = counts.get
    for symbol in segment:
        clock.ns += cpu_ns
        if symbol < word_limit:
            counts[symbol] = get(symbol, 0) + 1
        elif symbol >= rule_base:
            views, data_offset, capacity = spec_of(symbol - rule_base)
            for start in range(0, capacity, _CHUNK):
                live = _scan_chunk(
                    charge_read, np_mod, views, data_offset, capacity, start
                )
                if live is None:
                    continue
                keys, vals = live
                ns = clock.ns
                for _ in keys:
                    ns += cpu_ns
                clock.ns = ns
                for word, count in zip(keys, vals):
                    counts[word] = get(word, 0) + count
    return counts


def probe_batch(
    kern,
    views,
    *,
    data_offset: int,
    capacity: int,
    count: int,
    tombstones: int,
    load_limit: float,
    groups,
    mode: int,
    hashes,
    out: list | None = None,
    counter: list | None = None,
    store_header=None,
) -> int:
    """Run ordered groups of probes into one table; return the inserts.

    ``views`` are the table's zero-copy buffers (:func:`table_views`).
    ``groups`` is a sequence of ``(source, scale)``, run in order:

    * ``scale is None``: ``source`` iterates ``(key, aux)`` pairs in the
      scalar path's tie-break order.  For ``GET``, ``aux`` is the index
      into ``out``; otherwise it is the delta (ADD) or value (PUT).
    * otherwise ``source`` is ``(views, data_offset, capacity)`` of a
      child table in the same memory: its live slots are scanned,
      charged as a full ``items()`` drain, and probed as
      ``(key, value * scale)``.

    Each group is home-sorted (stably; ``hashes[key]`` is the key's
    64-bit hash, masked to a home slot) and probed in that order, so a
    group charges exactly what one scalar ``add_many``/``insert_many``/
    ``get_many``/``merge_from`` call charges.  After a group that
    inserted a key, ``store_header(count)`` stores the table header,
    where those calls store it; a group that raises stores nothing.
    ``counter`` (a one-element list) receives the updated live count
    even when a :class:`CapacityError` or
    :class:`~repro.errors.MediaError` is raised mid-group, mirroring the
    scalar path's partially-updated state.
    """
    mem = kern.mem
    st_mv, k_mv, v_mv = views
    mask = capacity - 1
    key_base = data_offset + capacity
    value_base = data_offset + capacity * 9

    (
        line_size,
        read_ns,
        seq_read_ns,
        write_ns,
        seq_write_ns,
        syscall,
        clock,
        stats,
        cache,
        dirty_lines,
        evict_programmed,
        media,
    ) = _consts(kern)
    cpu_ns = clock.CPU_OP_NS
    cache_lines = cache._lines
    cache_cap = cache.capacity_lines
    popitem = cache_lines.popitem
    move_to_end = cache_lines.move_to_end
    dirty_add = dirty_lines.add
    ep_add = evict_programmed.add
    ep_discard = evict_programmed.discard
    program_line = mem._program_line
    #: Integrity mirror, or None.  A read of a line that is sealed and
    #: clean is verified right after its charge; dirty lines never are.
    seals = mem._integrity_seals
    verify_read = mem._verify_read
    charge_read = read_charger(kern)

    # The clock and media cursor live in ``cns``/``lml`` while ``held``;
    # they are handed back to the memory around every call that charges
    # through it (a child scan, a header store).
    cns = clock.ns  # running copy: identical add sequence => identical bits
    lml = _NO_LML if mem._last_media_line is None else mem._last_media_line
    held = True
    dns = 0.0  # device_ns delta (integer-valued charges: grouping-safe)
    # Line touches are counted by kind; stats are derived in ``finally``.
    probes = 0  # 1-byte status reads
    r8 = 0  # 8-byte key/value reads
    w8 = 0  # 8-byte value writes of found keys
    misses = writebacks = 0
    inserted = 0  # each one a 1-byte status and two 8-byte writes

    try:
        for source, scale in groups:
            if scale is None:
                entries = [(hashes[key] & mask, key, aux) for key, aux in source]
            else:
                # A child table: charge its full scan through the memory
                # (status chunk, then key and value chunks where live),
                # gathering (home, key, value * scale) as it goes.
                (c_st, c_k, c_v), c_offset, c_capacity = source
                clock.ns = cns
                mem._last_media_line = None if lml == _NO_LML else lml
                held = False
                entries = []
                append = entries.append
                for start in range(0, c_capacity, _CHUNK):
                    n = min(_CHUNK, c_capacity - start)
                    charge_read(c_offset + start, n)
                    statuses = bytes(c_st[start : start + n])
                    if _OCCUPIED not in statuses:
                        continue
                    charge_read(c_offset + c_capacity + start * 8, n * 8)
                    charge_read(c_offset + c_capacity * 9 + start * 8, n * 8)
                    find = statuses.find
                    i = find(_OCCUPIED)
                    while i >= 0:
                        key = c_k[start + i]
                        append((hashes[key] & mask, key, c_v[start + i] * scale))
                        i = find(_OCCUPIED, i + 1)
                cns = clock.ns
                lml = _NO_LML if mem._last_media_line is None else mem._last_media_line
                held = True
                if not entries:
                    continue
            entries.sort(key=_HOME)
            group_start = inserted

            for home, key, aux in entries:
                first_free = -1
                found = False
                target = -1
                for i in range(capacity):
                    slot = (home + ((i * (i + 1)) >> 1)) & mask
                    cns += cpu_ns  # _locate's clock.cpu(1) per probe
                    # read_uint(status_offset, 1) charge
                    line = (data_offset + slot) // line_size
                    if line in cache_lines:
                        move_to_end(line)
                        cns += 1.0
                    else:
                        misses += 1
                        cost = (seq_read_ns if line == lml + 1 else read_ns) + syscall
                        lml = line
                        if len(cache_lines) >= cache_cap:
                            victim, victim_dirty = popitem(False)
                            if victim_dirty:
                                wcost = (
                                    seq_write_ns if victim == line + 1 else write_ns
                                ) + syscall
                                cost += wcost
                                writebacks += 1
                                program_line(victim)
                                ep_add(victim)
                        dns += cost
                        cns += cost
                        cache_lines[line] = False
                    probes += 1
                    if seals is not None and line in seals and line not in dirty_lines:
                        verify_read(data_offset + slot, 1)
                    status = st_mv[slot]
                    if status == _EMPTY:
                        target = first_free if first_free >= 0 else slot
                        break
                    if status == _TOMBSTONE:
                        if first_free < 0:
                            first_free = slot
                        continue
                    # occupied: read_uint(key_offset, 8) charge, then compare
                    line = (key_base + slot * 8) // line_size
                    if line in cache_lines:
                        move_to_end(line)
                        cns += 1.0
                    else:
                        misses += 1
                        cost = (seq_read_ns if line == lml + 1 else read_ns) + syscall
                        lml = line
                        if len(cache_lines) >= cache_cap:
                            victim, victim_dirty = popitem(False)
                            if victim_dirty:
                                wcost = (
                                    seq_write_ns if victim == line + 1 else write_ns
                                ) + syscall
                                cost += wcost
                                writebacks += 1
                                program_line(victim)
                                ep_add(victim)
                        dns += cost
                        cns += cost
                        cache_lines[line] = False
                    r8 += 1
                    if seals is not None and line in seals and line not in dirty_lines:
                        verify_read(key_base + slot * 8, 8)
                    if k_mv[slot] == key:
                        target = slot
                        found = True
                        break
                else:
                    if first_free >= 0:
                        target = first_free
                    else:
                        raise CapacityError("hash table has no free slot")

                if found:
                    line = (value_base + target * 8) // line_size
                    if mode == ADD:
                        # rmw_add(value_offset, 8, aux, signed=True) charge:
                        # the read half, then the write half's guaranteed
                        # dirty hit.
                        if line in cache_lines:
                            move_to_end(line)
                            cost = 1.0
                        else:
                            misses += 1
                            cost = (
                                seq_read_ns if line == lml + 1 else read_ns
                            ) + syscall
                            lml = line
                            if len(cache_lines) >= cache_cap:
                                victim, victim_dirty = popitem(False)
                                if victim_dirty:
                                    wcost = (
                                        seq_write_ns if victim == line + 1 else write_ns
                                    ) + syscall
                                    cost += wcost
                                    writebacks += 1
                                    program_line(victim)
                                    ep_add(victim)
                            dns += cost
                            cache_lines[line] = False
                        r8 += 1
                        if seals is None:
                            cns += cost + 1.0
                        else:
                            # Under seals rmw_add is read() then write(): two
                            # clock adds, with the read half verified before
                            # the write half is charged.
                            cns += cost
                            if line in seals and line not in dirty_lines:
                                verify_read(value_base + target * 8, 8)
                            cns += 1.0
                        cache_lines[line] = True
                        dirty_add(line)
                        ep_discard(line)
                        w8 += 1
                        v_mv[target] += aux
                    elif mode == PUT:
                        # write_uint(value_offset, 8, aux, signed=True) charge
                        if line in cache_lines:
                            move_to_end(line)
                            cns += 1.0
                        else:
                            misses += 1
                            if line not in media:
                                cost = 1.0
                                dcost = 0.0
                            else:
                                cost = (
                                    seq_read_ns if line == lml + 1 else read_ns
                                ) + syscall
                                dcost = cost
                            lml = line
                            if len(cache_lines) >= cache_cap:
                                victim, victim_dirty = popitem(False)
                                if victim_dirty:
                                    wcost = (
                                        seq_write_ns if victim == line + 1 else write_ns
                                    ) + syscall
                                    cost += wcost
                                    dcost += wcost
                                    writebacks += 1
                                    program_line(victim)
                                    ep_add(victim)
                            if dcost:
                                dns += dcost
                            cns += cost
                        cache_lines[line] = True
                        dirty_add(line)
                        ep_discard(line)
                        w8 += 1
                        v_mv[target] = aux
                    else:  # GET
                        # read_uint(value_offset, 8, signed=True) charge
                        if line in cache_lines:
                            move_to_end(line)
                            cns += 1.0
                        else:
                            misses += 1
                            cost = (
                                seq_read_ns if line == lml + 1 else read_ns
                            ) + syscall
                            lml = line
                            if len(cache_lines) >= cache_cap:
                                victim, victim_dirty = popitem(False)
                                if victim_dirty:
                                    wcost = (
                                        seq_write_ns if victim == line + 1 else write_ns
                                    ) + syscall
                                    cost += wcost
                                    writebacks += 1
                                    program_line(victim)
                                    ep_add(victim)
                            dns += cost
                            cns += cost
                            cache_lines[line] = False
                        r8 += 1
                        if seals is not None and line in seals and line not in dirty_lines:
                            verify_read(value_base + target * 8, 8)
                        out[aux] = v_mv[target]
                    continue

                if mode == GET:
                    continue
                # _ensure_room (non-growable): raise at the load cap, with
                # the scalar path's partial state (prior inserts stand,
                # charged).
                if count + tombstones + 1 > load_limit:
                    raise CapacityError(
                        f"hash table at load cap (capacity {capacity}); size it "
                        "with the bottom-up upper bound or pass growable=True"
                    )
                # _write_slot: status (1B), key (8B), value (8B) write_uint
                # charges, each write landing right after its charge.
                line = (data_offset + target) // line_size
                if line in cache_lines:
                    move_to_end(line)
                    cns += 1.0
                else:
                    misses += 1
                    if line not in media:
                        cost = 1.0
                        dcost = 0.0
                    else:
                        cost = (seq_read_ns if line == lml + 1 else read_ns) + syscall
                        dcost = cost
                    lml = line
                    if len(cache_lines) >= cache_cap:
                        victim, victim_dirty = popitem(False)
                        if victim_dirty:
                            wcost = (
                                seq_write_ns if victim == line + 1 else write_ns
                            ) + syscall
                            cost += wcost
                            dcost += wcost
                            writebacks += 1
                            program_line(victim)
                            ep_add(victim)
                    if dcost:
                        dns += dcost
                    cns += cost
                cache_lines[line] = True
                dirty_add(line)
                ep_discard(line)
                st_mv[target] = _OCCUPIED

                line = (key_base + target * 8) // line_size
                if line in cache_lines:
                    move_to_end(line)
                    cns += 1.0
                else:
                    misses += 1
                    if line not in media:
                        cost = 1.0
                        dcost = 0.0
                    else:
                        cost = (seq_read_ns if line == lml + 1 else read_ns) + syscall
                        dcost = cost
                    lml = line
                    if len(cache_lines) >= cache_cap:
                        victim, victim_dirty = popitem(False)
                        if victim_dirty:
                            wcost = (
                                seq_write_ns if victim == line + 1 else write_ns
                            ) + syscall
                            cost += wcost
                            dcost += wcost
                            writebacks += 1
                            program_line(victim)
                            ep_add(victim)
                    if dcost:
                        dns += dcost
                    cns += cost
                cache_lines[line] = True
                dirty_add(line)
                ep_discard(line)
                k_mv[target] = key

                line = (value_base + target * 8) // line_size
                if line in cache_lines:
                    move_to_end(line)
                    cns += 1.0
                else:
                    misses += 1
                    if line not in media:
                        cost = 1.0
                        dcost = 0.0
                    else:
                        cost = (seq_read_ns if line == lml + 1 else read_ns) + syscall
                        dcost = cost
                    lml = line
                    if len(cache_lines) >= cache_cap:
                        victim, victim_dirty = popitem(False)
                        if victim_dirty:
                            wcost = (
                                seq_write_ns if victim == line + 1 else write_ns
                            ) + syscall
                            cost += wcost
                            dcost += wcost
                            writebacks += 1
                            program_line(victim)
                            ep_add(victim)
                    if dcost:
                        dns += dcost
                    cns += cost
                cache_lines[line] = True
                dirty_add(line)
                ep_discard(line)
                v_mv[target] = aux

                count += 1
                inserted += 1

            if inserted != group_start and store_header is not None:
                clock.ns = cns
                mem._last_media_line = None if lml == _NO_LML else lml
                held = False
                store_header(count)
                cns = clock.ns
                lml = _NO_LML if mem._last_media_line is None else mem._last_media_line
                held = True
    finally:
        if held:
            clock.ns = cns
            mem._last_media_line = None if lml == _NO_LML else lml
        if dns:
            stats.device_ns += dns
        lines_r = probes + r8
        lines_w = 3 * inserted + w8
        stats.cache_hits += lines_r + lines_w - misses
        stats.cache_misses += misses
        stats.writebacks += writebacks
        stats.lines_read += lines_r
        stats.lines_written += lines_w
        stats.read_ops += lines_r
        stats.write_ops += lines_w
        stats.bytes_read += probes + 8 * r8
        stats.bytes_written += 17 * inserted + 8 * w8
        if counter is not None:
            counter[0] = count
    return inserted
