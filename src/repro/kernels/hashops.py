"""Fused probe/insert/lookup kernel for :class:`PHashTable` batches.

``probe_batch`` is the execution engine behind ``add_many``,
``insert_many``, ``get_many`` and ``merge_from`` when kernels are active.
It walks the batch **sequentially in the caller-given order** -- exactly
the order the scalar path uses -- so probe paths, cache evolution, and
every charged nanosecond match the scalar ``_locate``/``_write_slot``/
``rmw_add`` sequence bit for bit.  What changes is the wall-clock cost
per element: all simulator state (LRU dict, stats, clock, media/wear
sets) is hoisted into locals, and slot data moves through zero-copy
``memoryview.cast`` views of the device buffer instead of per-field
``int.to_bytes``/``int.from_bytes`` round-trips.

The caller guarantees (see ``PHashTable._kernel_ok``):

* batched cost model, no fault plan armed, no pending read corruption
  (those run the scalar reference path),
* non-growable table (the naive baseline keeps faithful scalar costs),
* 8-aligned key/value buffers and ``line_size`` a multiple of 8 and
  greater than 8, so every 8-byte field access stays within one device
  line and is never a whole-line write.

Charge blocks below are transliterations of the single-line fast paths
of ``SimulatedMemory.read_uint`` / ``write_uint`` / ``rmw_add``; keep
them in lockstep with ``repro/nvm/memory.py``.
"""

from __future__ import annotations

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


def table_views(kern, data_offset: int, capacity: int):
    """Cached zero-copy (status, key, value) views of one table's buffers."""
    cache_key = (data_offset, capacity)
    views = kern.view_cache.get(cache_key)
    if views is None:
        buf_mv = memoryview(kern.mem._buf)
        key_base = data_offset + capacity
        value_base = data_offset + capacity * 9
        views = (
            buf_mv[data_offset : data_offset + capacity],
            buf_mv[key_base : key_base + capacity * 8].cast("Q"),
            buf_mv[value_base : value_base + capacity * 8].cast("q"),
        )
        kern.view_cache[cache_key] = views
    return views


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
            mem.wear,
        )
        kern.consts = consts
    return consts


def read_charger(kern):
    """The kernels' one read-charge routine for ``kern``'s memory.

    ``charge_read(offset, size)`` charges exactly what
    ``SimulatedMemory.read(offset, size)`` charges on the batched cost
    model -- LRU evolution, clock, per-device stats, eviction
    write-backs and wear -- without moving data; the caller reads the
    bytes through a zero-copy view afterwards.  Built once per
    :class:`~repro.kernels.core.Kernels` instance and cached on it.
    """
    if kern.read_charge is not None:
        return kern.read_charge
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
        media,
        wear,
    ) = _consts(kern)
    access_many = cache.access_many
    cache_lines = cache._lines
    move_to_end = cache_lines.move_to_end
    media_add = media.add
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
                media_add(victim)
                if wear is not None:
                    wear[victim] = wear.get(victim, 0) + 1
                ep_add(victim)
            stats.writebacks += len(evictions)
        if device:
            stats.device_ns += device
        clock.ns += total
        stats.read_ops += 1
        stats.bytes_read += size

    kern.read_charge = charge_read
    return charge_read


def scan_chunks(kern, *, data_offset: int, capacity: int, chunk: int = 512):
    """Yield per-chunk ``(keys, vals)`` lists of one table's occupied slots.

    Charge-identical to the scalar ``PHashTable.items`` scan: per chunk,
    one bulk status read, and -- only when the chunk holds occupied
    slots -- one bulk key read and one bulk value read, each charged by
    :func:`read_charger`.  Charges land before each ``yield``, so a
    partial drain leaves the same simulator state as a partial drain of
    the scalar generator.

    Data moves through the cached zero-copy views instead of
    ``mem.read`` copies, and occupied slots are gathered with numpy when
    available.
    """
    np_mod = kern.np
    st_mv, k_mv, v_mv = table_views(kern, data_offset, capacity)
    key_base = data_offset + capacity
    value_base = data_offset + capacity * 9
    charge_read = read_charger(kern)

    for start in range(0, capacity, chunk):
        n = min(chunk, capacity - start)
        charge_read(data_offset + start, n)
        statuses = bytes(st_mv[start : start + n])
        if _OCCUPIED not in statuses:
            continue
        charge_read(key_base + start * 8, n * 8)
        charge_read(value_base + start * 8, n * 8)
        end = start + n
        # The numpy gather pays ~3 fixed array setups; the find loop is
        # linear in the occupied count.  Crossover sits around a few
        # dozen live slots, so sparse chunks (the common case in the
        # bottom-up sweep's many small tables) stay on the find loop.
        if np_mod is not None and statuses.count(1) >= 48:
            idx = np_mod.flatnonzero(
                np_mod.frombuffer(statuses, dtype=np_mod.uint8) == 1
            )
            keys = np_mod.asarray(k_mv[start:end])[idx].tolist()
            vals = np_mod.asarray(v_mv[start:end])[idx].tolist()
        else:
            keys = []
            vals = []
            append_k = keys.append
            append_v = vals.append
            find = statuses.find
            i = find(1)
            while i >= 0:
                append_k(k_mv[start + i])
                append_v(v_mv[start + i])
                i = find(1, i + 1)
        yield keys, vals


def probe_batch(
    kern,
    *,
    data_offset: int,
    capacity: int,
    count: int,
    tombstones: int,
    load_limit: float,
    entries,
    mode: int,
    out: list | None = None,
    counter: list | None = None,
) -> int:
    """Run one ordered batch of probes; return the number of inserts.

    ``entries`` is a list of ``(home_slot, key, aux)`` in the exact order
    the scalar path would process them (stable home-slot order).  For
    ``GET``, ``aux`` is the index into ``out``; otherwise it is the delta
    (ADD) or value (PUT).  ``counter`` (a one-element list) receives the
    updated live count even when a :class:`CapacityError` is raised
    mid-batch, mirroring the scalar path's partially-updated state.
    """
    mem = kern.mem
    st_mv, k_mv, v_mv = table_views(kern, data_offset, capacity)
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
        wear,
    ) = _consts(kern)
    cpu_ns = clock.CPU_OP_NS
    cache_lines = cache._lines
    cache_cap = cache.capacity_lines
    popitem = cache_lines.popitem
    move_to_end = cache_lines.move_to_end
    dirty_add = dirty_lines.add
    ep_add = evict_programmed.add
    ep_discard = evict_programmed.discard
    media_add = media.add

    cns = clock.ns  # running copy: identical add sequence => identical bits
    dns = 0.0  # device_ns delta (integer-valued charges: grouping-safe)
    lml = _NO_LML if mem._last_media_line is None else mem._last_media_line
    hits = misses = writebacks = 0
    lines_r = lines_w = ops_r = ops_w = bytes_r = bytes_w = 0
    inserted = 0

    try:
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
                    hits += 1
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
                            media_add(victim)
                            if wear is not None:
                                wear[victim] = wear.get(victim, 0) + 1
                            ep_add(victim)
                    dns += cost
                    cns += cost
                    cache_lines[line] = False
                lines_r += 1
                ops_r += 1
                bytes_r += 1
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
                    hits += 1
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
                            media_add(victim)
                            if wear is not None:
                                wear[victim] = wear.get(victim, 0) + 1
                            ep_add(victim)
                    dns += cost
                    cns += cost
                    cache_lines[line] = False
                lines_r += 1
                ops_r += 1
                bytes_r += 8
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
                    # rmw_add(value_offset, 8, aux, signed=True) charge
                    if line in cache_lines:
                        move_to_end(line)
                        hits += 2
                        cns += 2.0
                    else:
                        misses += 1
                        hits += 1
                        cost = (seq_read_ns if line == lml + 1 else read_ns) + syscall
                        dcost = cost
                        cost += 1.0
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
                                media_add(victim)
                                if wear is not None:
                                    wear[victim] = wear.get(victim, 0) + 1
                                ep_add(victim)
                        dns += dcost
                        cns += cost
                    cache_lines[line] = True
                    dirty_add(line)
                    ep_discard(line)
                    lines_r += 1
                    lines_w += 1
                    ops_r += 1
                    ops_w += 1
                    bytes_r += 8
                    bytes_w += 8
                    v_mv[target] += aux
                elif mode == PUT:
                    # write_uint(value_offset, 8, aux, signed=True) charge
                    if line in cache_lines:
                        move_to_end(line)
                        hits += 1
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
                                media_add(victim)
                                if wear is not None:
                                    wear[victim] = wear.get(victim, 0) + 1
                                ep_add(victim)
                        if dcost:
                            dns += dcost
                        cns += cost
                    cache_lines[line] = True
                    dirty_add(line)
                    ep_discard(line)
                    lines_w += 1
                    ops_w += 1
                    bytes_w += 8
                    v_mv[target] = aux
                else:  # GET
                    # read_uint(value_offset, 8, signed=True) charge
                    if line in cache_lines:
                        move_to_end(line)
                        hits += 1
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
                                media_add(victim)
                                if wear is not None:
                                    wear[victim] = wear.get(victim, 0) + 1
                                ep_add(victim)
                        dns += cost
                        cns += cost
                        cache_lines[line] = False
                    lines_r += 1
                    ops_r += 1
                    bytes_r += 8
                    out[aux] = v_mv[target]
                continue

            if mode == GET:
                continue
            # _ensure_room (non-growable): raise at the load cap, with the
            # scalar path's partial state (prior inserts stand, charged).
            if count + tombstones + 1 > load_limit:
                raise CapacityError(
                    f"hash table at load cap (capacity {capacity}); size it "
                    "with the bottom-up upper bound or pass growable=True"
                )
            # _write_slot: status (1B), key (8B), value (8B) write_uint charges
            line = (data_offset + target) // line_size
            if line in cache_lines:
                move_to_end(line)
                hits += 1
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
                        media_add(victim)
                        if wear is not None:
                            wear[victim] = wear.get(victim, 0) + 1
                        ep_add(victim)
                if dcost:
                    dns += dcost
                cns += cost
            cache_lines[line] = True
            dirty_add(line)
            ep_discard(line)
            lines_w += 1
            ops_w += 1
            bytes_w += 1
            st_mv[target] = _OCCUPIED

            line = (key_base + target * 8) // line_size
            if line in cache_lines:
                move_to_end(line)
                hits += 1
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
                        media_add(victim)
                        if wear is not None:
                            wear[victim] = wear.get(victim, 0) + 1
                        ep_add(victim)
                if dcost:
                    dns += dcost
                cns += cost
            cache_lines[line] = True
            dirty_add(line)
            ep_discard(line)
            lines_w += 1
            ops_w += 1
            bytes_w += 8
            k_mv[target] = key

            line = (value_base + target * 8) // line_size
            if line in cache_lines:
                move_to_end(line)
                hits += 1
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
                        media_add(victim)
                        if wear is not None:
                            wear[victim] = wear.get(victim, 0) + 1
                        ep_add(victim)
                if dcost:
                    dns += dcost
                cns += cost
            cache_lines[line] = True
            dirty_add(line)
            ep_discard(line)
            lines_w += 1
            ops_w += 1
            bytes_w += 8
            v_mv[target] = aux

            count += 1
            inserted += 1
    finally:
        clock.ns = cns
        if dns:
            stats.device_ns += dns
        stats.cache_hits += hits
        stats.cache_misses += misses
        stats.writebacks += writebacks
        stats.lines_read += lines_r
        stats.lines_written += lines_w
        stats.read_ops += ops_r
        stats.write_ops += ops_w
        stats.bytes_read += bytes_r
        stats.bytes_written += bytes_w
        mem._last_media_line = None if lml == _NO_LML else lml
        if counter is not None:
            counter[0] = count
    return inserted
