"""Backend-neutral bulk kernels: typed views, gathers, pending-add apply.

Everything here follows the package's charge-from-plan / execute-vectorized
contract (see the package docstring).  Functions that take raw ``bytes``
returned by ``SimulatedMemory.read`` are pure data movement -- the charge
was paid by the read.  Functions that touch ``mem._buf`` directly document
which scalar call sequence their charging replicates.
"""

from __future__ import annotations

import struct
import sys
from array import array

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Below this many sites the numpy pending-add apply costs more than the
#: plain Python codec loop it replaces.
_PEND_NP_MIN = 64

#: Magnitude cap that keeps u64/i64 pending-add arithmetic exact in int64.
_SAFE_MAG = 1 << 62


def _resolve_typecodes() -> dict[tuple[int, bool], str]:
    table: dict[tuple[int, bool], str] = {}
    for code in "BHILQ":
        table.setdefault((array(code).itemsize, False), code)
    for code in "bhilq":
        table.setdefault((array(code).itemsize, True), code)
    return table


_TYPECODES = _resolve_typecodes()


def typed_array(raw: bytes, elem_size: int, signed: bool = False):
    """View ``raw`` little-endian bytes as a typed sequence of integers.

    Returns an ``array.array`` (one C-level ``frombytes``, no per-element
    Python work).  Falls back to a list via :mod:`struct` on platforms
    without a matching typecode.
    """
    code = _TYPECODES.get((elem_size, signed))
    if code is None:  # pragma: no cover - no such CPython platform known
        fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[elem_size]
        return list(struct.unpack(f"<{len(raw) // elem_size}{fmt.upper() if not signed else fmt}", raw))
    out = array(code)
    out.frombytes(raw)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
        out.byteswap()
    return out


def pack_values(values, elem_size: int, signed: bool = False) -> bytes:
    """Little-endian bytes for a sequence of integers, in one C call."""
    code = _TYPECODES.get((elem_size, signed))
    if code is not None and isinstance(values, array) and values.typecode == code:
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            swapped = array(code, values)
            swapped.byteswap()
            return swapped.tobytes()
        return values.tobytes()
    if code is not None:
        out = array(code, values)
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            out.byteswap()
        return out.tobytes()
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[elem_size]  # pragma: no cover
    fmt = fmt if signed else fmt.upper()  # pragma: no cover
    return struct.pack(f"<{len(values)}{fmt}", *values)  # pragma: no cover


def select_occupied(statuses: bytes, keys_raw: bytes, vals_raw: bytes, np_mod):
    """Extract (keys, values) of occupied slots from one table chunk.

    Pure data movement over bytes already read (and charged) by the
    caller.  numpy path for large chunks, ``bytes.find`` + one bulk
    unpack otherwise.
    """
    n = len(statuses)
    if np_mod is not None and n >= 256:
        idx = np_mod.flatnonzero(np_mod.frombuffer(statuses, dtype=np_mod.uint8) == 1)
        keys = np_mod.frombuffer(keys_raw, dtype="<u8")[idx].tolist()
        vals = np_mod.frombuffer(vals_raw, dtype="<i8")[idx].tolist()
        return keys, vals
    all_keys = struct.unpack(f"<{n}Q", keys_raw)
    all_vals = struct.unpack(f"<{n}q", vals_raw)
    keys: list[int] = []
    vals: list[int] = []
    append_k = keys.append
    append_v = vals.append
    find = statuses.find
    i = find(1)
    while i >= 0:
        append_k(all_keys[i])
        append_v(all_vals[i])
        i = find(1, i + 1)
    return keys, vals


class Kernels:
    """Bulk kernels bound to one :class:`~repro.nvm.memory.SimulatedMemory`.

    ``np`` is the numpy module or ``None`` (pure-python backend); every
    method degrades to a stdlib implementation when it is ``None``, so the
    two backends differ only in wall-clock.
    """

    __slots__ = ("mem", "np", "consts", "read_charge")

    def __init__(self, mem, np_mod) -> None:
        self.mem = mem
        self.np = np_mod
        #: Lazily-built tuple of per-device invariants (profile costs and
        #: the memory's singleton cache/stats/clock objects) hoisted once
        #: instead of per kernel call; see repro.kernels.hashops._consts.
        self.consts: tuple | None = None
        #: Lazily-built (plain, seal-verifying) read-charge routines
        #: shared by every kernel that reads device data (see
        #: repro.kernels.hashops.read_charger).
        self.read_charge = None

    # -- contiguous typed transfers ------------------------------------

    def read_typed(self, offset: int, count: int, elem_size: int, signed: bool = False):
        """Charge like ``mem.read(offset, count*elem_size)``; one bulk move."""
        raw = self.mem.read(offset, count * elem_size)
        return typed_array(raw, elem_size, signed)

    def write_typed(self, offset: int, values, elem_size: int, signed: bool = False) -> None:
        """Charge like ``mem.write`` of the packed bytes; one bulk move."""
        self.mem.write(offset, pack_values(values, elem_size, signed))

    # -- scattered pending-add apply (rmw_add_each execute half) -------

    def apply_pending_adds(self, pend: dict, size: int, signed: bool) -> bool:
        """Apply ``offset -> accumulated delta`` buffer updates in bulk.

        The charge for every visit was already paid by the caller's
        per-site loop (``SimulatedMemory.rmw_add_each``); this is only the
        deferred execute half.  Returns ``False`` when the numpy path
        cannot guarantee the scalar path's exact overflow behaviour (the
        caller then runs its Python codec loop, which raises on
        out-of-range values exactly like repeated ``rmw_add`` calls).
        """
        np = self.np
        if np is None or len(pend) < _PEND_NP_MIN or size not in (4, 8):
            return False
        n = len(pend)
        offs = np.fromiter(pend.keys(), dtype=np.int64, count=n)
        try:
            deltas = np.fromiter(pend.values(), dtype=np.int64, count=n)
        except OverflowError:
            return False
        if (offs % size).any():
            return False
        if abs(deltas).max() > _SAFE_MAG:
            return False
        dtype = np.dtype(
            {(4, False): "<u4", (4, True): "<i4", (8, False): "<u8", (8, True): "<i8"}[
                (size, signed)
            ]
        )
        mem = self.mem
        view = np.frombuffer(mem._buf, dtype=dtype, count=mem.size // size)
        idx = offs // size
        old = view[idx]
        if size == 8 and not signed and int(old.max()) > _SAFE_MAG:
            return False
        new = old.astype(np.int64) + deltas
        low = np.iinfo(dtype).min if signed else 0
        if size == 8 and not signed:
            # Exactness guards above keep sums < 2**63, always below u64 max.
            high = None
        else:
            high = int(np.iinfo(dtype).max)
        if int(new.min()) < low or (high is not None and int(new.max()) > high):
            return False
        view[idx] = new
        return True
