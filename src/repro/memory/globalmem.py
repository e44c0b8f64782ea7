"""Functional global memory with exact binary32 atomic semantics.

All values live in typed numpy buffers.  Every floating-point atomic is
applied through :mod:`repro.fp.float32`, so the *order* in which atomics
reach memory changes the bitwise result exactly as on real hardware
(paper Section III-B).  The timing model decides *when* an atomic is
applied; this module defines *what* it does.

Addresses are byte addresses; every element is one 4-byte word.  Integer
buffers use 64-bit storage (the simulator does not model 32-bit
wraparound; workloads stay far from 2**31).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fp.float32 import f32_add

WORD_BYTES = 4

#: Base of the first allocation; address 0 is reserved as "null".
_HEAP_BASE = 0x1000

_I64 = np.dtype(np.int64)
_or_reduce = np.bitwise_or.reduce


@dataclass(frozen=True)
class AtomicOp:
    """A single atomic operation destined for one word of memory.

    ``opcode`` is the mini-PTX suffix, e.g. ``add.f32`` / ``max.s32`` /
    ``exch.s32`` / ``cas.s32``.  ``operands`` carries (value,) for most
    ops and (compare, value) for CAS.
    """

    addr: int
    opcode: str
    operands: Tuple[float, ...]

    @property
    def is_reduction(self) -> bool:
        """True if the op is a pure reduction (fusable by DAB)."""
        return self.opcode.split(".")[0] in ("add", "min", "max")


class _Buffer:
    __slots__ = ("name", "base", "data", "is_float")

    def __init__(self, name: str, base: int, data: np.ndarray, is_float: bool):
        self.name = name
        self.base = base
        self.data = data
        self.is_float = is_float

    @property
    def end(self) -> int:
        return self.base + len(self.data) * WORD_BYTES


class CommitRecorder:
    """Records every atomic committed through :meth:`GlobalMemory.apply_atomic`.

    Attach via ``mem.commit_log = CommitRecorder()`` before a run; the
    conformance harness (:mod:`repro.check`) compares the resulting op
    multiset against the reference oracle's.  Because *all* commit paths
    (baseline ROP, DAB flush application, GPUDet serial atomics) funnel
    through ``apply_atomic``, the recorder sees the true commit stream
    regardless of architecture.  When ``obs`` is set and wants the
    ``commit`` category, each commit is also emitted as a cycle-stamped
    trace event so mismatches can be attributed to a commit cycle.
    """

    __slots__ = ("ops", "obs")

    def __init__(self, obs=None):
        self.ops: List[AtomicOp] = []
        self.obs = obs

    def record(self, op: AtomicOp) -> None:
        self.ops.append(op)
        obs = self.obs
        if obs is not None and obs.wants("commit"):
            obs.emit("commit", "apply", addr=op.addr, op=op.opcode,
                     args=[float(v) for v in op.operands])

    def reductions(self) -> List[AtomicOp]:
        """Only the fusable reduction ops (``add``/``min``/``max``)."""
        return [op for op in self.ops if op.is_reduction]


class GlobalMemory:
    """Flat byte-addressed memory composed of named typed buffers."""

    def __init__(self) -> None:
        self._buffers: List[_Buffer] = []
        self._bases: List[int] = []
        self._by_name: Dict[str, _Buffer] = {}
        self._next_base = _HEAP_BASE
        #: optional CommitRecorder observing every applied atomic.
        self.commit_log: Optional[CommitRecorder] = None

    # -- allocation -----------------------------------------------------
    def alloc(self, name: str, n: int, dtype: str = "f32", init=None) -> int:
        """Allocate ``n`` words; returns the base byte address.

        ``dtype`` is ``"f32"`` or ``"s32"``.  Buffers are aligned to a
        128-byte cache line so that sector behaviour matches layout.
        """
        if name in self._by_name:
            raise ValueError(f"buffer {name!r} already allocated")
        if n <= 0:
            raise ValueError("buffer size must be positive")
        if dtype == "f32":
            data = np.zeros(n, dtype=np.float32)
            is_float = True
        elif dtype in ("s32", "s64"):
            data = np.zeros(n, dtype=np.int64)
            is_float = False
        else:
            raise ValueError(f"unsupported dtype {dtype!r}")
        if init is not None:
            arr = np.asarray(init)
            if arr.shape != (n,):
                raise ValueError("init shape mismatch")
            data[:] = arr.astype(data.dtype)
        base = self._next_base
        buf = _Buffer(name, base, data, is_float)
        self._buffers.append(buf)
        self._bases.append(base)
        self._by_name[name] = buf
        end = base + n * WORD_BYTES
        self._next_base = (end + 127) // 128 * 128  # line-align next buffer
        return base

    def buffer(self, name: str) -> np.ndarray:
        """Direct (host-side) view of a buffer's storage."""
        return self._by_name[name].data

    def base_of(self, name: str) -> int:
        return self._by_name[name].base

    def buffer_names(self) -> List[str]:
        """All buffer names in allocation order."""
        return [b.name for b in self._buffers]

    def is_float_buffer(self, name: str) -> bool:
        return self._by_name[name].is_float

    def locate(self, addr: int) -> Tuple[str, int]:
        """Map a byte address to ``(buffer name, word index)``."""
        buf, idx = self._locate(int(addr))
        return buf.name, idx

    # -- address resolution ----------------------------------------------
    def _locate(self, addr: int) -> Tuple[_Buffer, int]:
        if addr % WORD_BYTES:
            raise ValueError(f"unaligned word address {addr:#x}")
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            raise ValueError(f"address {addr:#x} below heap")
        buf = self._buffers[i]
        if addr >= buf.end:
            raise ValueError(f"address {addr:#x} out of bounds (after {buf.name!r})")
        return buf, (addr - buf.base) // WORD_BYTES

    # -- scalar access ----------------------------------------------------
    def load(self, addr: int) -> float:
        buf, idx = self._locate(int(addr))
        return buf.data[idx]

    def store(self, addr: int, value) -> None:
        buf, idx = self._locate(int(addr))
        buf.data[idx] = value

    # -- vector access (per-warp lanes) ------------------------------------
    def load_many(self, addrs: np.ndarray) -> np.ndarray:
        """Gather; returns float64 array of raw values (caller casts).

        Warp lanes overwhelmingly hit one buffer: an int64 address array
        whose lanes all lie in the buffer of its lowest address and are
        word-aligned is gathered with one index.  Anything else goes
        run by run, lane by lane, and raises at the first bad lane.
        """
        if isinstance(addrs, np.ndarray):
            addr_list = addrs.tolist()
            if addr_list and addrs.dtype is _I64:
                i = bisect_right(self._bases, min(addr_list)) - 1
                if i >= 0:
                    buf = self._buffers[i]
                    # (4-byte words: two low address bits, shift by 2)
                    if max(addr_list) < buf.end and not _or_reduce(addrs) & 3:
                        return buf.data.take(
                            (addrs - buf.base) >> 2).astype(np.float64)
        else:
            addr_list = [int(a) for a in addrs]
        n = len(addr_list)
        out = np.empty(n, dtype=np.float64)
        i = 0
        while i < n:
            # Warp lanes overwhelmingly hit one buffer: locate the run's
            # first address, extend the run while it stays in bounds, and
            # gather the whole run with one fancy index.
            buf, _ = self._locate(addr_list[i])
            base, end = buf.base, buf.end
            j = i + 1
            while j < n and base <= addr_list[j] < end:
                j += 1
            idxs = []
            for a in addr_list[i:j]:
                if a % WORD_BYTES:
                    raise ValueError(f"unaligned word address {a:#x}")
                idxs.append((a - base) // WORD_BYTES)
            out[i:j] = buf.data[idxs]
            i = j
        return out

    def store_many(self, addrs: np.ndarray, values: np.ndarray) -> None:
        for a, v in zip(addrs, values):
            self.store(int(a), v)

    # -- atomics -----------------------------------------------------------
    def apply_atomic(self, op: AtomicOp) -> float:
        """Apply one atomic op, returning the *old* value.

        f32 adds round to binary32 per operation; min/max are exact.
        """
        buf, idx = self._locate(op.addr)
        old = buf.data[idx]
        root, dtype = op.opcode.split(".")
        if root == "add":
            if dtype == "f32":
                buf.data[idx] = f32_add(old, op.operands[0])
            else:
                buf.data[idx] = int(old) + int(op.operands[0])
        elif root == "min":
            buf.data[idx] = min(old, _coerce(op.operands[0], dtype))
        elif root == "max":
            buf.data[idx] = max(old, _coerce(op.operands[0], dtype))
        elif root == "exch":
            buf.data[idx] = _coerce(op.operands[0], dtype)
        elif root == "cas":
            compare, val = op.operands
            if old == _coerce(compare, dtype):
                buf.data[idx] = _coerce(val, dtype)
        elif root == "inc":
            buf.data[idx] = int(old) + 1
        else:
            raise ValueError(f"unsupported atomic opcode {op.opcode!r}")
        if self.commit_log is not None:
            self.commit_log.record(op)
        return old

    # -- determinism auditing ----------------------------------------------
    def snapshot_digest(self, names: Optional[List[str]] = None) -> str:
        """SHA-256 of the bitwise contents of the named (or all) buffers.

        Two runs are bitwise identical iff digests match — this is the
        determinism check used throughout tests and examples.
        """
        h = hashlib.sha256()
        for buf in self._buffers:
            if names is not None and buf.name not in names:
                continue
            h.update(buf.name.encode())
            h.update(buf.data.tobytes())
        return h.hexdigest()


def _coerce(value, dtype: str):
    if dtype == "f32":
        return np.float32(value)
    return int(value)
