"""Per-warp functional execution engine.

A :class:`Warp` owns a lane-parallel register file (numpy vectors, one
element per lane), a SIMT reconvergence stack and a program counter.
``step()`` executes exactly one instruction *functionally* and returns a
:class:`StepResult` describing everything the timing model needs: the
instruction's class, the memory sectors it touches, and any atomic
operations it produced.

Timing/functional split (documented simplification, see DESIGN.md §5):

* loads and stores take effect at issue; the warp still pays the full
  memory round-trip in the timing model.  This is safe because the paper
  (and DAB) assume data-race-free programs — non-atomic values cannot
  depend on timing.
* ``red``/``atom`` atomics do NOT take effect here.  They are returned
  as :class:`repro.memory.globalmem.AtomicOp` records and applied by the
  ROP/atomic-buffer machinery at a time and in an order the architecture
  chooses — that ordering is precisely what DAB makes deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.isa import Instr, OpClass, Program
from repro.arch.kernel import CTA, Kernel
from repro.arch.simt_stack import SIMTStack
from repro.memory.globalmem import AtomicOp, GlobalMemory

SECTOR_BYTES = 32

#: (Warp slot, WarpSlabs attribute) of each timing field stored in rows.
_ROW_CELLS = (
    ("_rc", "ready_cycle"), ("_ol", "out_loads"), ("_oa", "out_atoms"),
    ("_bar", "at_barrier"), ("_act", "active"), ("_pc", "pc"),
)


@dataclass
class MemRequestSpec:
    """Timing-level description of one warp memory instruction."""

    kind: str                       # "load" | "store" | "red" | "atom"
    sectors: Tuple[int, ...] = ()   # unique sector base addresses
    #: for red: AtomicOps in increasing-lane order (paper IV-B).
    red_ops: Tuple[AtomicOp, ...] = ()
    #: for atom: (lane, AtomicOp) pairs plus the destination register.
    atom_ops: Tuple[Tuple[int, AtomicOp], ...] = ()
    atom_dst: Optional[str] = None
    #: exact per-lane word addresses / global thread ids of the active
    #: lanes, captured only when ``Warp.capture_addrs`` is set (the race
    #: certifier's ``access`` trace needs word-granular addresses, which
    #: the sector list cannot recover).
    addrs: Tuple[int, ...] = ()
    gtids: Tuple[int, ...] = ()


@dataclass
class StepResult:
    """What one functional step produced, for the timing model."""

    instr: Instr
    op_class: OpClass
    active_lanes: int
    mem: Optional[MemRequestSpec] = None
    barrier: bool = False
    fence: bool = False
    exited: bool = False
    sleep_cycles: int = 0


class Warp:
    """One hardware warp executing a kernel."""

    __slots__ = (
        "uid", "sm_id", "scheduler_id", "hw_slot", "batch",
        "cta", "warp_id_in_cta", "warp_size", "program", "regs", "stack",
        "outstanding_stores", "buffered_reds", "_exited", "dyn_instrs",
        "dyn_atomics", "sleep_until", "launched_cycle", "fence_arrived_at",
        "_red_cache", "capture_addrs",
        "_rc", "_ol", "_oa", "_bar", "_act", "_pc", "_row", "_col", "_slabs",
    )

    def __init__(
        self,
        uid: int,
        cta: CTA,
        warp_id_in_cta: int,
        warp_size: int,
        sm_id: int = -1,
        scheduler_id: int = -1,
        hw_slot: int = -1,
    ):
        self.uid = uid
        self.cta = cta
        self.warp_id_in_cta = warp_id_in_cta
        self.warp_size = warp_size
        self.sm_id = sm_id
        self.scheduler_id = scheduler_id
        self.hw_slot = hw_slot
        self.batch = cta.batch
        self.program: Program = cta.kernel.program

        first_thread = warp_id_in_cta * warp_size
        lanes = np.arange(warp_size)
        in_cta = (first_thread + lanes) < cta.kernel.cta_dim
        if not in_cta.any():
            raise ValueError("warp has no live threads")
        self.stack = SIMTStack(warp_size, 0, in_cta)

        self.regs: Dict[str, np.ndarray] = {}
        self._init_special_registers(first_thread, lanes, in_cta)

        # Timing-model state (owned by the SM).  ready_cycle, the load
        # and atomic counters, at_barrier and the active/pc cells are
        # stored only in row lists (repro.sim.soa), read and written
        # through the properties below at index _col.  A standalone
        # warp — the ISA oracle, the model checker, unit tests — owns
        # one-cell rows; bind_slab moves a placed warp into its
        # scheduler's rows at its hardware slot.
        self._rc = [0]
        self._ol = [0]
        self._oa = [0]
        self._bar = [False]
        self._act = [True]
        self._pc = [self.stack.pc]
        self._row = 0
        self._col = 0
        #: the bound rows' WarpSlabs (None while standalone).
        self._slabs = None
        self._exited = False
        #: stores in flight (baseline barriers and fences wait on them).
        self.outstanding_stores = 0
        #: reds inserted into a DAB buffer since the last flush; a CTA
        #: barrier whose warps all have 0 here needs no fence flush.
        self.buffered_reds = 0
        self.sleep_until = 0
        self.launched_cycle = 0
        self.fence_arrived_at = 0
        self.dyn_instrs = 0
        self.dyn_atomics = 0
        self._red_cache = None  # (dyn_instrs, pc, ops) memo for peek_red_ops
        #: when True, memory StepResults carry exact per-lane addresses
        #: and gtids (race-certification tracing; off on the hot path).
        self.capture_addrs = False

    # ------------------------------------------------------------------
    def _init_special_registers(self, first_thread: int, lanes: np.ndarray, in_cta) -> None:
        k: Kernel = self.cta.kernel
        tid = first_thread + lanes
        self.regs["%laneid"] = lanes.astype(np.int64)
        self.regs["%tid"] = tid.astype(np.int64)
        self.regs["%ctaid"] = np.full(self.warp_size, self.cta.cta_id, dtype=np.int64)
        self.regs["%ntid"] = np.full(self.warp_size, k.cta_dim, dtype=np.int64)
        self.regs["%nctaid"] = np.full(self.warp_size, k.grid_dim, dtype=np.int64)
        self.regs["%gtid"] = (self.cta.cta_id * k.cta_dim + tid).astype(np.int64)
        self.regs["%warpid"] = np.full(self.warp_size, self.warp_id_in_cta, dtype=np.int64)
        for name, value in k.params.items():
            if isinstance(value, bool):
                raise ValueError("bool kernel params are ambiguous; use int")
            if isinstance(value, (int, np.integer)):
                self.regs[name] = np.full(self.warp_size, int(value), dtype=np.int64)
            else:
                self.regs[name] = np.full(self.warp_size, np.float32(value), dtype=np.float32)

    # ------------------------------------------------------------------
    # Row cells (DESIGN §16).  These setters and bind_slab are the only
    # writers of a bound warp's timing cells (step refreshes just the
    # active/pc caches), and the only place the fast engine learns of a
    # change: each write dirties the warp's scheduler, puts its SM on
    # the visit agenda and, while the warp is eligible to wake by time
    # alone (live, not at a barrier, nothing outstanding), pushes its
    # ready_cycle onto the lazy warp_wake heap.
    # ------------------------------------------------------------------
    def bind_slab(self, slabs, row: int, col: int) -> None:
        """Move the timing cells into ``slabs`` row ``row``, slot ``col``."""
        c = self._col
        for slot, name in _ROW_CELLS:
            cells = getattr(slabs, name)[row]
            cells[col] = getattr(self, slot)[c]
            setattr(self, slot, cells)
        self._row = row
        self._col = col
        self._slabs = slabs
        self._wrote(col)

    def unbind_slab(self) -> None:
        """Copy the timing cells out into one-cell rows of this warp's
        own (called before the hardware slot is reused — late acks may
        still land on this warp object, and must not write into the new
        occupant's cells)."""
        c = self._col
        for slot, _name in _ROW_CELLS:
            setattr(self, slot, [getattr(self, slot)[c]])
        self._row = 0
        self._col = 0
        self._slabs = None

    def _wrote(self, c: int) -> None:
        """Record a write of cell ``c`` for the fast engine (no-op while
        standalone)."""
        slabs = self._slabs
        if slabs is None:
            return
        r = self._row
        slabs.sched_dirty[r] = True
        slabs.visit_dirty.add(self.sm_id)
        if (self._act[c] and not self._bar[c]
                and self._ol[c] == 0 and self._oa[c] == 0):
            heappush(slabs.warp_wake, (self._rc[c], r, c))

    @property
    def ready_cycle(self) -> int:
        return self._rc[self._col]

    @ready_cycle.setter
    def ready_cycle(self, v: int) -> None:
        c = self._col
        self._rc[c] = v
        self._wrote(c)

    @property
    def outstanding_loads(self) -> int:
        return self._ol[self._col]

    @outstanding_loads.setter
    def outstanding_loads(self, v: int) -> None:
        c = self._col
        self._ol[c] = v
        self._wrote(c)

    @property
    def outstanding_atoms(self) -> int:
        return self._oa[self._col]

    @outstanding_atoms.setter
    def outstanding_atoms(self, v: int) -> None:
        c = self._col
        self._oa[c] = v
        self._wrote(c)

    @property
    def at_barrier(self) -> bool:
        return self._bar[self._col]

    @at_barrier.setter
    def at_barrier(self, v: bool) -> None:
        c = self._col
        self._bar[c] = v
        self._wrote(c)

    @property
    def exited(self) -> bool:
        return self._exited

    @exited.setter
    def exited(self, v: bool) -> None:
        self._exited = v
        c = self._col
        if v:
            self._act[c] = False
        self._wrote(c)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._exited or self.stack.done

    @property
    def pc(self) -> int:
        return self.stack.pc

    def peek(self) -> Optional[Instr]:
        """Next instruction to issue (None once the warp has finished)."""
        if self.done:
            return None
        return self.program.instrs[self.stack.pc]

    def next_is_atomic(self) -> bool:
        """Used by determinism-aware schedulers (GTRR/GTAR/GWAT)."""
        # Inlined peek(): this runs once per live slot per status
        # snapshot, the hottest read in the issue path.
        if self.exited or self.stack.done:
            return False
        return self.program.instrs[self.stack.pc].atomic

    def peek_red_ops(self) -> Tuple[AtomicOp, ...]:
        """Dry-run the next ``red``'s lane ops without executing it.

        Used by the SM's atomic-issue gate: DAB must know whether the
        buffer can accept the whole warp request *before* issuing
        (paper IV-B: "An atomic is executed provided sufficient space
        exists").  The result is memoized per dynamic instruction —
        registers cannot change while the warp is stalled at this PC.
        """
        ins = self.peek()
        if ins is None or ins.op_class is not OpClass.MEM_RED:
            return ()
        if self._red_cache is not None:
            n, pc, ops = self._red_cache
            if n == self.dyn_instrs and pc == self.stack.pc:
                return ops
        dtype = ins.dtype
        op_suffix = ins.op_suffix
        mask = self._effective_mask(ins)
        lane_ids = np.nonzero(mask)[0]
        addrs = self._mem_addresses(ins)
        vals = self._read(ins.srcs[0], dtype)
        ops = tuple(
            AtomicOp(a, op_suffix, (v,))
            for a, v in zip(addrs[lane_ids].tolist(),
                            _scalar_list(vals, lane_ids))
        )
        self._red_cache = (self.dyn_instrs, self.stack.pc, ops)
        return ops

    # -- operand helpers -------------------------------------------------
    def _read(self, operand, dtype: Optional[str] = None) -> np.ndarray:
        if isinstance(operand, str):
            try:
                arr = self.regs[operand]
            except KeyError:
                raise KeyError(
                    f"register {operand!r} read before write in {self.cta.kernel.name}"
                ) from None
        else:
            if isinstance(operand, float) or dtype == "f32":
                arr = np.full(self.warp_size, np.float32(operand), dtype=np.float32)
            else:
                arr = np.full(self.warp_size, int(operand), dtype=np.int64)
            return arr
        if dtype == "f32" and arr.dtype != np.float32:
            return arr.astype(np.float32)
        if dtype in ("s32", "u32", "b32", "s64") and arr.dtype != np.int64:
            if arr.dtype == np.bool_:
                return arr.astype(np.int64)
            return arr.astype(np.int64)
        return arr

    def _write(self, dst: str, values: np.ndarray, mask: np.ndarray) -> None:
        cur = self.regs.get(dst)
        if cur is None or cur.dtype != values.dtype:
            base = np.zeros(self.warp_size, dtype=values.dtype)
            if cur is not None:
                base[:] = cur.astype(values.dtype)
            cur = base
            self.regs[dst] = cur
        cur[mask] = values[mask]

    def _effective_mask(self, ins: Instr) -> np.ndarray:
        mask = self.stack.active_mask
        if ins.guard is not None:
            pred = self._read(ins.guard)
            if pred.dtype != np.bool_:
                pred = pred != 0
            mask = np.logical_and(mask, ~pred if ins.guard_negated else pred)
        return mask

    # ------------------------------------------------------------------
    def step(self, mem: GlobalMemory) -> StepResult:
        """Execute one instruction functionally; advance the SIMT stack.

        The ``pc``/``active`` cells are refreshed here (not in the SM)
        because GPUDet's serial commit mode steps warps directly,
        bypassing ``SM._issue``.
        """
        result = self._step(mem)
        st = self.stack
        if st.done:
            self._act[self._col] = False
        else:
            self._pc[self._col] = st.pc
        return result

    def _step(self, mem: GlobalMemory) -> StepResult:
        if self.done:
            raise RuntimeError("step() on a finished warp")
        ins = self.program.instrs[self.stack.pc]
        mask = self._effective_mask(ins)
        active = int(np.count_nonzero(mask))
        self.dyn_instrs += 1
        oc = ins.op_class

        # Guarded-off non-branch instructions become nops.
        if active == 0 and oc not in (OpClass.BRANCH, OpClass.EXIT):
            self.stack.advance()
            return StepResult(ins, OpClass.NOP, 0)

        if oc is OpClass.BRANCH:
            if ins.guard is None:
                self.stack.jump(ins.target_pc)
            else:
                self.stack.branch(mask, ins.target_pc, ins.reconv_pc)
            return StepResult(ins, oc, active)

        if oc is OpClass.EXIT:
            self.stack.exit_lanes(mask if ins.guard is not None else None)
            exited = self.stack.done
            if not exited:
                # Some lanes survive (guarded exit); they continue.
                pass
            return StepResult(ins, oc, active, exited=exited)

        if oc is OpClass.BARRIER:
            self.stack.advance()
            return StepResult(ins, oc, active, barrier=True)

        if oc is OpClass.FENCE:
            self.stack.advance()
            return StepResult(ins, oc, active, fence=True)

        if oc is OpClass.NOP:
            self.stack.advance()
            return StepResult(ins, oc, active)

        if oc is OpClass.SLEEP:
            if ins.srcs:
                vals = self._read(ins.srcs[0])
                cycles = int(vals[mask].max()) if active else 1
            else:
                cycles = 1
            self.stack.advance()
            return StepResult(ins, oc, active, sleep_cycles=max(1, cycles))

        if oc in (OpClass.ALU, OpClass.SFU):
            self._exec_alu(ins, mask)
            self.stack.advance()
            return StepResult(ins, oc, active)

        # Memory operations.
        dtype = ins.dtype
        addrs = self._mem_addresses(ins)
        lane_ids = np.nonzero(mask)[0]
        act_addrs = addrs[lane_ids]
        addr_list = act_addrs.tolist()
        sectors = tuple(sorted({a // SECTOR_BYTES * SECTOR_BYTES
                                for a in addr_list}))

        if oc is OpClass.MEM_LOAD:
            raw = mem.load_many(act_addrs)
            vals = np.zeros(self.warp_size, dtype=np.float32 if dtype == "f32" else np.int64)
            vals[lane_ids] = raw.astype(vals.dtype)
            self._write(ins.dst, vals, mask)
            spec = MemRequestSpec(kind="load", sectors=sectors)
        elif oc is OpClass.MEM_STORE:
            vals = self._read(ins.srcs[0], dtype)
            mem.store_many(act_addrs, vals[lane_ids])
            spec = MemRequestSpec(kind="store", sectors=sectors)
        elif oc is OpClass.MEM_RED:
            op_suffix = ins.op_suffix  # e.g. "add.f32"
            vals = self._read(ins.srcs[0], dtype)
            red_ops = tuple(
                AtomicOp(a, op_suffix, (v,))
                for a, v in zip(addr_list, _scalar_list(vals, lane_ids))
            )
            self.dyn_atomics += 1
            spec = MemRequestSpec(kind="red", sectors=sectors, red_ops=red_ops)
        else:  # MEM_ATOM
            op_suffix = ins.op_suffix
            atom_root = ins.parts[2]
            lanes_list = lane_ids.tolist()
            if atom_root == "cas":
                cmp_v = self._read(ins.srcs[0], dtype)
                val_v = self._read(ins.srcs[1], dtype)
                ops = tuple(
                    (l, AtomicOp(a, op_suffix, (cv, vv)))
                    for l, a, cv, vv in zip(
                        lanes_list, addr_list,
                        _scalar_list(cmp_v, lane_ids),
                        _scalar_list(val_v, lane_ids))
                )
            elif atom_root == "inc":
                ops = tuple(
                    (l, AtomicOp(a, op_suffix, (1,)))
                    for l, a in zip(lanes_list, addr_list)
                )
            else:
                val_v = self._read(ins.srcs[0], dtype)
                ops = tuple(
                    (l, AtomicOp(a, op_suffix, (v,)))
                    for l, a, v in zip(lanes_list, addr_list,
                                       _scalar_list(val_v, lane_ids))
                )
            self.dyn_atomics += 1
            spec = MemRequestSpec(kind="atom", sectors=sectors, atom_ops=ops,
                                  atom_dst=ins.dst)

        if self.capture_addrs:
            gtid = self.regs["%gtid"]
            spec.addrs = tuple(addr_list)
            spec.gtids = tuple(gtid[lane_ids].tolist())

        self.stack.advance()
        return StepResult(ins, oc, active, mem=spec)

    # ------------------------------------------------------------------
    def _mem_addresses(self, ins: Instr) -> np.ndarray:
        m = ins.mem
        assert m is not None
        if m.reg is None:
            return np.full(self.warp_size, m.offset, dtype=np.int64)
        base = self._read(m.reg, "s64")
        return base + m.offset

    def write_atom_result(self, dst: str, lane: int, value) -> None:
        """Deliver a returning atomic's old-value into a lane (at response)."""
        cur = self.regs.get(dst)
        dtype = np.float32 if isinstance(value, (float, np.floating)) else np.int64
        if cur is None or (cur.dtype != dtype):
            base = np.zeros(self.warp_size, dtype=dtype)
            if cur is not None:
                base[:] = cur.astype(dtype)
            cur = base
            self.regs[dst] = cur
        cur[lane] = value

    # ------------------------------------------------------------------
    def _exec_alu(self, ins: Instr, mask: np.ndarray) -> None:
        parts = ins.parts
        root = ins.root
        dtype = ins.alu_dtype

        if root == "mov":
            src = self._read(ins.srcs[0], dtype)
            self._write(ins.dst, src.copy(), mask)
            return
        if root == "setp":
            cmp_op = parts[1]
            a = self._read(ins.srcs[0], parts[2])
            b = self._read(ins.srcs[1], parts[2])
            res = _COMPARES[cmp_op](a, b)
            self._write(ins.dst, res, mask)
            return
        if root == "selp":
            a = self._read(ins.srcs[0], dtype)
            b = self._read(ins.srcs[1], dtype)
            p = self._read(ins.srcs[2])
            if p.dtype != np.bool_:
                p = p != 0
            self._write(ins.dst, np.where(p, a, b).astype(a.dtype), mask)
            return
        if root == "cvt":
            to_t, from_t = parts[1], parts[2]
            src = self._read(ins.srcs[0], from_t)
            if to_t == "f32":
                self._write(ins.dst, src.astype(np.float32), mask)
            else:
                self._write(ins.dst, np.trunc(src).astype(np.int64), mask)
            return
        if root == "not":
            p = self._read(ins.srcs[0])
            if p.dtype != np.bool_:
                p = p != 0
            self._write(ins.dst, ~p, mask)
            return
        if dtype == "pred" and root in ("and", "or", "xor"):
            a = self._read(ins.srcs[0])
            b = self._read(ins.srcs[1])
            if a.dtype != np.bool_:
                a = a != 0
            if b.dtype != np.bool_:
                b = b != 0
            if root == "and":
                res = a & b
            elif root == "or":
                res = a | b
            else:
                res = a ^ b
            self._write(ins.dst, res, mask)
            return
        if root in ("fma", "mad"):
            if dtype == "f32":
                a = self._read(ins.srcs[0], "f32").astype(np.float64)
                b = self._read(ins.srcs[1], "f32").astype(np.float64)
                c = self._read(ins.srcs[2], "f32").astype(np.float64)
                self._write(ins.dst, (a * b + c).astype(np.float32), mask)
            else:
                a = self._read(ins.srcs[0], "s64")
                b = self._read(ins.srcs[1], "s64")
                c = self._read(ins.srcs[2], "s64")
                self._write(ins.dst, a * b + c, mask)
            return
        if root == "abs":
            src = self._read(ins.srcs[0], dtype)
            self._write(ins.dst, np.abs(src), mask)
            return

        a = self._read(ins.srcs[0], dtype)
        b = self._read(ins.srcs[1], dtype)
        if dtype == "f32":
            a64, b64 = a.astype(np.float64), b.astype(np.float64)
            if root == "add":
                res = (a64 + b64).astype(np.float32)
            elif root == "sub":
                res = (a64 - b64).astype(np.float32)
            elif root == "mul":
                res = (a64 * b64).astype(np.float32)
            elif root == "div":
                res = np.divide(a64, b64, out=np.zeros_like(a64),
                                where=b64 != 0).astype(np.float32)
            elif root == "min":
                res = np.minimum(a, b)
            elif root == "max":
                res = np.maximum(a, b)
            else:
                raise ValueError(f"unsupported f32 op {ins.opcode!r}")
        else:
            if root == "add":
                res = a + b
            elif root == "sub":
                res = a - b
            elif root == "mul":
                res = a * b
            elif root == "div":
                res = np.where(b != 0, _trunc_div(a, b), 0)
            elif root == "rem":
                res = np.where(b != 0, a - _trunc_div(a, b) * b, 0)
            elif root == "min":
                res = np.minimum(a, b)
            elif root == "max":
                res = np.maximum(a, b)
            elif root == "and":
                res = a & b
            elif root == "or":
                res = a | b
            elif root == "xor":
                res = a ^ b
            elif root == "shl":
                res = a << b
            elif root == "shr":
                res = a >> b
            else:
                raise ValueError(f"unsupported int op {ins.opcode!r}")
        self._write(ins.dst, res, mask)


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style truncating integer division (numpy // floors)."""
    q = np.floor_divide(a, np.where(b == 0, 1, b))
    r = a - q * np.where(b == 0, 1, b)
    fix = (r != 0) & ((a < 0) != (b < 0))
    return q + fix


def _scalar(v):
    """Convert a numpy scalar to a plain Python value for AtomicOp."""
    if isinstance(v, np.floating):
        return float(np.float32(v))
    if isinstance(v, np.integer):
        return int(v)
    return v

def _scalar_list(arr: np.ndarray, lane_ids: np.ndarray):
    """Bulk `_scalar` over selected lanes (one tolist beats per-lane
    numpy scalar extraction).  float32/int64 arrays convert exactly the
    way `_scalar` does; anything else falls back to the scalar path."""
    if arr.dtype == np.float32 or arr.dtype == np.int64:
        return arr[lane_ids].tolist()
    return [_scalar(arr[l]) for l in lane_ids]


_COMPARES = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}
