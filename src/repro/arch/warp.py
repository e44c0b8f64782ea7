"""Per-warp functional execution engine.

A :class:`Warp` owns a lane-parallel register file (numpy vectors, one
element per lane), a SIMT reconvergence stack and a program counter.
``step()`` executes exactly one instruction *functionally* and returns a
:class:`StepResult` describing everything the timing model needs: the
instruction's class, the memory sectors it touches, and any atomic
operations it produced.

Each :class:`Program` is decoded once per warp size (:func:`decode`,
DESIGN.md §5) into one :class:`Executor` per instruction, which
``step()`` runs at the pc.  An instruction whose record never varies
(ALU, SFU, NOP, branch, barrier, fence, and any instruction retired
as a nop with no lane active) returns one record built at decode:
records are read, never written.

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

from dataclasses import dataclass
from heapq import heappush
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arch.isa import ALU_OPS, Instr, MemOperand, OpClass, Program
from repro.arch.kernel import CTA, Kernel
from repro.arch.simt_stack import SIMTStack
from repro.memory.globalmem import AtomicOp, GlobalMemory

SECTOR_BYTES = 32
#: ``a & _SECTOR_MASK`` is the base of the sector holding address ``a``.
_SECTOR_MASK = -SECTOR_BYTES

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
    """What one functional step produced, for the timing model.

    Shared by every step of a fixed-class instruction: never mutated.
    """

    instr: Instr
    op_class: OpClass
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
        "dyn_atomics", "launched_cycle", "fence_arrived_at",
        "_red_cache", "capture_addrs", "_code", "_mask", "_nact",
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
        self._code = decode(self.program, warp_size)

        first_thread = warp_id_in_cta * warp_size
        lanes = np.arange(warp_size)
        in_cta = (first_thread + lanes) < cta.kernel.cta_dim
        if not in_cta.any():
            raise ValueError("warp has no live threads")
        self.stack = SIMTStack(warp_size, 0, in_cta)

        self.regs: Dict[str, np.ndarray] = _Registers()
        self.regs.kernel = cta.kernel.name
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
        self.launched_cycle = 0
        self.fence_arrived_at = 0
        self.dyn_instrs = 0
        self.dyn_atomics = 0
        self._red_cache = None  # (dyn_instrs, pc, ops) memo for peek_red_ops
        #: the last mask step ran under and its active-lane count (masks
        #: are never mutated: the stack replaces its mask on a change)
        self._mask, self._nact = None, 0
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
    # Row cells (DESIGN §12).  These setters and bind_slab are the only
    # writers of a bound warp's timing cells (step refreshes just the
    # active/pc caches), and the only place the run loop learns of a
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
        """Record a write of cell ``c`` for the run loop (no-op while
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
    # The SIMT stack's top entry [reconv_pc, pc, mask] is read in place
    # (its list is replaced when lanes exit, so it is re-read each time).
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._exited or not self.stack._entries

    @property
    def pc(self) -> int:
        return self.stack._entries[-1][1]

    def next_is_atomic(self) -> bool:
        """Whether the next instruction is an atomic (GPUDet ends a
        warp's quantum there)."""
        entries = self.stack._entries
        if self._exited or not entries:
            return False
        return self.program.instrs[entries[-1][1]].atomic

    def peek_red_ops(self) -> Tuple[AtomicOp, ...]:
        """Dry-run the next ``red``'s lane ops without executing it.

        Used by the SM's atomic-issue gate: DAB must know whether the
        buffer can accept the whole warp request *before* issuing
        (paper IV-B: "An atomic is executed provided sufficient space
        exists").  The result is memoized per dynamic instruction —
        registers cannot change while the warp is stalled at this PC.
        """
        entries = self.stack._entries
        if self._exited or not entries:
            return ()
        _reconv, pc, mask = entries[-1]
        ex = self._code[pc]
        if ex.red_ops is None:
            return ()
        if self._red_cache is not None:
            n, cached_pc, ops = self._red_cache
            if n == self.dyn_instrs and cached_pc == pc:
                return ops
        if ex.guard is not None:
            mask = ex.guard(self.regs, mask)
        ops = ex.red_ops(self.regs, np.nonzero(mask)[0])
        self._red_cache = (self.dyn_instrs, pc, ops)
        return ops

    # ------------------------------------------------------------------
    def step(self, mem: GlobalMemory) -> StepResult:
        """Execute one instruction functionally; advance the SIMT stack.

        The ``pc``/``active`` cells are refreshed here (not in the SM)
        because GPUDet's serial commit mode steps warps directly,
        bypassing ``SM._issue``.
        """
        st = self.stack
        entries = st._entries
        if self._exited or not entries:
            raise RuntimeError("step() on a finished warp")
        _reconv, pc, mask = entries[-1]
        ex = self._code[pc]
        if ex.guard is not None:
            mask = ex.guard(self.regs, mask)
        if mask is not self._mask:
            self._mask, self._nact = mask, int(np.count_nonzero(mask))
        active = self._nact
        self.dyn_instrs += 1
        if active or ex.always:
            result = ex.run(self, mem, mask, active)
        else:  # guarded off: retires as a nop
            st.advance()
            result = ex.nop
        entries = st._entries  # an exit replaces the list
        if entries:
            self._pc[self._col] = entries[-1][1]
        else:
            self._act[self._col] = False
        return result

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


# ----------------------------------------------------------------------
# Decode: one executor per instruction, built once per (Program, warp
# size).  Operand reads follow the convention of repro.arch.isa.ALU_OPS.
# ----------------------------------------------------------------------
_I64, _F32, _F64, _BOOL = (np.dtype(t) for t in (np.int64, np.float32,
                                                 np.float64, np.bool_))
Reader = Callable[[Dict[str, np.ndarray]], np.ndarray]


class _Registers(dict):
    """A warp's register file (name -> one value per lane)."""

    __slots__ = ("kernel",)

    def __missing__(self, name: str):
        raise KeyError(f"register {name!r} read before write in {self.kernel}")


class Executor:
    """One decoded instruction: ``guard(regs, mask) -> mask`` (or None),
    ``run(warp, mem, mask, active) -> StepResult`` and, for ``red``,
    ``red_ops(regs, lane_ids)``.  Only branches and exits run with no
    lane active (``always``); anything else then retires as a nop and
    returns ``nop``, its one guarded-off record."""

    __slots__ = ("ins", "guard", "run", "red_ops", "always", "nop")

    def __init__(self, ins: Instr, guard, run, red_ops=None):
        self.ins, self.guard, self.run, self.red_ops = ins, guard, run, red_ops
        self.always = ins.op_class in (OpClass.BRANCH, OpClass.EXIT)
        self.nop = StepResult(ins, OpClass.NOP)


def decode(program: Program, warp_size: int) -> List[Executor]:
    """``program``'s executors for ``warp_size`` lanes, built on first
    use and cached on the program."""
    code = program.decoded.get(warp_size)
    if code is None:
        code = [_decode(ins, warp_size) for ins in program.instrs]
        program.decoded[warp_size] = code
    return code


def _const(values: np.ndarray) -> Reader:
    values.flags.writeable = False
    return lambda regs: values


def _reader(operand, want: Optional[np.dtype], ws: int) -> Reader:
    """Read ``operand`` (register name or immediate) as ``want``."""
    if not isinstance(operand, str):
        if isinstance(operand, float) or (want is not None and want.kind == "f"):
            arr = np.full(ws, np.float32(operand), dtype=np.float32)
        else:
            arr = np.full(ws, int(operand), dtype=np.int64)
        if want is _F64:
            arr = arr.astype(np.float64)
        elif want is _BOOL:
            arr = arr != 0
        return _const(arr)
    name = operand
    if want is None:
        return lambda regs: regs[name]
    # A register's dtype is one of numpy's builtin dtype instances, so
    # an identity test decides; any other instance converts, as before.
    if want is _BOOL:
        def read(regs):
            p = regs[name]
            return p if p.dtype is _BOOL else p != 0
    elif want is _F64:
        def read(regs):
            a = regs[name]
            return (a if a.dtype is _F32 else a.astype(_F32)).astype(np.float64)
    else:
        def read(regs):
            a = regs[name]
            return a if a.dtype is want else a.astype(want)
    return read


def _write(regs: Dict[str, np.ndarray], dst: str, values: np.ndarray,
           mask: np.ndarray) -> None:
    """Copy ``values`` into ``dst`` on the lanes of ``mask``; the register
    takes ``values``' dtype (fresh registers start at zero)."""
    cur = regs.get(dst)
    if cur is None:
        cur = regs[dst] = np.zeros_like(values)
    elif cur.dtype != values.dtype:
        cur = regs[dst] = cur.astype(values.dtype)
    np.copyto(cur, values, where=mask)


def _guard(ins: Instr, ws: int):
    if ins.guard is None:
        return None
    pred = _reader(ins.guard, _BOOL, ws)
    if ins.guard_negated:
        return lambda regs, mask: np.logical_and(mask, ~pred(regs))
    return lambda regs, mask: np.logical_and(mask, pred(regs))


def _decode(ins: Instr, ws: int) -> Executor:
    oc = ins.op_class
    if oc in (OpClass.ALU, OpClass.SFU):
        return Executor(ins, _guard(ins, ws), _alu(ins, ws))
    if oc in (OpClass.MEM_LOAD, OpClass.MEM_STORE, OpClass.MEM_RED,
              OpClass.MEM_ATOM):
        return _memory(ins, ws)
    if oc is OpClass.BRANCH:
        target, reconv = ins.target_pc, ins.reconv_pc
        record = StepResult(ins, oc)
        if ins.guard is None:
            def run(warp, mem, mask, active):
                warp.stack.jump(target)
                return record
        else:
            def run(warp, mem, mask, active):
                warp.stack.branch(mask, target, reconv)
                return record
    elif oc is OpClass.EXIT:
        guarded = ins.guard is not None

        def run(warp, mem, mask, active):
            st = warp.stack
            st.exit_lanes(mask if guarded else None)
            return StepResult(ins, oc, exited=st.done)
    elif oc is OpClass.SLEEP:
        cycles = _reader(ins.srcs[0], None, ws) if ins.srcs else None

        def run(warp, mem, mask, active):
            n = int(cycles(warp.regs)[mask].max()) if cycles else 1
            warp.stack.advance()
            return StepResult(ins, oc, sleep_cycles=max(1, n))
    else:  # BARRIER, FENCE, NOP
        record = StepResult(ins, oc, barrier=oc is OpClass.BARRIER,
                            fence=oc is OpClass.FENCE)

        def run(warp, mem, mask, active):
            warp.stack.advance()
            return record
    return Executor(ins, _guard(ins, ws), run)


def _alu(ins: Instr, ws: int):
    reads, fn = ALU_OPS[ins.opcode]
    rd = [_reader(src, want, ws) for src, want in zip(ins.srcs, reads)]
    if len(rd) == 1:
        a, = rd
        compute = lambda regs: fn(a(regs))  # noqa: E731
    elif len(rd) == 2:
        a, b = rd
        compute = lambda regs: fn(a(regs), b(regs))  # noqa: E731
    else:
        a, b, c = rd
        compute = lambda regs: fn(a(regs), b(regs), c(regs))  # noqa: E731
    dst = ins.dst
    record = StepResult(ins, ins.op_class)

    def run(warp, mem, mask, active):
        regs = warp.regs
        values = compute(regs)
        if active == ws:
            regs[dst] = values
        else:
            _write(regs, dst, values, mask)
        warp.stack.advance()
        return record
    return run


def _address(m: MemOperand, ws: int) -> Reader:
    if m.reg is None:
        return _const(np.full(ws, m.offset, dtype=np.int64))
    base, off = _reader(m.reg, _I64, ws), m.offset
    return (lambda regs: base(regs) + off) if off else base


def _memory(ins: Instr, ws: int) -> Executor:
    parts = ins.opcode.split(".")
    oc, dst, suffix = ins.op_class, ins.dst, ".".join(parts[2:])
    kind = oc.value                     # "load", "store", "red", "atom"
    dtype = _F32 if parts[-1] == "f32" else _I64
    addr = _address(ins.mem, ws)
    vals = [_reader(src, dtype, ws) for src in ins.srcs]
    all_lanes = np.arange(ws)
    all_lanes.flags.writeable = False

    def operands(regs, lane_ids):
        """Per-lane operand tuples of a red/atom (``atom.inc`` adds 1).
        The values are float32 or int64, which ``tolist`` turns into the
        exact Python floats and ints an AtomicOp carries."""
        if not vals:
            return repeat((1,))
        return zip(*[v(regs)[lane_ids].tolist() for v in vals])

    def red_ops(regs, lane_ids, addr_list=None):
        if addr_list is None:
            addr_list = addr(regs)[lane_ids].tolist()
        return tuple(AtomicOp(a, suffix, o)
                     for a, o in zip(addr_list, operands(regs, lane_ids)))

    def run(warp, mem, mask, active):
        regs = warp.regs
        if active == ws:
            full, lane_ids, act_addrs = True, all_lanes, addr(regs)
        else:
            full, lane_ids = False, np.nonzero(mask)[0]
            act_addrs = addr(regs)[lane_ids]
        addr_list = act_addrs.tolist()
        sectors = tuple(sorted({a & _SECTOR_MASK for a in addr_list}))
        if oc is OpClass.MEM_LOAD:
            raw = mem.load_many(act_addrs)
            if full:
                regs[dst] = raw.astype(dtype)
            else:
                values = np.zeros(ws, dtype=dtype)
                values[lane_ids] = raw.astype(dtype)
                _write(regs, dst, values, mask)
            spec = MemRequestSpec(kind=kind, sectors=sectors)
        elif oc is OpClass.MEM_STORE:
            values = vals[0](regs)
            mem.store_many(act_addrs, values if full else values[lane_ids])
            spec = MemRequestSpec(kind=kind, sectors=sectors)
        elif oc is OpClass.MEM_RED:
            warp.dyn_atomics += 1
            spec = MemRequestSpec(kind=kind, sectors=sectors,
                                  red_ops=red_ops(regs, lane_ids, addr_list))
        else:
            warp.dyn_atomics += 1
            ops = tuple((lane, AtomicOp(a, suffix, o)) for lane, a, o in zip(
                lane_ids.tolist(), addr_list, operands(regs, lane_ids)))
            spec = MemRequestSpec(kind=kind, sectors=sectors, atom_ops=ops,
                                  atom_dst=dst)
        if warp.capture_addrs:
            spec.addrs = tuple(addr_list)
            spec.gtids = tuple(regs["%gtid"][lane_ids].tolist())
        warp.stack.advance()
        return StepResult(ins, oc, mem=spec)
    return Executor(ins, _guard(ins, ws), run,
                    red_ops if oc is OpClass.MEM_RED else None)
