"""Mini-PTX instruction set: parsing, classification, CFG analysis.

Kernels are written in a PTX-flavoured assembly.  Supported syntax::

    LABEL:
    @pred  opcode  dst, src0, src1      // guarded instruction
           opcode  dst, [addr+imm]      // memory operand in brackets
           bra     TARGET               // labels resolve to PCs

Opcodes (``.`` separated, PTX style):

* ALU (``ALU_OPS`` lists every opcode with its operand count), where
  ``<t>`` is ``s32``, ``u32``, ``b32`` or ``s64`` (all held as int64)
  or ``f32``: ``mov``, ``add``, ``sub``, ``mul``, ``div``, ``min``,
  ``max``, ``abs``, ``fma``/``mad``, ``selp`` on every ``<t>``;
  ``rem``, ``and/or/xor``, ``shl/shr`` on the integer types;
  ``cvt.<t>.<t>``; ``mov/and/or/xor/not.pred``
* Predicates: ``setp.<lt|le|gt|ge|eq|ne>.<t>``
* Control: ``bra`` (guarded for conditional), ``exit``, ``nop`` (optional
  latency immediate), ``sleep`` (cycles immediate, for backoff loops)
* Memory: ``ld.global.<t>``, ``st.global.<t>``; addresses are
  ``[reg]``, ``[reg+imm]``, ``[reg-imm]`` or ``[imm]``
* Atomics: ``red.global.<add|min|max>.<t>`` (no return value),
  ``atom.global.<add|exch|cas|inc|min|max>.<t>`` (returns old value)
* A float immediate may not stand where an integer is read.
* Synchronization: ``bar.sync``, ``membar.gl``

Branch reconvergence points (for the SIMT stack) are computed
automatically as immediate post-dominators of the control-flow graph,
the approach GPGPU-Sim uses and the paper assumes ("divergence is
handled by SIMT stacks, ... which side executes first is
deterministic").
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class ISAError(ValueError):
    """Raised for malformed assembly or unsupported opcodes."""


class OpClass(Enum):
    """Timing class of an instruction (drives pipeline latency)."""

    ALU = "alu"
    SFU = "sfu"          # long-latency arithmetic (div)
    MEM_LOAD = "load"
    MEM_STORE = "store"
    MEM_RED = "red"      # non-returning atomic (reduction)
    MEM_ATOM = "atom"    # returning atomic
    BARRIER = "barrier"
    FENCE = "fence"
    BRANCH = "branch"
    EXIT = "exit"
    NOP = "nop"
    SLEEP = "sleep"


@dataclass(frozen=True)
class MemOperand:
    """A ``[reg±offset]`` or ``[imm]`` address expression (byte units)."""

    reg: Optional[str]
    offset: int = 0

    def __str__(self) -> str:
        if self.reg is None:
            return f"[{self.offset}]"
        if self.offset:
            return f"[{self.reg}{self.offset:+d}]"
        return f"[{self.reg}]"


@dataclass
class Instr:
    """One decoded instruction."""

    opcode: str
    dst: Optional[str] = None
    srcs: Tuple[object, ...] = ()
    mem: Optional[MemOperand] = None
    guard: Optional[str] = None        # predicate register name
    guard_negated: bool = False
    target_label: Optional[str] = None
    target_pc: int = -1                # resolved branch target
    reconv_pc: int = -1                # immediate post-dominator (branches)
    pc: int = -1
    op_class: OpClass = OpClass.ALU
    #: precomputed ``is_atomic`` — read per status snapshot by the
    #: determinism-aware schedulers, so it must be a plain attribute.
    atomic: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        self.atomic = self.op_class in (OpClass.MEM_RED, OpClass.MEM_ATOM)

    @property
    def is_atomic(self) -> bool:
        """True for atomics in the paper's sense (``red`` and ``atom``)."""
        return self.atomic

    @property
    def is_reduction(self) -> bool:
        """True only for non-returning ``red`` atomics (bufferable by DAB)."""
        return self.op_class is OpClass.MEM_RED

    def __str__(self) -> str:
        parts = []
        if self.guard:
            parts.append("@%s%s" % ("!" if self.guard_negated else "", self.guard))
        parts.append(self.opcode)
        ops = []
        if self.dst is not None:
            ops.append(self.dst)
        for s in self.srcs:
            ops.append(str(s))
        if self.mem is not None:
            ops.append(str(self.mem))
        if self.target_label is not None:
            ops.append(self.target_label)
        return " ".join(parts) + (" " + ", ".join(ops) if ops else "")


_INT_TYPES = ("s32", "u32", "b32", "s64")
_DTYPES = {*_INT_TYPES, "f32"}
_RED_OPS = {"add", "min", "max"}
_ATOM_OPS = {"add", "exch", "cas", "inc", "min", "max"}

# ----------------------------------------------------------------------
# ALU semantics.  ``ALU_OPS[opcode] = (reads, fn)``: the opcode takes
# ``len(reads)`` source operands, source *i* is read as ``reads[i]`` and
# ``fn`` maps the read operands to the destination's new value (always
# a fresh array).  A read is a numpy dtype: int64 and float32 convert a
# register held in another dtype (an immediate is float32 if it is a
# float or the read is float32, else int64); float64 reads as float32
# and then widens; bool tests a non-bool value against zero; None reads
# the value as held.  f32 add/sub/mul/div/fma compute in float64 and
# round once.  ``repro.arch.warp`` decodes instructions from this table,
# and ``assemble`` rejects any ALU opcode or operand count not in it.
# ----------------------------------------------------------------------
_I, _F, _D, _B = (np.dtype(t) for t in (np.int64, np.float32, np.float64,
                                        np.bool_))


def _int_rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style ``a % b`` (``fmod`` truncates: the sign of ``a``); 0
    where ``b`` is 0."""
    return np.fmod(a, b, out=np.zeros(a.shape, np.int64), where=b != 0)


def _int_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style truncating ``a / b``; 0 where ``b`` is 0.  ``a`` less
    its truncated remainder is an exact multiple of ``b``, which numpy's
    flooring ``//`` divides exactly."""
    nz = b != 0
    r = np.fmod(a, b, out=np.zeros(a.shape, np.int64), where=nz)
    return np.floor_divide(a - r, b, out=r, where=nz)


def _f32_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.divide(a, b, out=np.zeros_like(a), where=b != 0).astype(np.float32)


def _rounded(op: Callable) -> Callable:
    """``op`` with its result rounded to float32."""
    return lambda *xs: op(*xs).astype(np.float32)


def _alu_ops() -> Dict[str, Tuple[Tuple[Optional[np.dtype], ...], Callable]]:
    bitwise = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}
    arith = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
    compares = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
                "ge": operator.ge, "eq": operator.eq, "ne": operator.ne}
    to_int = lambda a: np.trunc(a).astype(np.int64)  # noqa: E731
    ops: Dict[str, Tuple[Tuple[Optional[np.dtype], ...], Callable]] = {
        "mov.pred": ((None,), np.ndarray.copy),
        "not.pred": ((_B,), operator.invert),
        **{f"{op}.pred": ((_B, _B), fn) for op, fn in bitwise.items()},
    }
    for t in (*_INT_TYPES, "f32"):
        is_f = t == "f32"
        r = _F if is_f else _I       # how most ops read their sources
        w = _D if is_f else _I       # f32 arithmetic reads widened
        fit = _rounded if is_f else (lambda fn: fn)
        mad = fit(lambda a, b, c: a * b + c)
        ops.update({
            f"mov.{t}": ((r,), np.ndarray.copy),
            f"abs.{t}": ((r,), np.abs),
            f"min.{t}": ((r, r), np.minimum),
            f"max.{t}": ((r, r), np.maximum),
            f"div.{t}": ((w, w), _f32_div if is_f else _int_div),
            f"fma.{t}": ((w, w, w), mad),
            f"mad.{t}": ((w, w, w), mad),
            f"selp.{t}": ((r, r, _B),
                          lambda a, b, p: np.where(p, a, b).astype(a.dtype)),
            f"cvt.f32.{t}": ((r,), lambda a: a.astype(np.float32)),
            **{f"cvt.{i}.{t}": ((r,), to_int) for i in _INT_TYPES},
            **{f"{op}.{t}": ((w, w), fit(fn)) for op, fn in arith.items()},
            **{f"setp.{op}.{t}": ((r, r), fn) for op, fn in compares.items()},
        })
        if not is_f:
            ops.update({
                f"rem.{t}": ((r, r), _int_rem),
                f"shl.{t}": ((r, r), operator.lshift),
                f"shr.{t}": ((r, r), operator.rshift),
                **{f"{op}.{t}": ((r, r), fn) for op, fn in bitwise.items()},
            })
    return ops


ALU_OPS = _alu_ops()
_SFU_ROOTS = {"div"}
_ALU_ROOTS = {op.split(".")[0] for op in ALU_OPS} - _SFU_ROOTS

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|0x[0-9a-fA-F]+|\.\d+)$")
_MEM_RE = re.compile(r"^(%?[A-Za-z_]\w*)\s*(?:([+-])\s*(\S+))?$")


def _classify(opcode: str, has_guard_target: bool) -> OpClass:
    parts = opcode.split(".")
    root = parts[0]
    if root == "bra":
        return OpClass.BRANCH
    if root == "exit":
        return OpClass.EXIT
    if root == "nop":
        return OpClass.NOP
    if root == "sleep":
        return OpClass.SLEEP
    if root == "bar":
        return OpClass.BARRIER
    if root == "membar":
        return OpClass.FENCE
    if root == "ld":
        return OpClass.MEM_LOAD
    if root == "st":
        return OpClass.MEM_STORE
    if root == "red":
        return OpClass.MEM_RED
    if root == "atom":
        return OpClass.MEM_ATOM
    if root in _SFU_ROOTS:
        return OpClass.SFU
    if root in _ALU_ROOTS:
        return OpClass.ALU
    raise ISAError(f"unknown opcode: {opcode!r}")


def _validate(instr: Instr) -> None:
    parts = instr.opcode.split(".")
    oc = instr.op_class
    reads: Sequence[Optional[np.dtype]] = ()
    if oc in (OpClass.MEM_LOAD, OpClass.MEM_STORE, OpClass.MEM_RED, OpClass.MEM_ATOM):
        if len(parts) < 3 or parts[1] != "global":
            raise ISAError(f"memory ops must target .global space: {instr.opcode}")
        if parts[-1] not in _DTYPES:
            raise ISAError(f"memory op missing dtype: {instr.opcode}")
        if instr.mem is None:
            raise ISAError(f"memory op needs [addr] operand: {instr}")
        if oc is OpClass.MEM_RED and parts[2] not in _RED_OPS:
            raise ISAError(f"unsupported red op: {instr.opcode}")
        if oc is OpClass.MEM_ATOM and parts[2] not in _ATOM_OPS:
            raise ISAError(f"unsupported atom op: {instr.opcode}")
        if oc is OpClass.MEM_LOAD and instr.dst is None:
            raise ISAError("ld needs a destination register")
        if oc is OpClass.MEM_ATOM and instr.dst is None:
            raise ISAError("atom returns a value and needs a destination")
        nsrcs = (0 if oc is OpClass.MEM_LOAD or parts[2] == "inc"
                 else 2 if parts[2] == "cas" else 1)
        if len(instr.srcs) != nsrcs:
            raise ISAError(f"{instr.opcode} takes {nsrcs} value operand(s): {instr}")
        reads = [_F if parts[-1] == "f32" else _I] * nsrcs
    if oc in (OpClass.ALU, OpClass.SFU):
        if instr.opcode not in ALU_OPS:
            raise ISAError(f"unsupported opcode/type combination: {instr.opcode}")
        reads = ALU_OPS[instr.opcode][0]
        if len(instr.srcs) != len(reads) or instr.mem is not None:
            raise ISAError(f"{instr.opcode} takes a destination and {len(reads)} "
                           f"source operand(s): {instr}")
    if any(isinstance(s, float) and r is _I for s, r in zip(instr.srcs, reads)):
        raise ISAError(f"float immediate in an integer operand: {instr}")
    if oc is OpClass.BRANCH and instr.target_label is None:
        raise ISAError("bra needs a target label")


def _parse_operand(tok: str):
    tok = tok.strip()
    if not tok:
        raise ISAError("empty operand")
    if _NUM_RE.match(tok):
        if "0x" in tok:
            return int(tok, 16)
        if any(c in tok for c in ".eE"):
            return float(tok)
        return int(tok)
    return tok  # register or special register name


def _parse_mem(tok: str) -> MemOperand:
    """``[reg]``, ``[reg+imm]``, ``[reg-imm]`` or ``[imm]``."""
    inner = tok[1:-1].strip()
    m = _MEM_RE.match(inner)
    reg, sign, off = m.groups() if m else (None, "", inner)
    if reg is not None and not sign:
        return MemOperand(reg, 0)
    offset = _parse_operand(sign + off)
    if not isinstance(offset, int):
        raise ISAError(f"address must be [reg], [reg+imm], [reg-imm] or [imm]: {tok}")
    return MemOperand(reg, offset)


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside brackets."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ISAError(f"unbalanced ']' in {text!r}")
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ISAError(f"unbalanced '[' in {text!r}")
    if cur:
        out.append("".join(cur))
    return [t.strip() for t in out if t.strip()]


@dataclass
class Program:
    """An assembled kernel body: instructions with resolved branch PCs."""

    instrs: List[Instr]
    labels: Dict[str, int] = field(default_factory=dict)
    source: str = ""
    #: per warp size, one executor per instruction, built by
    #: ``repro.arch.warp.decode`` when the first warp runs the program.
    decoded: Dict[int, list] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def __getstate__(self) -> dict:
        # Executors are closures: a copy or an unpickled program
        # decodes again on first use.
        return {**self.__dict__, "decoded": {}}

    def __len__(self) -> int:
        return len(self.instrs)

    def __getitem__(self, pc: int) -> Instr:
        return self.instrs[pc]

    @property
    def registers(self) -> List[str]:
        """All register names referenced (excluding special %regs)."""
        regs = set()
        for ins in self.instrs:
            if ins.dst and not ins.dst.startswith("%"):
                regs.add(ins.dst)
            for s in ins.srcs:
                if isinstance(s, str) and not s.startswith("%"):
                    regs.add(s)
            if ins.mem is not None and ins.mem.reg and not ins.mem.reg.startswith("%"):
                regs.add(ins.mem.reg)
            if ins.guard:
                regs.add(ins.guard)
        return sorted(regs)

    def static_atomic_count(self) -> int:
        return sum(1 for i in self.instrs if i.is_atomic)


def assemble(source: str) -> Program:
    """Assemble mini-PTX text into a :class:`Program`.

    Resolves labels, classifies opcodes, validates operand shapes and
    computes each branch's reconvergence PC (immediate post-dominator).
    """
    labels: Dict[str, int] = {}
    raw: List[Tuple[str, str]] = []  # (guard_prefix_or_'', body)

    for lineno, line in enumerate(source.splitlines(), 1):
        line = line.split("//")[0].split("#")[0].strip()
        if not line:
            continue
        m = _LABEL_RE.match(line)
        if m:
            name = m.group(1)
            if name in labels:
                raise ISAError(f"duplicate label {name!r} (line {lineno})")
            labels[name] = len(raw)
            continue
        raw.append((line, str(lineno)))

    instrs: List[Instr] = []
    for text, lineno in raw:
        guard = None
        negated = False
        if text.startswith("@"):
            gtok, _, rest = text.partition(" ")
            text = rest.strip()
            gname = gtok[1:]
            if gname.startswith("!"):
                negated = True
                gname = gname[1:]
            if not gname:
                raise ISAError(f"empty guard (line {lineno})")
            guard = gname
        if not text:
            raise ISAError(f"guard without instruction (line {lineno})")
        opcode, _, operand_text = text.partition(" ")
        opcode = opcode.strip()
        operands = _split_operands(operand_text) if operand_text.strip() else []

        op_class = _classify(opcode, guard is not None)

        dst: Optional[str] = None
        srcs: List[object] = []
        mem: Optional[MemOperand] = None
        target_label: Optional[str] = None

        if op_class is OpClass.BRANCH:
            if len(operands) != 1:
                raise ISAError(f"bra takes one label (line {lineno})")
            target_label = operands[0]
        else:
            parsed = []
            for tok in operands:
                if tok.startswith("["):
                    if mem is not None:
                        raise ISAError(f"multiple memory operands (line {lineno})")
                    parsed.append(_parse_mem(tok))
                else:
                    parsed.append(_parse_operand(tok))
            # Destination conventions: first operand is dst for ops that
            # produce a value; stores and reds have no dst.
            root = opcode.split(".")[0]
            has_dst = root not in ("st", "red", "bar", "membar", "exit", "nop", "sleep")
            idx = 0
            if has_dst and parsed:
                if not isinstance(parsed[0], str):
                    raise ISAError(f"dst must be a register (line {lineno}): {text}")
                dst = parsed[0]
                idx = 1
            for p in parsed[idx:]:
                if isinstance(p, MemOperand):
                    mem = p
                else:
                    srcs.append(p)

        ins = Instr(
            opcode=opcode,
            dst=dst,
            srcs=tuple(srcs),
            mem=mem,
            guard=guard,
            guard_negated=negated,
            target_label=target_label,
            op_class=op_class,
        )
        _validate(ins)
        instrs.append(ins)

    if not instrs or instrs[-1].op_class is not OpClass.EXIT:
        raise ISAError("program must end with 'exit'")

    # Resolve branch targets.
    for pc, ins in enumerate(instrs):
        ins.pc = pc
        if ins.target_label is not None:
            if ins.target_label not in labels:
                raise ISAError(f"undefined label {ins.target_label!r}")
            ins.target_pc = labels[ins.target_label]

    prog = Program(instrs=instrs, labels=dict(labels), source=source)
    _compute_reconvergence(prog)
    return prog


# ----------------------------------------------------------------------
# Immediate post-dominator analysis for SIMT reconvergence points.
# ----------------------------------------------------------------------

def _successors(prog: Program, pc: int) -> List[int]:
    ins = prog[pc]
    if ins.op_class is OpClass.EXIT:
        return []
    if ins.op_class is OpClass.BRANCH:
        succ = [ins.target_pc]
        if ins.guard is not None:  # conditional: fall-through possible
            succ.append(pc + 1)
        return succ
    return [pc + 1]


def _compute_reconvergence(prog: Program) -> None:
    """Set ``reconv_pc`` of every branch to its immediate post-dominator.

    Standard iterative dominator algorithm (Cooper/Harvey/Kennedy) on the
    reversed CFG with a virtual exit node joining all ``exit``
    instructions.
    """
    n = len(prog.instrs)
    exit_node = n  # virtual
    preds: List[List[int]] = [[] for _ in range(n + 1)]
    for pc in range(n):
        succ = _successors(prog, pc)
        if not succ:
            preds[exit_node].append(pc)
        for s in succ:
            if s >= n:
                raise ISAError(f"branch falls off program end at pc {pc}")
            preds[s].append(pc)

    # Reverse-postorder of the reversed CFG starting at the virtual exit.
    order: List[int] = []
    seen = [False] * (n + 1)
    stack = [(exit_node, 0)]
    seen[exit_node] = True
    while stack:
        node, i = stack[-1]
        ps = preds[node]
        if i < len(ps):
            stack[-1] = (node, i + 1)
            p = ps[i]
            if not seen[p]:
                seen[p] = True
                stack.append((p, 0))
        else:
            order.append(node)
            stack.pop()
    rpo = list(reversed(order))  # exit first
    rpo_index = {node: i for i, node in enumerate(rpo)}

    idom: List[Optional[int]] = [None] * (n + 1)
    idom[exit_node] = exit_node

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]  # type: ignore[assignment]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == exit_node:
                continue
            # In the reversed CFG the "predecessors" are the successors.
            succ = _successors(prog, node) or [exit_node]
            new = None
            for s in succ:
                if idom[s] is not None:
                    new = s if new is None else intersect(new, s)
            if new is not None and idom[node] != new:
                idom[node] = new
                changed = True

    for pc in range(n):
        ins = prog[pc]
        if ins.op_class is OpClass.BRANCH and ins.guard is not None:
            pd = idom[pc]
            if pd is None or not seen[pc]:
                raise ISAError(f"unreachable or divergent-forever branch at pc {pc}")
            ins.reconv_pc = pd if pd != exit_node else n  # n == virtual exit
