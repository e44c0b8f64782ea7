"""Property: decoded execution equals the reference interpreter, bit for bit.

``Warp.step`` runs per-program decoded executors (``repro.arch.warp``).
The reference below is the instruction-at-a-time interpreter they
replaced (operand reads, masked register writes, the ALU if-chain and
the memory path), kept frozen as pure functions over a register dict.
Every opcode ``assemble`` accepts, except control flow, is drawn with
register, int-immediate and float-immediate operands, no guard, a
partial guard or an all-off guard, on a full (32-thread) or partial
(20-thread) CTA, over registers holding negatives, zero divisors, NaN,
±inf and -0.0.  After one step every register's dtype and bytes, the
step's class and lane count, its memory request and the memory image
must match.

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.isa import ALU_OPS, OpClass, assemble
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.memory.globalmem import AtomicOp, GlobalMemory

WS = 32
INT_TYPES = ("s32", "u32", "b32", "s64")
DTYPES = (*INT_TYPES, "f32")
MEM_OPCODES = [
    *(f"ld.global.{t}" for t in DTYPES),
    *(f"st.global.{t}" for t in DTYPES),
    *(f"red.global.{op}.{t}" for op in ("add", "min", "max") for t in DTYPES),
    *(f"atom.global.{op}.{t}"
      for op in ("add", "exch", "cas", "inc", "min", "max") for t in DTYPES),
]
POOL = ("r_i", "r_f", "r_p", "r_q")
WORDS = 64
#: distinct values drawn per register; lanes repeat them (keeps draws cheap)
DRAWN = 8


# ----------------------------------------------------------------------
# Reference interpreter (frozen; pure functions over a register dict).
# ----------------------------------------------------------------------
def ref_read(regs, operand, dtype=None):
    if isinstance(operand, str):
        arr = regs[operand]
    else:
        if isinstance(operand, float) or dtype == "f32":
            return np.full(WS, np.float32(operand), dtype=np.float32)
        return np.full(WS, int(operand), dtype=np.int64)
    if dtype == "f32" and arr.dtype != np.float32:
        return arr.astype(np.float32)
    if dtype in ("s32", "u32", "b32", "s64") and arr.dtype != np.int64:
        return arr.astype(np.int64)
    return arr


def ref_write(regs, dst, values, mask):
    cur = regs.get(dst)
    if cur is None or cur.dtype != values.dtype:
        base = np.zeros(WS, dtype=values.dtype)
        if cur is not None:
            base[:] = cur.astype(values.dtype)
        cur = base
        regs[dst] = cur
    cur[mask] = values[mask]


def _pred(p):
    return p if p.dtype == np.bool_ else p != 0


def _trunc_div(a, b):
    q = np.floor_divide(a, np.where(b == 0, 1, b))
    r = a - q * np.where(b == 0, 1, b)
    fix = (r != 0) & ((a < 0) != (b < 0))
    return q + fix


_COMPARES = {
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
}


def ref_exec_alu(regs, ins, mask):
    parts = ins.opcode.split(".")
    root = parts[0]
    dtype = parts[-1] if parts[-1] in (*DTYPES, "pred") else None
    srcs = ins.srcs
    w = lambda values: ref_write(regs, ins.dst, values, mask)  # noqa: E731

    if root == "mov":
        return w(ref_read(regs, srcs[0], dtype).copy())
    if root == "setp":
        a = ref_read(regs, srcs[0], parts[2])
        b = ref_read(regs, srcs[1], parts[2])
        return w(_COMPARES[parts[1]](a, b))
    if root == "selp":
        a = ref_read(regs, srcs[0], dtype)
        b = ref_read(regs, srcs[1], dtype)
        p = _pred(ref_read(regs, srcs[2]))
        return w(np.where(p, a, b).astype(a.dtype))
    if root == "cvt":
        src = ref_read(regs, srcs[0], parts[2])
        if parts[1] == "f32":
            return w(src.astype(np.float32))
        return w(np.trunc(src).astype(np.int64))
    if root == "not":
        return w(~_pred(ref_read(regs, srcs[0])))
    if dtype == "pred" and root in ("and", "or", "xor"):
        a = _pred(ref_read(regs, srcs[0]))
        b = _pred(ref_read(regs, srcs[1]))
        return w({"and": a & b, "or": a | b, "xor": a ^ b}[root])
    if root in ("fma", "mad"):
        if dtype == "f32":
            a, b, c = (ref_read(regs, s, "f32").astype(np.float64) for s in srcs)
            return w((a * b + c).astype(np.float32))
        a, b, c = (ref_read(regs, s, "s64") for s in srcs)
        return w(a * b + c)
    if root == "abs":
        return w(np.abs(ref_read(regs, srcs[0], dtype)))

    a = ref_read(regs, srcs[0], dtype)
    b = ref_read(regs, srcs[1], dtype)
    if dtype == "f32":
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        res = {
            "add": lambda: (a64 + b64).astype(np.float32),
            "sub": lambda: (a64 - b64).astype(np.float32),
            "mul": lambda: (a64 * b64).astype(np.float32),
            "div": lambda: np.divide(a64, b64, out=np.zeros_like(a64),
                                     where=b64 != 0).astype(np.float32),
            "min": lambda: np.minimum(a, b),
            "max": lambda: np.maximum(a, b),
        }[root]()
    else:
        res = {
            "add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
            "div": lambda: np.where(b != 0, _trunc_div(a, b), 0),
            "rem": lambda: np.where(b != 0, a - _trunc_div(a, b) * b, 0),
            "min": lambda: np.minimum(a, b), "max": lambda: np.maximum(a, b),
            "and": lambda: a & b, "or": lambda: a | b, "xor": lambda: a ^ b,
            "shl": lambda: a << b, "shr": lambda: a >> b,
        }[root]()
    return w(res)


def ref_exec_mem(regs, ins, mask, mem):
    """The memory path; returns (kind, sectors, red_ops, atom_ops)."""
    parts = ins.opcode.split(".")
    dtype, suffix, m = parts[-1], ".".join(parts[2:]), ins.mem
    if m.reg is None:
        addrs = np.full(WS, m.offset, dtype=np.int64)
    else:
        addrs = ref_read(regs, m.reg, "s64") + m.offset
    lane_ids = np.nonzero(mask)[0]
    act = addrs[lane_ids]
    addr_list = act.tolist()
    sectors = tuple(sorted({a // 32 * 32 for a in addr_list}))
    vals = [ref_read(regs, s, dtype)[lane_ids].tolist() for s in ins.srcs]
    if parts[0] == "ld":
        raw = mem.load_many(act)
        values = np.zeros(WS, dtype=np.float32 if dtype == "f32" else np.int64)
        values[lane_ids] = raw.astype(values.dtype)
        ref_write(regs, ins.dst, values, mask)
        return "load", sectors, (), ()
    if parts[0] == "st":
        mem.store_many(act, ref_read(regs, ins.srcs[0], dtype)[lane_ids])
        return "store", sectors, (), ()
    if parts[0] == "red":
        ops = tuple(AtomicOp(a, suffix, (v,)) for a, v in zip(addr_list, vals[0]))
        return "red", sectors, ops, ()
    operands = list(zip(*vals)) if vals else [(1,)] * len(addr_list)
    ops = tuple((lane, AtomicOp(a, suffix, o)) for lane, a, o in
                zip(lane_ids.tolist(), addr_list, operands))
    return "atom", sectors, (), ops


def ref_step(regs, ins, stack_mask, mem):
    mask = stack_mask
    if ins.guard is not None:
        pred = _pred(ref_read(regs, ins.guard))
        mask = np.logical_and(mask, ~pred if ins.guard_negated else pred)
    active = int(np.count_nonzero(mask))
    if active == 0:
        return OpClass.NOP, 0, None
    if ins.op_class in (OpClass.ALU, OpClass.SFU):
        ref_exec_alu(regs, ins, mask)
        return ins.op_class, active, None
    return ins.op_class, active, ref_exec_mem(regs, ins, mask, mem)


# ----------------------------------------------------------------------
# Draws.
# ----------------------------------------------------------------------
ints = st.one_of(st.integers(-40, 40), st.sampled_from(
    [0, 0, 2**24 + 1, 2**31 - 1, -2**31, 2**40, -2**53 - 1]))
floats = st.one_of(
    st.floats(width=32),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -7.0]))
int_imm = st.integers(-2**31, 2**31)
float_imm = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, 1.5, -3.0, -16777216.0]))


def lanes(draw, values, dtype, n=WS):
    return np.resize(np.array(draw(st.lists(values, min_size=DRAWN,
                                            max_size=DRAWN)), dtype=dtype), n)


@st.composite
def register(draw):
    kind = draw(st.sampled_from(("int", "f32", "bool")))
    if kind == "int":
        return lanes(draw, ints, np.int64)
    if kind == "f32":
        return lanes(draw, floats, np.float32)
    return lanes(draw, st.booleans(), np.bool_)


def operand_text(draw, value_regs, read_as_int):
    """A register or an immediate (``assemble`` takes no float immediate
    where an integer is read)."""
    kind = draw(st.sampled_from(("reg", "reg", "int")
                                + (() if read_as_int else ("float",))))
    if kind == "reg":
        return draw(st.sampled_from(value_regs))
    if kind == "int":
        return str(draw(int_imm))
    return repr(draw(float_imm))


@st.composite
def case(draw, opcode):
    regs = {name: draw(register()) for name in POOL}
    guard = draw(st.sampled_from(("none", "none", "partial", "partial", "off")))
    negated = draw(st.booleans())
    if guard == "partial":
        regs["p_g"] = draw(register())
    elif guard == "off":
        regs["p_g"] = np.full(WS, negated)
    prefix = "" if guard == "none" else ("@!p_g " if negated else "@p_g ")
    value_regs = (*POOL, "%laneid")
    mem = None
    if opcode in ALU_OPS:
        dst = draw(st.sampled_from((*POOL, "r_new")))
        ops = [dst] + [operand_text(draw, value_regs, r == np.int64)
                       for r in ALU_OPS[opcode][0]]
    else:
        parts = opcode.split(".")
        mem = {
            "dtype": "f32" if draw(st.booleans()) else "s32",
            "init": lanes(draw, floats if draw(st.booleans()) else ints,
                          np.float64, WORDS),
        }
        # word offsets into the buffer; the base is added in _check
        regs["r_addr"] = lanes(draw, st.integers(1, WORDS - 2), np.int64) * 4
        addr = draw(st.sampled_from(("[r_addr]", "[r_addr+4]", "[r_addr-4]",
                                     "[ABS]")))
        nsrcs = (0 if parts[0] == "ld" or parts[2] == "inc"
                 else 2 if parts[2] == "cas" else 1)
        vals = [operand_text(draw, value_regs, parts[-1] != "f32")
                for _ in range(nsrcs)]
        dst = [draw(st.sampled_from((*POOL, "r_new")))] \
            if parts[0] in ("ld", "atom") else []
        ops = dst + [addr] + vals
        mem["abs_word"] = draw(st.integers(0, WORDS - 1))
    cta_dim = draw(st.sampled_from((20, 32)))
    return prefix + opcode + " " + ", ".join(ops), regs, cta_dim, mem


def _memory(spec):
    mem = GlobalMemory()
    init = spec["init"]
    if spec["dtype"] == "s32":
        init = np.clip(np.nan_to_num(init), -2**31, 2**31 - 1)
    mem.alloc("buf", WORDS, spec["dtype"], init=init)
    return mem


def _regs_equal(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        g, w = got[name], want[name]
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), (name, g, w)


def _check(text, regs, cta_dim, mem_spec):
    src = text
    mems = [None, None]
    if mem_spec is not None:
        mems = [_memory(mem_spec), _memory(mem_spec)]
        base = mems[0].base_of("buf")
        src = text.replace("[ABS]", f"[{base + 4 * mem_spec['abs_word']}]")
        regs = dict(regs, r_addr=regs["r_addr"] + base)
    prog = assemble(src + "\n    exit\n")
    kernel = Kernel("prop", prog, grid_dim=1, cta_dim=cta_dim)
    warp = Warp(uid=1, cta=CTA(kernel=kernel, cta_id=0), warp_id_in_cta=0,
                warp_size=WS)
    for name, arr in regs.items():
        warp.regs[name] = arr.copy()
    ref_regs = {name: arr.copy() for name, arr in warp.regs.items()}
    stack_mask = warp.stack.active_mask.copy()

    with np.errstate(all="ignore"):
        try:
            want = ref_step(ref_regs, prog[0], stack_mask, mems[0])
        except Exception as e:  # the decoded path must fail the same way
            with pytest.raises(type(e)):
                warp.step(mems[1])
            return
        res = warp.step(mems[1])

    assert (res.op_class, res.active_lanes) == want[:2]
    _regs_equal(warp.regs, ref_regs)
    if want[2] is None:
        assert res.mem is None
        return
    kind, sectors, red_ops, atom_ops = want[2]
    assert (res.mem.kind, res.mem.sectors) == (kind, sectors)
    assert repr(res.mem.red_ops) == repr(red_ops)
    assert repr(res.mem.atom_ops) == repr(atom_ops)
    assert mems[0].snapshot_digest() == mems[1].snapshot_digest()


@pytest.mark.parametrize("opcode", sorted(ALU_OPS) + MEM_OPCODES)
def test_decoded_step_equals_reference(opcode, request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=6, deadline=None, derandomize=not seeded)
    @given(c=case(opcode))
    def check(c):
        _check(*c)

    check()
