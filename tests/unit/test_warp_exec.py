"""Unit tests for the warp functional execution engine."""

import numpy as np
import pytest

from repro.arch.isa import OpClass, assemble
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.memory.globalmem import GlobalMemory


def make_warp(source, cta_dim=32, params=None, grid_dim=1, warp_id=0):
    prog = assemble(source)
    kernel = Kernel("t", prog, grid_dim=grid_dim, cta_dim=cta_dim,
                    params=params or {})
    cta = CTA(kernel=kernel, cta_id=0)
    return Warp(uid=1, cta=cta, warp_id_in_cta=warp_id, warp_size=32)


def run_to_completion(warp, mem, limit=10000):
    results = []
    for _ in range(limit):
        if warp.done:
            return results
        results.append(warp.step(mem))
    raise AssertionError("warp did not finish")


class TestALU:
    def test_mov_immediate(self):
        w = make_warp("    mov.s32 r_a, 7\n    exit")
        w.step(GlobalMemory())
        assert (w.regs["r_a"] == 7).all()

    def test_special_registers(self):
        w = make_warp("    mov.s32 r_a, %laneid\n    exit")
        w.step(GlobalMemory())
        assert list(w.regs["r_a"]) == list(range(32))

    def test_gtid_accounts_for_cta(self):
        prog = assemble("    mov.s32 r_a, %gtid\n    exit")
        kernel = Kernel("t", prog, grid_dim=4, cta_dim=64)
        cta = CTA(kernel=kernel, cta_id=2)
        w = Warp(uid=1, cta=cta, warp_id_in_cta=1, warp_size=32)
        w.step(GlobalMemory())
        assert w.regs["r_a"][0] == 2 * 64 + 32

    def test_int_arithmetic(self):
        w = make_warp("""
            mov.s32 r_a, %laneid
            mul.s32 r_b, r_a, 3
            add.s32 r_b, r_b, 1
            rem.s32 r_c, r_b, 5
            exit
        """)
        mem = GlobalMemory()
        run_to_completion(w, mem)
        lanes = np.arange(32)
        assert (w.regs["r_b"] == lanes * 3 + 1).all()
        assert (w.regs["r_c"] == (lanes * 3 + 1) % 5).all()

    def test_trunc_division(self):
        w = make_warp("""
            mov.s32 r_a, -7
            div.s32 r_q, r_a, 2
            rem.s32 r_r, r_a, 2
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert w.regs["r_q"][0] == -3  # C-style truncation, not floor
        assert w.regs["r_r"][0] == -1

    def test_f32_ops_round(self):
        w = make_warp("""
            mov.f32 r_a, 16777216.0
            add.f32 r_b, r_a, 1.0
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert w.regs["r_b"][0] == np.float32(2 ** 24)

    def test_f32_ops_round_int_operands_to_f32_first(self):
        # 2**24 + 1 has no float32; the operand rounds before the
        # float64 add, so the sum is 0, not 1.
        w = make_warp("""
            mov.s32 r_i, 16777217
            add.f32 r_f, r_i, -16777216.0
            fma.f32 r_g, r_i, 1.0, -16777216.0
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert (w.regs["r_f"] == 0).all() and (w.regs["r_g"] == 0).all()

    def test_fma(self):
        w = make_warp("""
            mov.f32 r_a, 3.0
            fma.f32 r_d, r_a, 2.0, 0.5
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert w.regs["r_d"][0] == np.float32(6.5)

    def test_setp_and_selp(self):
        w = make_warp("""
            mov.s32 r_a, %laneid
            setp.lt.s32 p_lo, r_a, 16
            selp.s32 r_b, 1, 2, p_lo
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert (w.regs["r_b"][:16] == 1).all()
        assert (w.regs["r_b"][16:] == 2).all()

    def test_pred_logic(self):
        w = make_warp("""
            mov.s32 r_a, %laneid
            setp.lt.s32 p_lo, r_a, 16
            setp.ge.s32 p_even8, r_a, 8
            and.pred p_mid, p_lo, p_even8
            not.pred p_out, p_mid
            or.pred p_all, p_mid, p_out
            exit
        """)
        run_to_completion(w, GlobalMemory())
        mid = w.regs["p_mid"]
        assert mid[:8].sum() == 0 and mid[8:16].all() and not mid[16:].any()
        assert w.regs["p_all"].all()

    def test_cvt(self):
        w = make_warp("""
            mov.s32 r_a, 3
            cvt.f32.s32 r_f, r_a
            mov.f32 r_g, 2.75
            cvt.s32.f32 r_i, r_g
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert w.regs["r_f"][0] == np.float32(3.0)
        assert w.regs["r_i"][0] == 2  # truncation

    def test_param_registers(self):
        w = make_warp("    add.s32 r_a, c_n, 1\n    exit",
                      params={"c_n": 41, "c_f": 0.5})
        w.step(GlobalMemory())
        assert w.regs["r_a"][0] == 42
        assert w.regs["c_f"].dtype == np.float32

    def test_unwritten_register_read_raises(self):
        w = make_warp("    add.s32 r_a, r_never, 1\n    exit")
        with pytest.raises(KeyError):
            w.step(GlobalMemory())


class TestControlFlow:
    def test_guarded_off_becomes_nop(self):
        w = make_warp("""
            setp.lt.s32 p_no, 5, 1
        @p_no mov.s32 r_a, 9
            exit
        """)
        mem = GlobalMemory()
        w.step(mem)
        res = w.step(mem)
        assert res.op_class is OpClass.NOP
        assert "r_a" not in w.regs

    def test_divergent_if(self):
        w = make_warp("""
            mov.s32 r_a, 0
            mov.s32 r_l, %laneid
            setp.lt.s32 p_lo, r_l, 4
        @p_lo bra THEN
            mov.s32 r_a, 2
            bra JOIN
        THEN:
            mov.s32 r_a, 1
        JOIN:
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert (w.regs["r_a"][:4] == 1).all()
        assert (w.regs["r_a"][4:] == 2).all()

    def test_data_dependent_loop(self):
        # Each lane loops laneid+1 times.
        w = make_warp("""
            mov.s32 r_i, 0
            mov.s32 r_n, %laneid
            add.s32 r_n, r_n, 1
        LOOP:
            add.s32 r_i, r_i, 1
            setp.lt.s32 p_c, r_i, r_n
        @p_c bra LOOP
            exit
        """)
        run_to_completion(w, GlobalMemory())
        assert (w.regs["r_i"] == np.arange(32) + 1).all()

    def test_partial_cta_masks_lanes(self):
        w = make_warp("    mov.s32 r_a, 1\n    exit", cta_dim=20)
        w.step(GlobalMemory())
        assert w.stack.active_mask.sum() == 20

    def test_exit_sets_done(self):
        w = make_warp("    exit")
        res = w.step(GlobalMemory())
        assert res.exited and w.done

    def test_barrier_and_fence_flags(self):
        w = make_warp("    bar.sync\n    membar.gl\n    exit")
        mem = GlobalMemory()
        assert w.step(mem).barrier
        assert w.step(mem).fence

    def test_sleep_cycles(self):
        w = make_warp("    sleep 40\n    exit")
        assert w.step(GlobalMemory()).sleep_cycles == 40

    def test_dyn_instr_counting(self):
        w = make_warp("    mov.s32 r_a, 1\n    exit")
        run_to_completion(w, GlobalMemory())
        assert w.dyn_instrs == 2


class TestMemoryInstructions:
    def test_load_coalesces_sectors(self):
        mem = GlobalMemory()
        base = mem.alloc("a", 32, "f32", init=np.arange(32, dtype=np.float32))
        w = make_warp("""
            mov.s32 r_l, %laneid
            shl.s32 r_off, r_l, 2
            add.s32 r_addr, c_a, r_off
            ld.global.f32 r_v, [r_addr]
            exit
        """, params={"c_a": base})
        mem_res = None
        for _ in range(4):
            mem_res = w.step(mem)
        assert mem_res.mem.kind == "load"
        # 32 lanes x 4B = 128B = 4 sectors of 32B
        assert len(mem_res.mem.sectors) == 4
        assert (w.regs["r_v"] == np.arange(32, dtype=np.float32)).all()

    def test_store_applies_at_issue(self):
        mem = GlobalMemory()
        base = mem.alloc("a", 32, "f32")
        w = make_warp("""
            mov.s32 r_l, %laneid
            shl.s32 r_off, r_l, 2
            add.s32 r_addr, c_a, r_off
            cvt.f32.s32 r_v, r_l
            st.global.f32 [r_addr], r_v
            exit
        """, params={"c_a": base})
        run_to_completion(w, mem)
        assert (mem.buffer("a") == np.arange(32, dtype=np.float32)).all()

    def test_red_produces_lane_ordered_ops(self):
        mem = GlobalMemory()
        base = mem.alloc("out", 1, "f32")
        w = make_warp("""
            cvt.f32.s32 r_v, %laneid
            red.global.add.f32 [c_out], r_v
            exit
        """, params={"c_out": base})
        w.step(mem)
        res = w.step(mem)
        ops = res.mem.red_ops
        assert len(ops) == 32
        assert [op.operands[0] for op in ops] == list(range(32))
        # functional effect deferred: memory unchanged at issue
        assert mem.buffer("out")[0] == 0.0

    def test_peek_red_ops_matches_step(self):
        mem = GlobalMemory()
        base = mem.alloc("out", 1, "f32")
        w = make_warp("""
            cvt.f32.s32 r_v, %laneid
            red.global.add.f32 [c_out], r_v
            exit
        """, params={"c_out": base})
        w.step(mem)
        peeked = w.peek_red_ops()
        res = w.step(mem)
        assert peeked == res.mem.red_ops

    def test_peek_red_ops_empty_for_non_red(self):
        w = make_warp("    mov.s32 r_a, 1\n    exit")
        assert w.peek_red_ops() == ()

    def test_atom_ops_carry_lanes(self):
        mem = GlobalMemory()
        base = mem.alloc("lock", 1, "s32")
        w = make_warp("""
            atom.global.exch.s32 r_old, [c_l], 1
            exit
        """, params={"c_l": base}, cta_dim=4)
        res = w.step(mem)
        assert res.mem.kind == "atom"
        assert [l for l, _ in res.mem.atom_ops] == [0, 1, 2, 3]
        assert res.mem.atom_dst == "r_old"

    def test_write_atom_result(self):
        w = make_warp("    mov.s32 r_a, 0\n    exit")
        w.write_atom_result("r_old", 3, 42)
        assert w.regs["r_old"][3] == 42

    def test_next_is_atomic(self):
        mem = GlobalMemory()
        base = mem.alloc("out", 1, "f32")
        w = make_warp("""
            mov.f32 r_v, 1.0
            red.global.add.f32 [c_out], r_v
            exit
        """, params={"c_out": base})
        assert not w.next_is_atomic()
        w.step(mem)
        assert w.next_is_atomic()


class TestDecodeTable:
    """A Program's decoded executors are shared by every warp that runs
    it (they are cached on the Program), so they must hold no state a
    warp can change."""

    SOURCE = """
        mov.s32 r_a, 5
        mov.s32 r_b, r_a
        mov.f32 r_f, 1.5
        mov.s32 r_l, %laneid
        setp.lt.s32 p_lo, r_l, 8
    @p_lo add.s32 r_a, r_a, 1
    @p_lo mov.s32 r_b, 9
    @p_lo add.f32 r_f, r_f, 1.0
        mov.s32 r_c, 7
    @p_lo mov.s32 r_c, r_l
        exit
    """

    @staticmethod
    def _run(prog, cta_dim):
        kernel = Kernel("t", prog, grid_dim=1, cta_dim=cta_dim)
        w = Warp(uid=1, cta=CTA(kernel=kernel, cta_id=0), warp_id_in_cta=0,
                 warp_size=32)
        run_to_completion(w, GlobalMemory())
        return w.regs

    @staticmethod
    def _assert_own_writable_arrays(regs):
        arrays = list(regs.items())
        for i, (name, a) in enumerate(arrays):
            assert a.flags.writeable, f"{name} is a read-only constant"
            for other, b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), f"{name} aliases {other}"

    @pytest.mark.parametrize("order", [(20, 32), (32, 20)])
    def test_runs_do_not_leak_into_each_other(self, order):
        shared = assemble(self.SOURCE)
        for cta_dim in order:
            regs = self._run(shared, cta_dim)
            fresh = self._run(assemble(self.SOURCE), cta_dim)
            assert sorted(regs) == sorted(fresh)
            for name in fresh:
                assert regs[name].dtype == fresh[name].dtype, name
                assert regs[name].tobytes() == fresh[name].tobytes(), name
            self._assert_own_writable_arrays(regs)
        assert sorted(shared.decoded) == [32]

    def test_program_pickles_after_decode(self):
        import pickle

        prog = assemble(self.SOURCE)
        regs = self._run(prog, 32)
        copy = pickle.loads(pickle.dumps(prog))
        assert copy == prog and copy.decoded == {}
        again = self._run(copy, 32)
        assert all(again[n].tobytes() == regs[n].tobytes() for n in regs)

    def test_decoded_constants_are_read_only(self):
        from repro.arch.warp import decode

        def arrays(obj, seen):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item, seen)
            elif callable(obj):
                for cell in getattr(obj, "__closure__", None) or ():
                    yield from arrays(cell.cell_contents, seen)

        prog = assemble(self.SOURCE + """
            ld.global.s32 r_v, [64]
            red.global.add.f32 [r_a+4], 2.0
            atom.global.cas.s32 r_o, [r_b-4], 1, r_c
            exit
        """)
        seen = set()
        found = [a for ex in decode(prog, 32)
                 for fn in (ex.guard, ex.run, ex.red_ops)
                 for a in arrays(fn, seen)]
        assert len(found) >= 8
        assert not any(a.flags.writeable for a in found)
