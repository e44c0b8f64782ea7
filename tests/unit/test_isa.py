"""Unit tests for the mini-PTX assembler and CFG analysis."""

import pytest

from repro.arch.isa import ISAError, MemOperand, OpClass, assemble


def asm(body: str):
    return assemble(body + "\n    exit\n")


class TestParsing:
    def test_simple_program(self):
        p = asm("    mov.s32 r_a, 5\n    add.s32 r_b, r_a, 1")
        assert len(p) == 3
        assert p[0].opcode == "mov.s32"
        assert p[0].dst == "r_a"
        assert p[0].srcs == (5,)

    def test_float_immediate(self):
        p = asm("    mov.f32 r_x, 1.5")
        assert p[0].srcs == (1.5,)

    def test_negative_immediate(self):
        p = asm("    mov.s32 r_x, -3")
        assert p[0].srcs == (-3,)

    def test_hex_immediate(self):
        p = asm("    mov.s32 r_x, 0x10")
        assert p[0].srcs == (16,)

    @pytest.mark.parametrize("tok,value", [("-0x10", -16), ("+0x1e", 30),
                                           ("-0x1E", -30)])
    def test_signed_hex_immediate(self, tok, value):
        p = asm(f"    mov.s32 r_x, {tok}")
        assert p[0].srcs == (value,)

    @pytest.mark.parametrize("text,mem", [
        ("[r_b-4]", MemOperand("r_b", -4)),
        ("[r_b - 0x10]", MemOperand("r_b", -16)),
        ("[ r_b + 8 ]", MemOperand("r_b", 8)),
        ("[-0x10]", MemOperand(None, -16)),
    ])
    def test_memory_operand_signed_offset(self, text, mem):
        p = asm(f"    ld.global.s32 r_x, {text}")
        assert p[0].mem == mem
        assert asm(f"    ld.global.s32 r_x, {p[0].mem}")[0].mem == mem

    def test_memory_operand_with_offset(self):
        p = asm("    ld.global.s32 r_x, [r_a+4]")
        assert p[0].mem == MemOperand("r_a", 4)

    def test_memory_operand_absolute(self):
        p = asm("    ld.global.f32 r_x, [0x1000]")
        assert p[0].mem == MemOperand(None, 0x1000)

    def test_guard_parsing(self):
        p = asm("    setp.lt.s32 p_x, 1, 2\n@p_x mov.s32 r_a, 1")
        assert p[1].guard == "p_x"
        assert not p[1].guard_negated

    def test_negated_guard(self):
        p = asm("    setp.lt.s32 p_x, 1, 2\n@!p_x mov.s32 r_a, 1")
        assert p[1].guard_negated

    def test_comments_stripped(self):
        p = asm("    mov.s32 r_a, 1 // a comment\n    # whole line comment")
        assert len(p) == 2

    def test_labels_resolve(self):
        p = assemble("""
            bra END
        END:
            exit
        """)
        assert p[0].target_pc == 1

    def test_store_has_no_dst(self):
        p = asm("    st.global.f32 [r_a], r_v")
        assert p[0].dst is None
        assert p[0].srcs == ("r_v",)

    def test_red_classification(self):
        p = asm("    red.global.add.f32 [r_a], r_v")
        assert p[0].op_class is OpClass.MEM_RED
        assert p[0].is_atomic and p[0].is_reduction

    def test_atom_classification(self):
        p = asm("    atom.global.exch.s32 r_old, [r_a], 1")
        assert p[0].op_class is OpClass.MEM_ATOM
        assert p[0].is_atomic and not p[0].is_reduction

    def test_registers_listing(self):
        p = asm("    add.s32 r_b, r_a, c_n")
        assert set(p.registers) >= {"r_a", "r_b", "c_n"}

    def test_static_atomic_count(self):
        p = asm("    red.global.add.f32 [r_a], r_v\n    red.global.max.s32 [r_a], r_v")
        assert p.static_atomic_count() == 2

    def test_str_roundtrip_contains_opcode(self):
        p = asm("    fma.f32 r_a, r_b, r_c, r_d")
        assert "fma.f32" in str(p[0])


class TestValidation:
    def test_unknown_opcode(self):
        with pytest.raises(ISAError):
            asm("    frobnicate r_a, r_b")

    def test_missing_exit(self):
        with pytest.raises(ISAError):
            assemble("    mov.s32 r_a, 1")

    def test_undefined_label(self):
        with pytest.raises(ISAError):
            assemble("    bra NOWHERE\n    exit")

    def test_duplicate_label(self):
        with pytest.raises(ISAError):
            assemble("A:\n    nop\nA:\n    exit")

    def test_memory_op_requires_global(self):
        with pytest.raises(ISAError):
            asm("    ld.shared.f32 r_x, [r_a]")

    def test_memory_op_requires_address(self):
        with pytest.raises(ISAError):
            asm("    ld.global.f32 r_x, r_a")

    def test_ld_requires_dst(self):
        with pytest.raises(ISAError):
            asm("    ld.global.f32 [r_a]")

    def test_bad_red_op(self):
        with pytest.raises(ISAError):
            asm("    red.global.exch.s32 [r_a], 1")

    def test_bad_setp(self):
        with pytest.raises(ISAError):
            asm("    setp.wat.s32 p_x, 1, 2")

    def test_bra_needs_label(self):
        with pytest.raises(ISAError):
            asm("    bra")

    def test_unbalanced_brackets(self):
        with pytest.raises(ISAError):
            asm("    ld.global.f32 r_x, [r_a")

    def test_guard_without_instruction(self):
        with pytest.raises(ISAError):
            asm("@p_x")

    @pytest.mark.parametrize("line", [
        "mov.s32 r_a",                      # 1 source
        "cvt.f32.s32 r_a",
        "abs.s32 r_a, r_b, r_c",
        "not.pred p_a, p_b, p_c",
        "add.s32 r_a, r_b",                 # 2 sources
        "setp.lt.s32 p_a, r_b",
        "div.s32 r_a, r_b, r_c, r_d",
        "fma.f32 r_a, 1.0, 2.0",            # 3 sources
        "mad.s32 r_a, r_b, r_c",
        "selp.s32 r_a, 1, 2",
        "add.s32 r_a, r_b, [r_c]",          # no memory operand
    ])
    def test_alu_arity_checked(self, line):
        with pytest.raises(ISAError, match="source operand"):
            asm("    " + line)

    @pytest.mark.parametrize("line", [
        "sqrt.f32 r_a, r_b",                # SFU roots without executors
        "rcp.f32 r_a, r_b",
        "rem.f32 r_a, r_b, r_c",            # no f32 executor
        "and.f32 r_a, r_b, r_c",
        "shl.f32 r_a, r_b, 1",
        "shr.f32 r_a, r_b, 1",
        "add.pred p_a, p_b, p_c",
        "not.s32 r_a, r_b",
        "add r_a, r_b, r_c",                # untyped
        "cvt.f32 r_a, r_b",
        "cvt.f64.s32 r_a, r_b",
    ])
    def test_alu_opcode_needs_an_executor(self, line):
        with pytest.raises(ISAError):
            asm("    " + line)

    @pytest.mark.parametrize("line", [
        "st.global.s32 [r_a]",
        "red.global.add.f32 [r_a], r_v, r_w",
        "atom.global.cas.s32 r_o, [r_a], 1",
        "atom.global.exch.s32 r_o, [r_a]",
        "ld.global.s32 r_x, [r_a], r_b",
    ])
    def test_memory_value_operands_checked(self, line):
        with pytest.raises(ISAError, match="value operand"):
            asm("    " + line)

    @pytest.mark.parametrize("line", [
        "and.s32 r_a, r_b, 1.5",
        "shl.s32 r_a, r_b, 2.0",
        "add.s32 r_a, 1.5, r_b",
        "selp.s32 r_a, 0.5, 1, p_c",
        "st.global.s32 [r_a], 1.5",
        "atom.global.cas.s32 r_o, [r_a], 1, 2.0",
    ])
    def test_float_immediate_in_integer_operand_rejected(self, line):
        with pytest.raises(ISAError, match="float immediate"):
            asm("    " + line)

    def test_float_immediates_where_floats_or_predicates_are_read(self):
        asm("    add.f32 r_a, r_b, 1.5\n    selp.s32 r_a, 1, 2, 0.5\n"
            "    st.global.f32 [r_a], -0.5")

    @pytest.mark.parametrize("text", ["[r_b*4]", "[r_b+1.5]", "[r_b+r_c]",
                                      "[r_b+]", "[]", "[4+r_b]"])
    def test_bad_address_rejected(self, text):
        with pytest.raises(ISAError):
            asm(f"    ld.global.s32 r_x, {text}")


class TestReconvergence:
    def test_if_then_reconverges_at_skip_target(self):
        p = assemble("""
            setp.lt.s32 p_c, 1, 2
        @p_c bra SKIP
            mov.s32 r_a, 1
        SKIP:
            exit
        """)
        bra = p[1]
        assert bra.reconv_pc == p.labels["SKIP"]

    def test_if_then_else_reconverges_at_join(self):
        p = assemble("""
            setp.lt.s32 p_c, 1, 2
        @p_c bra THEN
            mov.s32 r_a, 1
            bra JOIN
        THEN:
            mov.s32 r_a, 2
        JOIN:
            exit
        """)
        cond = p[1]
        assert cond.reconv_pc == p.labels["JOIN"]

    def test_loop_backedge_reconverges_after_branch(self):
        p = assemble("""
            mov.s32 r_i, 0
        LOOP:
            add.s32 r_i, r_i, 1
            setp.lt.s32 p_c, r_i, 10
        @p_c bra LOOP
            exit
        """)
        backedge = p[3]
        assert backedge.reconv_pc == 4  # the instruction after the branch

    def test_unconditional_bra_has_no_reconv_requirement(self):
        p = assemble("""
            bra END
        END:
            exit
        """)
        assert p[0].reconv_pc == -1  # only conditional branches get one

    def test_nested_if(self):
        p = assemble("""
            setp.lt.s32 p_a, 1, 2
        @p_a bra OUTER
            setp.lt.s32 p_b, 3, 4
        @p_b bra INNER
            mov.s32 r_x, 0
        INNER:
            mov.s32 r_y, 1
        OUTER:
            exit
        """)
        assert p[1].reconv_pc == p.labels["OUTER"]
        assert p[3].reconv_pc == p.labels["INNER"]
