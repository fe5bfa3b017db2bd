"""IR: operands, operations, statements, builder, printer."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.ir import (
    FLOAT,
    INT,
    ArrayDecl,
    ForLoop,
    IfStmt,
    Imm,
    Opcode,
    Operation,
    Program,
    ProgramBuilder,
    Reg,
    format_program,
    format_stmts,
)
from repro.ir.operands import as_operand
from repro.ir.ops import evaluate


class TestOperands:
    def test_reg_identity_by_name(self):
        assert Reg("x") == Reg("x")
        assert Reg("x") != Reg("y")

    def test_reg_kind(self):
        assert Reg("x", FLOAT).is_float
        assert not Reg("x").is_float

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Reg("x", "complex")

    def test_imm_kind_follows_value(self):
        assert Imm(3).kind == INT
        assert Imm(3.0).kind == FLOAT

    def test_as_operand_coerces_numbers(self):
        assert as_operand(5) == Imm(5)
        assert as_operand(2.5) == Imm(2.5)
        assert as_operand(True) == Imm(1)

    def test_as_operand_passes_regs(self):
        reg = Reg("x")
        assert as_operand(reg) is reg

    def test_as_operand_rejects_strings(self):
        with pytest.raises(TypeError):
            as_operand("x")

    def test_pickled_reg_keys_found_under_another_hash_seed(self, tmp_path):
        """A register's hash is cached, but never pickled: string hashes
        are salted per process, and the schedule cache and process
        workers move registers between processes."""
        path = tmp_path / "regs.pkl"
        make = ("{Reg(f'v{i}', FLOAT if i % 2 else INT): i"
                " for i in range(64)}")
        steps = [
            ("1", f"pickle.dump({make}, open({str(path)!r}, 'wb'))"),
            ("2", f"loaded = pickle.load(open({str(path)!r}, 'rb'))\n"
                  f"assert all(loaded[reg] == i for reg, i in {make}.items())"
                  "\nassert all(loaded[reg] == i for reg, i in"
                  " loaded.items())"),
        ]
        src = str(pathlib.Path(repro.__file__).parents[1])
        for seed, body in steps:
            subprocess.run(
                [sys.executable, "-c",
                 "import pickle\nfrom repro.ir import FLOAT, INT, Reg\n"
                 + body],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                check=True,
            )


class TestOperation:
    def test_binary_arity_checked(self):
        with pytest.raises(ValueError):
            Operation(Opcode.ADD, Reg("x"), (Imm(1),))

    def test_unary_arity_checked(self):
        with pytest.raises(ValueError):
            Operation(Opcode.NEG, Reg("x"), (Imm(1), Imm(2)))

    def test_load_requires_array(self):
        with pytest.raises(ValueError):
            Operation(Opcode.LOAD, Reg("x", FLOAT), (Imm(0),))

    def test_store_requires_two_sources(self):
        with pytest.raises(ValueError):
            Operation(Opcode.STORE, None, (Imm(0),), array="a")

    def test_store_must_have_no_dest(self):
        with pytest.raises(ValueError):
            Operation(Opcode.STORE, Reg("x"), (Imm(0), Imm(1)), array="a")

    def test_src_regs_filters_immediates(self):
        op = Operation(Opcode.ADD, Reg("x"), (Reg("y"), Imm(1)))
        assert op.src_regs == (Reg("y"),)

    def test_with_operands_preserves_memory_fields(self):
        op = Operation(Opcode.LOAD, Reg("x", FLOAT), (Reg("i"),),
                       array="a", offset=3)
        renamed = op.with_operands(Reg("z", FLOAT), (Reg("j"),))
        assert renamed.array == "a"
        assert renamed.offset == 3

    def test_is_memory_and_control(self):
        load = Operation(Opcode.LOAD, Reg("x", FLOAT), (Imm(0),), array="a")
        assert load.is_memory and not load.is_control
        jump = Operation(Opcode.CJUMP, target="L")
        assert jump.is_control and not jump.is_memory


class TestEvaluate:
    @pytest.mark.parametrize(
        "opcode,args,expected",
        [
            (Opcode.ADD, (2, 3), 5),
            (Opcode.SUB, (2, 3), -1),
            (Opcode.MUL, (4, 3), 12),
            (Opcode.DIV, (7, 2), 3),
            (Opcode.DIV, (-7, 2), -3),  # truncating, like hardware
            (Opcode.MOD, (7, 2), 1),
            (Opcode.LT, (1, 2), 1),
            (Opcode.GE, (1, 2), 0),
            (Opcode.FADD, (1.5, 2.5), 4.0),
            (Opcode.FDIV, (1.0, 4.0), 0.25),
            (Opcode.FMAX, (1.0, 2.0), 2.0),
            (Opcode.F2I, (2.9,), 2),
            (Opcode.I2F, (2,), 2.0),
            (Opcode.FABS, (-3.5,), 3.5),
            (Opcode.NOT, (0,), -1),
            (Opcode.SHL, (1, 4), 16),
        ],
    )
    def test_values(self, opcode, args, expected):
        assert evaluate(opcode, *args) == expected

    def test_division_by_zero_yields_zero(self):
        assert evaluate(Opcode.DIV, 1, 0) == 0
        assert evaluate(Opcode.FDIV, 1.0, 0.0) == 0.0

    def test_memory_opcode_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Opcode.LOAD, 0)


class TestStatements:
    def test_trip_count_static(self):
        loop = ForLoop(Reg("i"), Imm(0), Imm(9), [])
        assert loop.trip_count == 10

    def test_trip_count_with_step(self):
        loop = ForLoop(Reg("i"), Imm(0), Imm(9), [], step=2)
        assert loop.trip_count == 5

    def test_trip_count_downto(self):
        loop = ForLoop(Reg("i"), Imm(9), Imm(0), [], step=-1)
        assert loop.trip_count == 10

    def test_trip_count_empty(self):
        loop = ForLoop(Reg("i"), Imm(5), Imm(0), [])
        assert loop.trip_count == 0

    def test_trip_count_dynamic(self):
        loop = ForLoop(Reg("i"), Imm(0), Reg("n"), [])
        assert loop.trip_count is None

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            ForLoop(Reg("i"), Imm(0), Imm(9), [], step=0)

    def test_float_induction_rejected(self):
        with pytest.raises(ValueError):
            ForLoop(Reg("i", FLOAT), Imm(0), Imm(9), [])

    def test_array_decl_validation(self):
        with pytest.raises(ValueError):
            ArrayDecl("a", 0)
        with pytest.raises(ValueError):
            ArrayDecl("a", 4, "string")

    def test_program_declare_rejects_duplicates(self):
        program = Program("p")
        program.declare("a", 4)
        with pytest.raises(ValueError):
            program.declare("a", 8)

    def test_inner_loops_finds_innermost_only(self):
        pb = ProgramBuilder("nest")
        pb.array("a", 64)
        with pb.loop("i", 0, 3) as bi:
            with bi.loop("j", 0, 3) as bj:
                bj.store("a", bj.var, 1.0)
        program = pb.finish()
        inner = program.inner_loops()
        assert len(inner) == 1
        assert inner[0].var.name == "j"

    def test_inner_loops_inside_conditionals(self):
        pb = ProgramBuilder("condloop")
        pb.array("a", 64)
        flag = pb.mov(1)
        with pb.if_(flag) as (then, _):
            with then.loop("i", 0, 3) as body:
                body.store("a", body.var, 1.0)
        assert len(pb.finish().inner_loops()) == 1


class TestBuilder:
    def test_opcode_methods_via_getattr(self):
        pb = ProgramBuilder("b")
        dest = pb.fadd(1.0, 2.0)
        assert dest.is_float
        op = pb.finish().body[0]
        assert op.opcode is Opcode.FADD

    def test_unknown_opcode_attribute_raises(self):
        pb = ProgramBuilder("b")
        with pytest.raises(AttributeError):
            pb.frobnicate(1)

    def test_load_infers_dest_kind_from_array(self):
        pb = ProgramBuilder("b")
        pb.array("ints", 8, INT)
        dest = pb.load("ints", 0)
        assert dest.kind == INT

    def test_loop_context_exposes_var(self):
        pb = ProgramBuilder("b")
        with pb.loop("i", 0, 9) as body:
            assert body.var == Reg("i", INT)

    def test_nested_if_builders_target_arms(self):
        pb = ProgramBuilder("b")
        cond = pb.mov(1)
        with pb.if_(cond) as (then, other):
            then.mov(1)
            other.mov(2)
        stmt = pb.finish().body[-1]
        assert isinstance(stmt, IfStmt)
        assert len(stmt.then_body) == 1
        assert len(stmt.else_body) == 1


class TestPrinter:
    def test_format_program_includes_arrays_and_loops(self):
        pb = ProgramBuilder("show")
        pb.array("a", 16)
        with pb.loop("i", 0, 3) as body:
            body.store("a", body.var, 1.0)
        text = format_program(pb.finish())
        assert "program show:" in text
        assert "array a[16] of float" in text
        assert "for %i := #0 to #3" in text

    def test_format_if_with_else(self):
        pb = ProgramBuilder("p")
        cond = pb.mov(1)
        with pb.if_(cond) as (then, other):
            then.mov(2)
            other.mov(3)
        text = format_stmts(pb.finish().body)
        assert "if" in text and "else" in text
