"""The translating simulator against the cycle-stepping oracle.

``tests/stepper.py`` keeps the interpretive executor the translator
replaced.  Both run the same emitted code here: the paper's programs in
both variants, a 72-program suite, seeded audit programs, and random
hand-built region trees that reach shapes the compiler never emits
(writes pending across region boundaries, predicates and latencies
crossing kernel passes, zero-latency writes).  Every ``SimStats`` field,
memory cell and register must agree, and an injected hazard must fail both
with the same kind of error.
"""

import dataclasses
import random

import pytest

from repro import CompilerPolicy, compile_source
from repro.audit.generate import ProgramConfig, random_program
from repro.core.emit import (
    BlockRegion,
    CodeObject,
    CondRegion,
    GuardedRegion,
    PipelinedLoopRegion,
    PipelinePasses,
    RegisterPressureError,
    SequentialLoopRegion,
    SlotOp,
    TripSpec,
    WideInstruction,
)
from repro.ir import FLOAT, Imm, Opcode, Operation, Program, Reg
from repro.machine import WARP, make_warp
from repro.simulator import (
    SimulationError,
    VLIWSimulator,
    translate,
    values_match,
)
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite
from stepper import SteppingSimulator

HAZARDS = ("collision", "undefined register", "out of bounds",
           "consulted before its dispatch", "exceeded")


def _outcome(simulator, code, **kwargs):
    """Statistics, memory and registers, or the hazard kind raised."""
    sim = simulator(code, **kwargs)
    try:
        stats = sim.run()
    except SimulationError as error:
        kinds = [kind for kind in HAZARDS if kind in str(error)]
        assert len(kinds) == 1, str(error)
        return kinds[0]
    return dataclasses.astuple(stats), sim.memory, sim.regs


def _same(a, b) -> bool:
    return a.keys() == b.keys() and all(values_match(a[k], b[k]) for k in a)


def assert_agree(code, **kwargs):
    translated = _outcome(VLIWSimulator, code, **kwargs)
    stepped = _outcome(SteppingSimulator, code, **kwargs)
    if isinstance(stepped, str) or isinstance(translated, str):
        assert translated == stepped
        return translated
    assert translated[0] == stepped[0], "statistics differ"
    assert _same(translated[1], stepped[1]), "memory differs"
    assert _same(translated[2], stepped[2]), "registers differ"
    return "ok"


# -- compiled programs --------------------------------------------------------

PAPER = [
    (f"livermore{number}", kernel.source)
    for number, kernel in sorted(LIVERMORE_KERNELS.items())
] + [(name, program.source) for name, program in sorted(USER_PROGRAMS.items())]

VARIANTS = {"pipelined": CompilerPolicy(),
            "unpipelined": CompilerPolicy(pipeline=False)}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(("name", "source"), PAPER,
                         ids=[name for name, _ in PAPER])
def test_paper_programs(name, source, variant):
    assert assert_agree(compile_source(source, WARP, VARIANTS[variant]).code
                        ) == "ok"


def test_suite_slice():
    for program in generate_suite(seed=1):
        for policy in VARIANTS.values():
            code = compile_source(program.source, WARP, policy).code
            assert assert_agree(code) == "ok", program.name


def test_audit_programs():
    checked = 0
    for seed in range(60):
        generated = random_program(seed, ProgramConfig())
        try:
            code = compile_source(generated.source, WARP).code
        except RegisterPressureError:
            continue
        assert assert_agree(code) == "ok", generated.name
        checked += 1
    assert checked > 40


def test_generated_names_repeat_from_run_to_run():
    """What the translator keeps across runs is the set of names generated
    code used; running the same programs again adds none."""
    codes = [compile_source(source, WARP, policy).code
             for _, source in PAPER[::4] for policy in VARIANTS.values()]
    for code in codes:
        VLIWSimulator(code).run()
    names = set(translate._NAMES)
    for code in codes:
        VLIWSimulator(code).run()
    assert translate._NAMES == names


# -- hazards injected into compiled code --------------------------------------


def _kernel(code):
    def walk(regions):
        for region in regions:
            if isinstance(region, PipelinedLoopRegion):
                return region
            for arm in ("body", "main", "fallback", "then_regions",
                        "else_regions"):
                found = walk(getattr(region, arm, []))
                if found is not None:
                    return found
        return None
    return walk(code.regions)


def _compiled():
    return compile_source(LIVERMORE_KERNELS[1].source, WARP).code


def _slots(words, opcode):
    return [(word, i) for word in words for i, slot in enumerate(word.slots)
            if slot.op.opcode is opcode]


def test_injected_collision():
    code = _compiled()
    region = _kernel(code)
    word, i = _slots(region.kernel, Opcode.FMUL)[0]
    word.slots.append(word.slots[i])     # a second, identical write
    assert assert_agree(code) == "collision"


def test_injected_undefined_register():
    code = _compiled()
    word, i = _slots(_kernel(code).kernel, Opcode.FMUL)[0]
    op = word.slots[i].op
    word.slots[i] = SlotOp(op.with_operands(op.dest, (Reg("R999", FLOAT),
                                                      op.srcs[1])))
    assert assert_agree(code) == "undefined register"


def test_injected_out_of_bounds():
    code = _compiled()
    word, i = _slots(_kernel(code).kernel, Opcode.STORE)[0]
    op = word.slots[i].op
    word.slots[i] = SlotOp(Operation(Opcode.STORE, None, op.srcs,
                                     array=op.array, offset=op.offset + 10**6))
    assert assert_agree(code) == "out of bounds"


def test_injected_predicate_before_dispatch():
    code = _compiled()
    word = _kernel(code).kernel[0]
    word.slots.append(SlotOp(Operation(Opcode.NOP), preds=((4242, "then"),)))
    assert assert_agree(code) == "consulted before its dispatch"


def test_injected_cycle_limit():
    code = _compiled()
    assert assert_agree(code, max_cycles=500) == "exceeded"


# -- where structural hazards are reported ------------------------------------


def _error(regions):
    program = Program("t")
    program.declare("out", 4)
    with pytest.raises(SimulationError) as info:
        VLIWSimulator(CodeObject(program, WARP, regions)).run()
    return str(info.value)


def _instr(*slots):
    return WideInstruction(list(slots))


@pytest.mark.parametrize("padding", [0, 8])
def test_collision_names_region_and_instruction(padding):
    """Found inside the block, or when the writes still pending at its
    end land."""
    x = Reg("R0", FLOAT)
    message = _error([BlockRegion([
        _instr(), _instr(), _instr(),
        _instr(SlotOp(Operation(Opcode.FADD, x, (Imm(1.0), Imm(2.0)))),
               SlotOp(Operation(Opcode.FMOV, x, (Imm(9.0),)))),
    ] + [_instr() for _ in range(padding)], label="setup")])
    assert "collision" in message
    assert "setup, instruction 3" in message


def test_predicate_order_names_region_and_instruction():
    cond = Reg("R0")
    x = Reg("R1", FLOAT)
    kernel = [
        _instr(SlotOp(Operation(Opcode.MOV, cond, (Imm(1),)))),
        _instr(SlotOp(Operation(Opcode.FMOV, x, (Imm(1.0),)),
                      iteration=0, preds=((5, "then"),))),
        _instr(SlotOp(Operation(Opcode.CBR, srcs=(cond,)), iteration=0,
                      cbr_uid=5)),
    ]
    message = _error([PipelinedLoopRegion([], kernel, [], 3, 1, 0, 3,
                                          label="L1(i)")])
    assert "consulted before its dispatch" in message
    assert "L1(i) kernel, instruction 1" in message


# -- deliberate divergences from the stepper ----------------------------------


def _negative_passes_loop(epilog_preds):
    """A pipelined loop whose pass count evaluates to -1: trip count 1, two
    iterations started in the prolog.  Compiled code never enters one, as
    its guard asks for a trip count of at least k + u."""
    cond, x = Reg("R0"), Reg("R1", FLOAT)
    prolog = [
        _instr(SlotOp(Operation(Opcode.MOV, cond, (Imm(1),)))),
        _instr(SlotOp(Operation(Opcode.CBR, srcs=(cond,)), iteration=0,
                      cbr_uid=7)),
        _instr(SlotOp(Operation(Opcode.CBR, srcs=(cond,)), iteration=1,
                      cbr_uid=7)),
    ]
    kernel = [_instr(SlotOp(Operation(Opcode.FMOV, x, (Imm(2.0),))))]
    epilog = [_instr(SlotOp(Operation(Opcode.FMOV, x, (Imm(3.0),)),
                            iteration=-1, preds=epilog_preds))]
    passes = PipelinePasses(TripSpec(Imm(0), Imm(0)), 2, 1)
    program = Program("t")
    program.declare("out", 4)
    return CodeObject(program, WARP, [PipelinedLoopRegion(
        prolog, kernel, epilog, passes, 1, 2, 1, label="L1(i)")])


def test_negative_pass_count_agrees_without_predicated_epilog():
    assert assert_agree(_negative_passes_loop(())) == "ok"


def test_negative_pass_count_with_predicated_epilog_is_refused():
    """The stepper runs such an epilog with its iteration numbers shifted
    by the negative pass count, so a predicated slot consults the outcome
    of another iteration (here the prolog's iteration 0); the translator
    refuses to enter the loop."""
    code = _negative_passes_loop(((7, "then"),))
    stepper = SteppingSimulator(code)
    stepper.run()
    assert stepper.regs[Reg("R1", FLOAT)] == 3.0
    with pytest.raises(SimulationError) as info:
        VLIWSimulator(code).run()
    assert str(info.value) == (
        "pipelined loop 'L1(i)' entered with a negative pass count")


# -- random hand-built region trees -------------------------------------------


class _RandomCode:
    """Region trees of random words over a few registers: most runs end
    normally, the rest in every hazard kind."""

    def __init__(self, seed: int) -> None:
        self.rng = rng = random.Random(seed)
        count = rng.choice([3, 4, 8])
        self.ints = [Reg(f"R{i}") for i in range(count)]
        self.floats = [Reg(f"F{i}", FLOAT) for i in range(count)]
        self.uid = 0
        self.machine = (make_warp(alu_latency=rng.choice([0, 1, 2]))
                        if rng.random() < 0.3 else WARP)

    def op(self) -> Operation:
        rng, ints, floats = self.rng, self.ints, self.floats
        pick = rng.random()
        if pick < 0.2:
            return Operation(Opcode.FADD, rng.choice(floats),
                             (rng.choice(floats + [Imm(1.5)]), Imm(0.25)))
        if pick < 0.35:
            return Operation(Opcode.ADD, rng.choice(ints),
                             (rng.choice(ints + [Imm(1)]), Imm(1)))
        if pick < 0.45:
            return Operation(Opcode.MOV, rng.choice(ints),
                             (Imm(rng.randrange(7)),))
        if pick < 0.55:
            return Operation(Opcode.LOAD, rng.choice(floats),
                             (rng.choice(ints + [Imm(2)]),), array="a",
                             offset=rng.randrange(4))
        if pick < 0.65:
            return Operation(Opcode.STORE, None,
                             (Imm(rng.randrange(8)),
                              rng.choice(floats + [Imm(2.0)])), array="a")
        if pick < 0.75:
            return Operation(Opcode.FMUL, rng.choice(floats),
                             (rng.choice(floats), rng.choice(floats)))
        if pick < 0.85:
            return Operation(Opcode.LT, rng.choice(ints),
                             (rng.choice(ints), Imm(3)))
        return Operation(Opcode.NOP)

    def words(self, count: int, iterations=(0,)) -> list[WideInstruction]:
        rng = self.rng
        words, dispatched = [], []
        for _ in range(count):
            slots = []
            for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
                iteration = rng.choice(iterations)
                if rng.random() < 0.12:
                    self.uid += 1
                    slots.append(SlotOp(
                        Operation(Opcode.CBR, srcs=(rng.choice(self.ints),)),
                        iteration=iteration, cbr_uid=self.uid))
                    dispatched.append((self.uid, iteration))
                    continue
                preds = ()
                if dispatched and rng.random() < 0.4:
                    uid, known = rng.choice(dispatched)
                    if rng.random() < 0.5:
                        iteration = known
                    preds = ((uid, rng.choice(["then", "else"])),)
                slots.append(SlotOp(self.op(), iteration=iteration,
                                    preds=preds))
            words.append(WideInstruction(slots))
        return words

    def regions(self, depth: int = 0) -> list:
        rng = self.rng
        regions = []
        for _ in range(rng.randrange(1, 4)):
            pick = rng.random()
            trip = TripSpec(Imm(0), rng.choice(self.ints))
            if pick < 0.45 or depth > 2:
                regions.append(BlockRegion(self.words(rng.randrange(9)),
                                           label="block"))
            elif pick < 0.6:
                regions.append(SequentialLoopRegion(
                    self.regions(depth + 1), rng.choice([0, 2, trip])))
            elif pick < 0.8:
                u, k = rng.randrange(1, 3), rng.randrange(3)
                regions.append(PipelinedLoopRegion(
                    self.words(rng.randrange(5), list(range(k)) or [0]),
                    self.words(rng.randrange(1, 6),
                               list(range(max(0, k - 2), k + u))),
                    self.words(rng.randrange(6),
                               [-j for j in range(1, k + 1)] or [0]),
                    rng.choice([0, 1, 5, trip]), u, k, 1, label="pipe"))
            elif pick < 0.9:
                regions.append(GuardedRegion(trip, 2, self.regions(depth + 1),
                                             self.regions(depth + 1)))
            else:
                regions.append(CondRegion(rng.choice(self.ints),
                                          self.regions(depth + 1),
                                          self.regions(depth + 1)))
        return regions

    def code(self) -> CodeObject:
        program = Program("random")
        program.declare("a", 8)
        seed = _instr(*(
            SlotOp(Operation(Opcode.MOV if reg.kind != FLOAT else Opcode.FMOV,
                             reg, (Imm(self.rng.randrange(5)
                                       if reg.kind != FLOAT else 0.5),)))
            for reg in self.ints + self.floats if self.rng.random() < 0.95
        ))
        setup = BlockRegion([seed] + [_instr() for _ in range(7)])
        return CodeObject(program, self.machine, [setup] + self.regions())


def test_random_region_trees():
    seen = set()
    for seed in range(800):
        seen.add(assert_agree(_RandomCode(seed).code()))
    assert seen == {"ok", *HAZARDS[:-1]}


def test_random_region_trees_under_a_cycle_limit():
    """With a limit close to the run length, the translator may report the
    limit on entry to a stretch in which the stepper first meets another
    hazard; otherwise the two agree."""
    stepped_kinds = set()
    for seed in range(150):
        code = _RandomCode(seed).code()
        stepped = _outcome(SteppingSimulator, code, max_cycles=40)
        stepped_kinds.add(stepped if isinstance(stepped, str) else "ok")
        if (isinstance(stepped, str)
                and _outcome(VLIWSimulator, code, max_cycles=40)
                == "exceeded"):
            continue
        assert_agree(code, max_cycles=40)
    assert "exceeded" in stepped_kinds


def test_cells_of_undeclared_arrays_survive_a_run():
    """The run holds the declared arrays apart from ``memory`` and writes
    them back; any other cell a caller put there stays."""
    simulator = VLIWSimulator(_compiled())
    simulator.memory[("scratch", 0)] = 1.5
    simulator.run()
    assert simulator.memory[("scratch", 0)] == 1.5
    assert all(key in simulator.memory
               for key in SteppingSimulator(_compiled()).memory)
