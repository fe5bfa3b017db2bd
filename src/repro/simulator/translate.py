"""Translation of emitted VLIW code into Python functions.

Every latency on the machine is static, so the cycle at which each write
commits is known when the code is translated.  The translator turns each
*unit* of the region tree -- the program's top-level region list, each
sequential-loop body, each arm of a two-version or conditional dispatch --
into one generated Python function, the first time the unit is entered.
A long software-pipelined loop gets three more, for its prolog, kernel
passes and epilog.

* Physical registers become closure cells shared by every function of one
  run, so reading a register that was never written raises ``NameError``
  at the read; the simulator reports it as an undefined-register read.
* Arrays become one ``dict`` per array, keyed by element number.
* A register write becomes an assignment to a temporary at its issue cycle
  and an assignment to the register at its commit cycle, or one assignment
  at issue when nothing reads or writes the register in between.  A store
  lands at issue, or at the end of its word when a later slot of the word
  uses the same array.
* Writes still pending where one straight-line stretch ends flow into the
  next stretch as translation-time state.  A software-pipelined kernel
  keeps them in loop-carried locals rotated once per pass.  Only a call
  into another unit passes them through the run's ``carry`` list, and a
  unit entered with a non-empty list is translated again for exactly that
  list (a case only hand-built code reaches).
* ``cbr`` outcomes become locals, resolved per region at translation time;
  predicated slots become ``if`` blocks.
* Cycle and operation counts are added once per stretch, loop pass or
  executed predicated group, never per cycle; empty words emit no code.

:mod:`repro.simulator.stretch` analyses straight-line code,
:mod:`repro.simulator.writer` writes it, :mod:`repro.simulator.units`
writes the control flow of a unit, and this module owns a run: names,
compilation, the lazily translated units and the hazard reports.

Structural hazards -- two writes to one register committing in the same
cycle, a predicate consulted before a dispatch in its region recorded it --
are found while translating and become a raising statement at the point
where the hazard happens, naming the region label and instruction index.
Bounds, undefined registers, same-cycle stores to one address and the
``max_cycles`` guard (checked once per stretch and once per loop pass) stay
run-time checks.
"""

from __future__ import annotations

import math
import types
from typing import Callable, Optional

from repro.core.emit import CodeObject, Region, WideInstruction
from repro.ir.operands import Reg
from repro.ir.ops import Opcode
from repro.simulator.executor import SimulationError
from repro.simulator.stretch import Pending, State
from repro.simulator.units import Unit
from repro.simulator.writer import TEMPLATES


#: Every name generated code has used, kept for the life of the process.
#: Compiling interns a code object's names, and they leave the
#: interpreter's table of interned strings when a run's functions die; the
#: table does not reuse deleted entries, so a process translating run after
#: run would keep refilling it until it doubles.  Names are small numbers
#: that repeat from run to run, so the set stays small; it stops growing at
#: ``_NAMES_KEPT`` all the same.
_NAMES: set[str] = set()
_NAMES_KEPT = 1 << 13


class _Nothing:
    """What a temporary holds when its write, store or dispatch did not
    issue (``_N`` in generated code)."""

    def __repr__(self) -> str:
        return "_N"


class _Array(dict):
    """One array's elements by index; reading a missing index faults."""

    __slots__ = ("name",)

    def __init__(self, name: str, elements: dict) -> None:
        super().__init__(elements)
        self.name = name

    def __missing__(self, index):
        raise SimulationError(
            f"{self.name}[{index}] out of bounds (size {len(self)})"
        )


# -- one run ------------------------------------------------------------------


class Translation:
    """The generated functions and shared state of one simulation run."""

    def __init__(self, code: CodeObject, memory: dict,
                 max_cycles: int) -> None:
        self.code = code
        self.machine = code.machine
        self.max_cycles = max_cycles
        self.arrays = {
            name: _Array(name, {i: memory[(name, i)]
                                for i in range(decl.size)})
            for name, decl in code.program.arrays.items()
        }
        self._array_names = {name: f"A{i}" for i, name in
                             enumerate(self.arrays)}
        self.registers: dict[Reg, int] = {}
        self.cells: dict[str, types.CellType] = {"cyc": types.CellType(0)}
        self.stats: dict[tuple[int, ...], str] = {}
        self.units: list[list[Region]] = []
        self._unit_ids: dict[int, int] = {}
        self._variants: dict[tuple, Callable] = {}
        #: Register -> its cell's name (``r`` and its index).
        self._names: dict[Reg, str] = {}
        self._latency: dict[int, int] = {}
        self._arithmetic: dict[int, tuple[str, int]] = {}
        self._names_used = 0
        self._origins: dict[int, int] = {}
        self._next_origin = 0
        self.carry: list[tuple[int, int, object, str]] = []
        self.globals = {
            "__builtins__": __builtins__,
            "_N": _Nothing(),
            "_NAN": math.nan,
            "_INF": math.inf,
            "fmod": math.fmod,
            "carry": self.carry,
            "_resume": self._resume,
            "_exceeded": self._exceeded,
            "_oob": self._oob,
            "_collide": self._collide,
            "_collide_mem": self._collide_mem,
            "_no_dispatch": self._no_dispatch,
            "_unknown_array": self._unknown_array,
            "_negative_passes": self._negative_passes,
        }
        for name, var in self._array_names.items():
            self.globals[var] = self.arrays[name]

    # -- naming ---------------------------------------------------------------

    def register(self, reg: Reg) -> int:
        index = self.registers.get(reg)
        if index is None:
            index = self.registers[reg] = len(self.registers)
            self._names[reg] = name = f"r{index}"
            self.cells[name] = types.CellType()
        return index

    def reg_name(self, reg: Reg) -> str:
        """The closure cell holding ``reg``."""
        name = self._names.get(reg)
        if name is None:
            self.register(reg)
            name = self._names[reg]
        return name

    def array(self, name: str) -> str:
        return self._array_names[name]

    def array_size(self, name: str) -> Optional[int]:
        decl = self.code.program.arrays.get(name)
        return None if decl is None else decl.size

    # Opcode tables are keyed by identity: enum hashing runs Python code.

    def latency(self, opcode: Opcode) -> int:
        latency = self._latency.get(id(opcode))
        if latency is None:
            latency = self._latency[id(opcode)] = (
                1 if opcode is Opcode.STORE
                else self.machine.latency(opcode.value)
            )
        return latency

    def arithmetic(self, opcode: Opcode) -> tuple[str, int]:
        """The expression template of a pure opcode, and whether it counts
        as a flop on this machine."""
        found = self._arithmetic.get(id(opcode))
        if found is None:
            found = self._arithmetic[id(opcode)] = (
                TEMPLATES[opcode],
                int(self.machine.is_flop(opcode.value)),
            )
        return found

    def stat_cell(self, vector: tuple[int, ...]) -> str:
        name = self.stats.get(vector)
        if name is None:
            name = self.stats[vector] = f"k{len(self.stats)}"
            self.cells[name] = types.CellType(0)
        return name

    def name(self, prefix: str) -> str:
        """A fresh global name."""
        self._names_used += 1
        return f"{prefix}{self._names_used}"

    def origin(self, words: list[WideInstruction], positions: int) -> int:
        """Base of the identities of the writes ``words`` issue, one per
        slot position below ``positions``."""
        base = self._origins.get(id(words))
        if base is None:
            base = self._origins[id(words)] = self._next_origin
            self._next_origin += positions
        return base

    def unit(self, regions: list[Region]) -> int:
        """The id of the unit running ``regions``; its function is
        translated on first call."""
        uid = self._unit_ids.get(id(regions))
        if uid is None:
            uid = self._unit_ids[id(regions)] = len(self.units)
            self.units.append(regions)

            def first_entry() -> None:
                function = self.translate(uid, 0, ())
                self.globals[f"u{uid}"] = function
                function()

            self.globals[f"u{uid}"] = first_entry
        return uid

    # -- translation ----------------------------------------------------------

    def translate(self, uid: int, start: int,
                  shape: tuple[tuple[int, int, str], ...]) -> Callable:
        args = [f"a{i}" for i in range(len(shape))]
        entry = State([
            Pending(reg, due, arg, True, -1 - i, where)
            for i, ((reg, due, where), arg) in enumerate(zip(shape, args))
        ])
        unit = Unit(self, uid, start, entry)
        unit.body(self.units[uid])
        name = f"u{uid}" if not shape and not start else f"u{uid}_{start}"
        return self.function(name, args, unit.lines, unit.cells)

    def function(self, name: str, params: list[str], lines: list[str],
                 cells: set[str]) -> Callable:
        """Compile ``lines`` (indented one level) as the body of function
        ``name``, which uses the run's ``cells``."""
        body = "\n".join("    " + line for line in lines or ["    pass"])
        cells = sorted(cells)
        bind = f"    {' = '.join(cells)} = None\n" if cells else ""
        nonlocal_ = f"        nonlocal {', '.join(cells)}\n" if cells else ""
        source = (
            f"def _factory():\n{bind}"
            f"    def {name}({', '.join(params)}):\n{nonlocal_}{body}\n"
            f"    return {name}"
        )
        namespace: dict = {}
        exec(compile(source, f"<vliw {name}>", "exec"), self.globals,
             namespace)
        code = namespace["_factory"]().__code__
        if len(_NAMES) < _NAMES_KEPT:
            _NAMES.update(code.co_names, code.co_varnames, code.co_freevars)
        return types.FunctionType(
            code, self.globals, name, None,
            tuple(self.cells[var] for var in code.co_freevars),
        )

    # -- running --------------------------------------------------------------

    def run(self) -> int:
        """Run the program; return its cycle count."""
        try:
            self.globals[f"u{self.unit(self.code.regions)}"]()
            self._land(self.carry)
        finally:
            # The generated functions refer back to this object: drop
            # them now rather than at the next cyclic collection.
            self.globals.clear()
            self._variants.clear()
        return self.cells["cyc"].cell_contents

    def _resume(self, uid: int, start: int) -> None:
        """Continue unit ``uid`` from region ``start`` with the writes in
        ``carry`` still pending."""
        cyc = self.cells["cyc"].cell_contents
        items = sorted(self.carry, key=lambda item: item[0])
        self.carry.clear()
        self._land([item for item in items if item[0] <= cyc])
        pending = [item for item in items if item[0] > cyc]
        shape = tuple(
            (reg, due - cyc, where) for due, reg, _, where in pending)
        key = (uid, start, shape)
        function = self._variants.get(key)
        if function is None:
            function = self._variants[key] = self.translate(uid, start, shape)
        function(*(value for _, _, value, _ in pending))

    def _land(self, items: list[tuple[int, int, object, str]]) -> None:
        seen = set()
        for due, reg, value, where in sorted(items, key=lambda item: item[0]):
            if (due, reg) in seen:
                self._collide(reg, due, where)
            seen.add((due, reg))
            self.cells[f"r{reg}"].cell_contents = value

    def register_values(self) -> dict[Reg, object]:
        values = {}
        for reg, index in self.registers.items():
            try:
                values[reg] = self.cells[f"r{index}"].cell_contents
            except ValueError:
                pass
        return values

    def statistics(self) -> list[int]:
        totals = [0] * 5
        for vector, name in self.stats.items():
            times = self.cells[name].cell_contents
            for i, amount in enumerate(vector):
                totals[i] += amount * times
        return totals

    def register_of(self, name: Optional[str]) -> Optional[Reg]:
        """The register behind a generated local, if ``name`` is one."""
        if name and name[0] == "r" and name[1:].isdigit():
            index = int(name[1:])
            for reg, i in self.registers.items():
                if i == index:
                    return reg
        return None

    # -- hazards raised by generated code -------------------------------------

    def _exceeded(self) -> None:
        raise SimulationError(f"exceeded {self.max_cycles} cycles")

    def _oob(self, array: str, index: int) -> None:
        raise SimulationError(
            f"{array}[{index}] out of bounds (size {self.array_size(array)})"
        )

    def _unknown_array(self, array: str) -> None:
        raise SimulationError(f"unknown array {array!r}")

    def _collide(self, reg: int, cycle: int, where: str) -> None:
        target = self.register_of(f"r{reg}")
        raise SimulationError(
            f"cycle {cycle}: write-port collision on {target!r} ({where})"
        )

    def _collide_mem(self, array: str, index: int, cycle: int,
                     where: str) -> None:
        raise SimulationError(
            f"cycle {cycle}: write-port collision on {(array, index)!r}"
            f" ({where})"
        )

    def _no_dispatch(self, uid: int, iteration: int, cycle: int,
                     where: str) -> None:
        raise SimulationError(
            f"cycle {cycle}: predicate ({uid}, iter {iteration}) consulted"
            f" before its dispatch executed ({where})"
        )

    def _negative_passes(self, label: str) -> None:
        raise SimulationError(
            f"pipelined loop {label!r} entered with a negative pass count"
        )
