"""The VLIW machine simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.core.emit import CodeObject
from repro.ir.interp import ArrayInit, Interpreter, Memory, default_array_init
from repro.ir.operands import FLOAT, Reg


class SimulationError(Exception):
    pass


@dataclass
class SimStats:
    """Dynamic execution statistics of one run."""

    cycles: int = 0
    operations: int = 0
    flops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    clock_mhz: float = 5.0

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def mflops(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.flops / self.seconds / 1e6

    def __repr__(self) -> str:
        return (
            f"SimStats(cycles={self.cycles}, flops={self.flops},"
            f" mflops={self.mflops:.2f})"
        )


class VLIWSimulator:
    """Runs a :class:`CodeObject` by translating it into Python functions
    (see :mod:`repro.simulator.translate`), with the cycle-level semantics
    of the Warp cell: registers read at issue, results visible ``latency``
    cycles later, stores one cycle later."""

    def __init__(
        self,
        code: CodeObject,
        array_init: ArrayInit = default_array_init,
        *,
        max_cycles: int = 200_000_000,
    ) -> None:
        self.code = code
        self.machine = code.machine
        self.max_cycles = max_cycles
        self.regs: dict[Reg, Union[int, float]] = {}
        self.memory: Memory = {}
        for decl in code.program.arrays.values():
            for index in range(decl.size):
                value = array_init(decl.name, index)
                self.memory[(decl.name, index)] = (
                    float(value) if decl.kind == FLOAT else int(value)
                )
        self.stats = SimStats(clock_mhz=self.machine.clock_mhz)

    def run(self) -> SimStats:
        # Loaded on first use: a process that only compiles never pays
        # for the translator's code.
        from repro.simulator.translate import Translation

        memory = self.memory
        translation = Translation(self.code, memory, self.max_cycles)
        # The translation holds the arrays until the run ends: drop the
        # image of them meanwhile, keeping any cell of an undeclared array.
        others = {key: value for key, value in memory.items()
                  if key[0] not in translation.arrays}
        memory.clear()
        try:
            self.stats.cycles = translation.run()
        except NameError as error:
            reg = translation.register_of(error.name)
            if reg is None:
                raise
            raise SimulationError(
                f"read of undefined register {reg}"
            ) from None
        finally:
            self.regs = translation.register_values()
            for name, values in translation.arrays.items():
                for index, value in values.items():
                    memory[(name, index)] = value
            memory.update(others)
        stats = self.stats
        (stats.operations, stats.flops, stats.loads, stats.stores,
         stats.branches) = translation.statistics()
        return stats


def run_code(
    code: CodeObject,
    array_init: ArrayInit = default_array_init,
    **kwargs,
) -> tuple[SimStats, Memory]:
    simulator = VLIWSimulator(code, array_init, **kwargs)
    stats = simulator.run()
    return stats, simulator.memory


def values_match(a, b) -> bool:
    """Bit-for-bit equality with one IEEE concession: NaN matches NaN.

    Plain ``==`` reports two NaNs as different, so a program that computes
    NaN identically under both executions would be flagged as a mismatch.
    """
    if a == b:
        return True
    return (
        isinstance(a, float) and isinstance(b, float)
        and math.isnan(a) and math.isnan(b)
    )


def memory_diffs(memory: Memory, expected: Memory) -> list[str]:
    """Human-readable cells where ``memory`` disagrees with ``expected``."""
    keys = [key for key, value in memory.items()
            if not values_match(value, expected.get(key))]
    keys += [key for key, value in expected.items()
             if key not in memory and not values_match(None, value)]
    return [
        f"  {key}: simulated {memory.get(key)!r}, expected {expected.get(key)!r}"
        for key in sorted(keys)
    ]


def run_and_check(
    code: CodeObject,
    array_init: ArrayInit = default_array_init,
    **kwargs,
) -> SimStats:
    """Run the code and compare final memory bit-for-bit against the
    sequential reference interpreter.  Raises on any mismatch."""
    stats, memory = run_code(code, array_init, **kwargs)
    interp = Interpreter(code.program, array_init)
    expected = interp.run()
    diffs = memory_diffs(memory, expected)
    if diffs:
        raise SimulationError(
            "simulated memory differs from the reference interpreter:\n"
            + "\n".join(diffs[:20])
            + ("" if len(diffs) <= 20 else f"\n  ... {len(diffs) - 20} more")
        )
    return stats
