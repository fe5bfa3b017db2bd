"""Cycle-accurate execution of emitted VLIW code.

The simulator plays the role of the Warp hardware in the paper's
evaluation, with its cycle-level semantics: one wide instruction per
cycle, register results visible after their op-class latency, stores one
cycle after issue, conditional outcomes recorded by ``cbr`` dispatch
slots; it counts cycles and floating-point operations.  It runs the code
by translating it into Python functions (:mod:`repro.simulator.translate`).

Every run can be (and in the tests, is) validated against the sequential
reference interpreter: same programs, same initial memory, bit-identical
final memory.
"""

from repro.simulator.executor import (
    SimStats,
    SimulationError,
    VLIWSimulator,
    memory_diffs,
    run_code,
    run_and_check,
    values_match,
)

__all__ = [
    "VLIWSimulator",
    "SimStats",
    "SimulationError",
    "memory_diffs",
    "run_code",
    "run_and_check",
    "values_match",
]
