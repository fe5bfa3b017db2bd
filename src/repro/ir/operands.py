"""Operands: virtual registers and immediates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

#: Register kinds.  The IR is weakly typed: a register holds either an
#: integer or a float, and the verifier checks opcode/operand agreement.
INT = "int"
FLOAT = "float"


@dataclass(frozen=True, order=True)
class Reg:
    """A virtual register.  Identity is by name; ``kind`` is metadata.

    Registers key most of the compiler's and simulator's dicts, so the
    hash is computed once, at construction.  It is never pickled: string
    hashes are salted per process, so an unpickled register (from the
    schedule cache or a worker process) computes its own again.
    """

    name: str
    kind: str = INT

    def __post_init__(self) -> None:
        if self.kind not in (INT, FLOAT):
            raise ValueError(f"bad register kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.kind)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Reg, (self.name, self.kind))

    def __repr__(self) -> str:
        return f"%{self.name}"

    @property
    def is_float(self) -> bool:
        return self.kind == FLOAT


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand."""

    value: Union[int, float]

    def __repr__(self) -> str:
        return f"#{self.value}"

    @property
    def kind(self) -> str:
        return FLOAT if isinstance(self.value, float) else INT

    @property
    def is_float(self) -> bool:
        return isinstance(self.value, float)


Operand = Union[Reg, Imm]


def as_operand(value: "Operand | int | float") -> Operand:
    """Coerce Python numbers to immediates; pass registers through."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, (int, float)):
        return Imm(value)
    raise TypeError(f"cannot use {value!r} as an operand")
