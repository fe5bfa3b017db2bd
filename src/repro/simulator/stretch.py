"""Straight-line code and the pending writes that flow between stretches.

A *stretch* is a list of wide instructions with no control flow between
them (a block, a prolog, one kernel pass, an epilog).  :class:`Stretch`
works out, before any code is written, where each register is read and
written, which writes may land when they issue and which stores wait for
the end of their word.  :class:`State` is what translated code hands on:
the writes still pending where a stretch ends and the recorded ``cbr``
outcomes; :mod:`repro.simulator.writer` writes the code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.emit import SlotOp, WideInstruction
from repro.ir.operands import Reg
from repro.ir.ops import Opcode

if TYPE_CHECKING:
    from repro.simulator.translate import Translation


# -- translation-time state ---------------------------------------------------


@dataclass(frozen=True)
class Pending:
    """A register write not yet committed where a stretch ends: due
    ``due`` cycles later, its value in local ``var``, which holds ``_N``
    when the write did not issue unless ``sure``.  ``origin`` names the
    issuing slot, so that one write keeps one identity from pass to pass
    of a loop."""

    reg: int
    due: int
    var: str
    sure: bool = True
    origin: int = -1
    where: str = ""


@dataclass
class State:
    """What translated code leaves for the code after it."""

    writes: list[Pending] = field(default_factory=list)
    #: ``(uid, iteration) -> (local, sure)``: recorded ``cbr`` outcomes,
    #: iteration relative to the current region's base.
    preds: dict[tuple[int, int], tuple[str, bool]] = field(
        default_factory=dict
    )

    def keyed(self, ambiguous: frozenset) -> dict[tuple, Pending]:
        """Writes by identity: register and due cycle, plus the issuing
        slot for the ``(register, due)`` pairs in ``ambiguous`` (those
        some shape holds twice)."""
        return {
            (w.reg, w.due, w.origin if (w.reg, w.due) in ambiguous else 0): w
            for w in self.writes
        }

    def shape(self, ambiguous: frozenset) -> tuple:
        return (
            sorted((key, w.sure) for key, w in self.keyed(ambiguous).items()),
            sorted((key, sure) for key, (_, sure) in self.preds.items()),
        )

    def twice(self) -> set[tuple[int, int]]:
        """``(register, due)`` pairs held by more than one write."""
        seen: set[tuple[int, int]] = set()
        twice = set()
        for w in self.writes:
            if (w.reg, w.due) in seen:
                twice.add((w.reg, w.due))
            seen.add((w.reg, w.due))
        return twice


def canonical(states: list[State], ambiguous: frozenset) -> State:
    """The union of ``states`` held in locals named by identity: an entry
    is sure only when every state has it, sure."""
    keyed = [state.keyed(ambiguous) for state in states]
    found = {key: w for k in keyed for key, w in k.items()}
    writes = [
        Pending(reg, due, f"w{reg}_{due}_{origin}".replace("-", "m"),
                all(key in k and k[key].sure for k in keyed), origin,
                found[key].where)
        for key in sorted(found)
        for reg, due, origin in [key]
    ]
    preds = {
        key: (f"q{key[0]}_{key[1]}".replace("-", "m"),
              all(key in s.preds and s.preds[key][1] for s in states))
        for key in sorted({key for s in states for key in s.preds})
    }
    return State(writes, preds)


def moves(target: State, source: State, ambiguous: frozenset) -> list[str]:
    """One parallel assignment moving ``source``'s values into the locals
    of ``target``, whose shape covers it; missing entries become ``_N``."""
    found = source.keyed(ambiguous)
    pairs = [
        (w.var, found[key].var if key in found else "_N")
        for key, w in target.keyed(ambiguous).items()
    ] + [
        (var, source.preds[key][0] if key in source.preds else "_N")
        for key, (var, _) in target.preds.items()
    ]
    pairs = [(lhs, rhs) for lhs, rhs in pairs if lhs != rhs]
    if not pairs:
        return []
    return [", ".join(lhs for lhs, _ in pairs) + " = "
            + ", ".join(rhs for _, rhs in pairs)]


def exclusive(a: Optional[SlotOp], b: Optional[SlotOp]) -> bool:
    """Whether two slots sit in opposite arms of one dispatch, so at most
    one of them executes."""
    return (
        a is not None and b is not None and bool(a.preds) and bool(b.preds)
        and a.iteration == b.iteration
        and any((uid, "else" if arm == "then" else "then") in b.preds
                for uid, arm in a.preds)
    )


@dataclass(slots=True)
class Write:
    """One register write of a stretch, issued in it or pending on entry;
    ``var`` holds its value until it lands, unless ``direct``."""

    reg: int
    issue: int          # slot position, -1 for writes pending on entry
    due: int
    commit: int         # word before which it lands: due, or issue + 1
    word: int           # issuing word, -1 for writes pending on entry
    var: str = ""
    sure: bool = True
    direct: bool = False
    slot: Optional[SlotOp] = None
    origin: int = -1
    where: str = ""

    def place(self, where: str) -> str:
        """Where the write issued, for messages (``where`` names the
        stretch)."""
        return self.where if self.word < 0 else (
            f"{where}, instruction {self.word}")


class Stretch:
    """Analysis of words run back to back: where each register is read
    and written, which writes may land at issue, which stores must wait
    for the end of their word.  Positions number slots ``c * width + s +
    1``; a write landing before word ``c`` sits at ``c * width``."""

    def __init__(self, tx: Translation, words: list[WideInstruction],
                 state: State, temp: Callable[[str], str]) -> None:
        self.n = n = len(words)
        #: ``(c, word)`` for the words with at least one slot.
        self.words = words
        self.busy = busy = [(c, w) for c, w in enumerate(words) if w.slots]
        self.width = width = max(
            [len(word.slots) for _, word in busy], default=0) + 2
        self.writes = writes = [
            Write(w.reg, -1, w.due, w.due, -1, w.var, w.sure,
                  origin=w.origin, where=w.where)
            for w in state.writes
        ]
        #: Slot position -> local holding a deferred store's index.
        self.deferred: dict[int, str] = {}
        #: Slot position -> local recording a predicated dispatch.
        self.dispatches: dict[int, str] = {}
        #: Register -> positions of the slots reading it, in order.
        reads: dict[int, list[int]] = {}
        origin = tx.origin(words, (n + 1) * width)
        indices = tx.registers
        register = tx.register
        latency_of = tx.latency
        nop, store = Opcode.NOP, Opcode.STORE
        for c, word in busy:
            position = c * width
            stores = None
            for slot in word.slots:
                position += 1
                op = slot.op
                opcode = op.opcode
                if opcode is nop:
                    continue
                for src in op.srcs:
                    if src.__class__ is Reg:
                        reg = indices.get(src)
                        if reg is None:
                            reg = register(src)
                        found = reads.get(reg)
                        if found is None:
                            reads[reg] = [position]
                        else:
                            found.append(position)
                if op.dest is not None:
                    latency = latency_of(opcode)
                    reg = indices.get(op.dest)
                    if reg is None:
                        reg = register(op.dest)
                    writes.append(Write(reg, position, c + latency,
                                        c + (latency or 1), c, "", True,
                                        False, slot, origin + position))
                elif opcode is store:
                    if stores is None:
                        stores = []
                    stores.append(position)
            if stores:
                self._defer_stores(tx, word, c * width, stores, temp)
        #: Every register the stretch touches.
        self.regs = set(reads)
        by_reg: dict[int, list[Write]] = {}
        for w in writes:
            self.regs.add(w.reg)
            found = by_reg.get(w.reg)
            if found is None:
                by_reg[w.reg] = [w]
            else:
                found.append(w)
        self.by_slot: dict[int, Write] = {}
        self.commits: dict[int, list[Write]] = {}
        for w in writes:
            if w.issue >= 0:
                self.by_slot[w.issue] = w
                if w.commit <= n:
                    same = by_reg[w.reg]
                    rs = reads.get(w.reg)
                    w.direct = (
                        rs is None and len(same) == 1
                        or self._direct(w, rs or (), same)
                    )
            if w.commit <= n and not w.direct:
                self.commits.setdefault(w.commit, []).append(w)

    def _direct(self, w: Write, reads: list[int],
                writes: list[Write]) -> bool:
        """Whether ``w`` may land at issue: nothing that can run with it
        reads the register or lands another write to it from just after
        the issuing slot to the commit."""
        width = self.width
        end = w.commit * width
        for position in reads[bisect.bisect_right(reads, w.issue):]:
            if position >= end:
                break
            c, s = divmod(position - 1, width)
            if not exclusive(w.slot, self.words[c].slots[s]):
                return False
        return all(
            o is w or not w.issue < o.commit * width <= end
            or exclusive(w.slot, o.slot)
            for o in writes
        )

    def _defer_stores(self, tx: Translation, word: WideInstruction,
                      base: int, stores: list[int],
                      temp: Callable[[str], str]) -> None:
        """A store waits for the end of its word when another store of the
        word, or a later load, uses the same array."""
        slots = word.slots
        for position in stores:
            store = slots[position - base - 1]
            array = store.op.array
            if tx.array_size(array) is None:
                continue
            if any(
                other != position and slot.op.array == array
                and (slot.op.opcode is Opcode.STORE
                     or slot.op.opcode is Opcode.LOAD and other > position)
                and not exclusive(store, slot)
                for other, slot in enumerate(slots, base + 1)
            ):
                self.deferred[position] = temp("j")
