"""Python source for straight-line stretches.

:class:`StretchWriter` accumulates the lines of one generated function;
its :meth:`~StretchWriter.stretch` translates a stretch analysed by
:class:`~repro.simulator.stretch.Stretch`, landing writes at their commit
cycles and turning predicated slots into ``if`` blocks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.emit import SlotOp, WideInstruction
from repro.ir.operands import FLOAT, Imm, Operand
from repro.ir.ops import Opcode
from repro.simulator.stretch import Pending, State, Stretch, Write, exclusive

if TYPE_CHECKING:
    from repro.simulator.translate import Translation


#: Statistic vector positions.
OPS, FLOPS, LOADS, STORES, BRANCHES = range(5)

#: Python expression of each pure opcode over its operands ``a``, ``b``,
#: written out here rather than taken from ``repro.ir.ops.evaluate`` so
#: that the reference interpreter shares no arithmetic with the simulator
#: it checks.
TEMPLATES = {
    Opcode.ADD: "{a} + {b}",
    Opcode.SUB: "{a} - {b}",
    Opcode.MUL: "{a} * {b}",
    Opcode.DIV: "(int({a} / {b}) if {b} else 0)",
    Opcode.MOD: "(int(fmod({a}, {b})) if {b} else 0)",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SHL: "{a} << {b}",
    Opcode.SHR: "{a} >> {b}",
    Opcode.FADD: "{a} + {b}",
    Opcode.FSUB: "{a} - {b}",
    Opcode.FMUL: "{a} * {b}",
    Opcode.FDIV: "({a} / {b} if {b} else 0.0)",
    Opcode.FMAX: "({b} if {b} > {a} else {a})",
    Opcode.FMIN: "({b} if {b} < {a} else {a})",
}
for _opcode, _symbol in (
    (Opcode.LT, "<"), (Opcode.LE, "<="), (Opcode.GT, ">"), (Opcode.GE, ">="),
    (Opcode.EQ, "=="), (Opcode.NE, "!="), (Opcode.FLT, "<"),
    (Opcode.FLE, "<="), (Opcode.FGT, ">"), (Opcode.FGE, ">="),
    (Opcode.FEQ, "=="), (Opcode.FNE, "!="),
):
    TEMPLATES[_opcode] = f"(1 if {{a}} {_symbol} {{b}} else 0)"
TEMPLATES.update({
    Opcode.NEG: "-{a}",
    Opcode.NOT: "~{a}",
    Opcode.MOV: "{a}",
    Opcode.FNEG: "-{a}",
    Opcode.FMOV: "{a}",
    Opcode.FABS: "abs({a})",
    Opcode.F2I: "int({a})",
    Opcode.I2F: "float({a})",
})


def _literal(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "_NAN"
        if math.isinf(value):
            return "_INF" if value > 0 else "(-_INF)"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class StretchWriter:
    """Emits the source of one generated function; :meth:`stretch`
    translates straight-line code into it."""

    def __init__(self, tx: Translation) -> None:
        self.tx = tx
        self.lines: list[str] = []
        self.indent = 1
        #: The run's cells the emitted code uses.
        self.cells = {"cyc"}
        #: Operation counts of code emitted since the last :meth:`flush`.
        self.static = [0] * 5
        #: Per predicate condition of the stretch being written: where its
        #: count line goes, and the counts of its slots.
        self.group_counts: dict[frozenset, list] = {}
        self.temps = 0

    # -- emission helpers -----------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self, prefix: str) -> str:
        """A fresh local name.  Names repeat from function to function,
        which keeps the interpreter's table of interned names small."""
        self.temps += 1
        return f"{prefix}{self.temps}"

    def operand(self, operand: Operand) -> str:
        if operand.__class__ is Imm:
            return _literal(operand.value)
        name = self.tx.reg_name(operand)
        self.cells.add(name)
        return name

    def stat(self, vector: list[int]) -> str:
        """The cell counting executions of ``vector`` (see :data:`OPS`)."""
        name = self.tx.stat_cell(tuple(vector))
        self.cells.add(name)
        return name

    def count(self, vector: list[int]) -> None:
        """Count one execution of ``vector`` (see :data:`OPS`)."""
        if any(vector):
            self.emit(f"{self.stat(vector)} += 1")

    def flush(self) -> None:
        """Count the straight-line code emitted since the last flush."""
        self.count(self.static)
        self.static = [0] * 5

    def detached(self, translate: Callable[[], State]) -> tuple[list[str],
                                                                State]:
        """Translate into a separate line list (indent 0), counted there."""
        saved = self.lines, self.indent, self.static
        self.lines, self.indent, self.static = [], 0, [0] * 5
        try:
            state = translate()
            self.flush()
            return self.lines, state
        finally:
            self.lines, self.indent, self.static = saved

    # -- straight-line code ---------------------------------------------------

    def stretch(self, words: list[WideInstruction], state: State,
                where: str) -> State:
        """Translate ``words`` run back to back, entered in ``state``."""
        if not words:
            return state
        st = Stretch(self.tx, words, state, self.temp)
        self.cells.update(f"r{reg}" for reg in st.regs)
        n = st.n
        self.emit(f"if (cyc := cyc + {n}) > {self.tx.max_cycles}:"
                  " _exceeded()")
        preds = dict(state.preds)
        self.group_counts = {}
        busy = dict(st.busy)
        for c in sorted(busy.keys() | st.commits.keys()):
            back = f"cyc - {n - c}" if c < n else "cyc"
            if c in st.commits:
                self.commit(st.commits[c], back, c, where)
            word = busy.get(c)
            if word is None:
                continue
            at = f"{where}, instruction {c}"
            base = c * st.width + 1
            slots = word.slots
            s = 0
            while s < len(slots):
                slot = slots[s]
                e = s + 1
                if not slot.preds:
                    self.slot(st, slot, base + s, preds, self.static)
                    s = e
                    continue
                while (e < len(slots) and slots[e].preds == slot.preds
                       and slots[e].iteration == slot.iteration):
                    e += 1
                self.group(st, slots[s:e], base + s, back, at, preds)
                s = e
            if st.deferred:
                self.land_stores(st, word, base, back, at)
        for lines, index, indent, vector in self.group_counts.values():
            lines[index] = "    " * indent + (
                f"{self.stat(vector)} += 1" if any(vector)
                else "pass")
        return State(
            [Pending(w.reg, w.due - n, w.var, w.sure, w.origin,
                     w.place(where))
             for w in st.writes if w.commit > n],
            preds,
        )

    def commit(self, due: list[Write], cycle: str, at: int,
               where: str) -> None:
        """Land the writes due before word ``at`` (``cycle`` is that word's
        cycle), in due order, refusing same-cycle writes to one register."""
        groups: dict[tuple[int, int], list[Write]] = {}
        for w in sorted(due, key=lambda w: w.due):
            groups.setdefault((w.reg, w.due), []).append(w)
        for (reg, when), group in groups.items():
            name = f"r{reg}"
            self.cells.add(name)
            if len(group) > 1 and not all(
                exclusive(a.slot, b.slot)
                for i, a in enumerate(group) for b in group[i + 1:]
            ):
                raise_ = (f"_collide({reg}, {cycle} - {at - when},"
                          f" {group[-1].place(where)!r})")
                maybe = [w.var for w in group if not w.sure]
                if not maybe:
                    self.emit(raise_)
                else:
                    issued = " + ".join(f"({v} is not _N)" for v in maybe)
                    self.emit(f"if {issued} + {len(group) - len(maybe)} > 1:"
                              f" {raise_}")
            for w in group:
                if w.sure:
                    self.emit(f"{name} = {w.var}")
                else:
                    self.emit(f"if {w.var} is not _N: {name} = {w.var}")

    def land(self, pending: list[Pending], cycle: str, at: int) -> None:
        """Commit pending writes due by relative cycle ``at``, outside any
        stretch."""
        self.commit([
            Write(w.reg, -1, w.due, w.due, -1, w.var, w.sure, where=w.where)
            for w in pending
        ], cycle, at, "")

    def group(self, st: Stretch, slots: list[SlotOp], position: int,
              back: str, at: str, preds) -> None:
        """Slots sharing one predicate list and iteration: one ``if``."""
        first = slots[0]
        # Values used after the block start as "did not issue".
        for offset, slot in enumerate(slots):
            here = position + offset
            w = st.by_slot.get(here)
            if w is not None and not w.direct:
                w.var, w.sure = self.temp("t"), False
                self.emit(f"{w.var} = _N")
            if slot.op.opcode is Opcode.CBR:
                st.dispatches[here] = self.temp("p")
                self.emit(f"{st.dispatches[here]} = _N")
            if here in st.deferred:
                self.emit(f"{st.deferred[here]} = _N")
        conditions: list[str] = []
        tested: set[tuple[str, str]] = set()
        depth = 0
        for uid, arm in first.preds:
            found = preds.get((uid, first.iteration))
            if found is None:
                depth += self.open(conditions)
                self.emit(f"_no_dispatch({uid}, {first.iteration}, {back},"
                          f" {at!r})")
                self.indent -= depth
                return
            var, sure = found
            if not sure:
                depth += self.open(conditions)
                conditions = []
                self.emit(f"if {var} is _N: _no_dispatch({uid},"
                          f" {first.iteration}, {back}, {at!r})")
            conditions.append(var if arm == "then" else f"not {var}")
            tested.add((var, arm))
        depth += self.open(conditions)
        mark = len(self.lines)
        # Groups under one condition run together: one count for them all.
        counted = self.group_counts.get(frozenset(tested))
        if counted is None:
            counted = self.group_counts[frozenset(tested)] = [
                self.lines, len(self.lines), self.indent, [0] * 5]
            self.emit("")
        for offset, slot in enumerate(slots):
            self.slot(st, slot, position + offset, preds, counted[3])
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= depth

    def open(self, conditions: list[str]) -> int:
        if not conditions:
            return 0
        self.emit(f"if {' and '.join(conditions)}:")
        self.indent += 1
        return 1

    def slot(self, st: Stretch, slot: SlotOp, position: int, preds,
             static: list[int]) -> None:
        op = slot.op
        opcode = op.opcode
        if opcode is Opcode.NOP:
            return
        tx = self.tx
        static[OPS] += 1
        if opcode is Opcode.CBR or opcode is Opcode.CJUMP \
                or opcode is Opcode.JUMP:
            static[BRANCHES] += 1
            if opcode is Opcode.CBR:
                var = st.dispatches.get(position)
                sure = var is None
                if sure:
                    var = self.temp("p")
                self.emit(f"{var} = {self.operand(op.srcs[0])}")
                preds[(slot.cbr_uid, slot.iteration)] = (var, sure)
            return
        if opcode is Opcode.LOAD or opcode is Opcode.STORE:
            size = tx.array_size(op.array)
            if size is None:
                self.emit(f"_unknown_array({op.array!r})")
                index = None
            else:
                index = self.index(op, size)
            if index is None:
                # The slot always faults: its write never issues.
                w = st.by_slot.get(position)
                if w is not None and not w.direct:
                    w.var, w.sure = "_N", False
                return
            array = tx.array(op.array)
            if opcode is Opcode.LOAD:
                static[LOADS] += 1
                value = f"{array}[{index}]"
            else:
                static[STORES] += 1
                value = self.operand(op.srcs[1])
                deferred = st.deferred.get(position)
                if deferred is not None:
                    self.emit(f"{deferred} = {index}")
                    if not index.isdigit():
                        self.emit(f"{array}[{deferred}]")
                    self.emit(f"x{deferred} = {value}")
                elif index.isdigit():
                    self.emit(f"{array}[{index}] = {value}")
                else:
                    # A missing key faults: the bounds check at issue.
                    self.emit(f"{array}[{index}]")
                    self.emit(f"{array}[{index}] = {value}")
                return
        else:
            template, flop = tx.arithmetic(opcode)
            static[FLOPS] += flop
            srcs = op.srcs
            value = template.format(
                a=self.operand(srcs[0]),
                b=self.operand(srcs[1]) if len(srcs) == 2 else None)
        w = st.by_slot[position]
        if w.direct:
            self.emit(f"r{w.reg} = {value}")
        else:
            w.var = w.var or self.temp("t")
            self.emit(f"{w.var} = {value}")

    def index(self, op, size: int) -> Optional[str]:
        """A memory slot's element index, bounds-checked here when it is a
        constant; ``None`` when the slot always faults."""
        src = op.srcs[0]
        if src.__class__ is Imm:
            index = int(src.value) + op.offset
            if not 0 <= index < size:
                self.emit(f"_oob({op.array!r}, {index})")
                return None
            return str(index)
        value = self.tx.reg_name(src)
        if src.kind == FLOAT:
            value = f"int({value})"
        return f"{value} + {op.offset}" if op.offset else value

    def land_stores(self, st: Stretch, word: WideInstruction, base: int,
                    back: str, at: str) -> None:
        """Perform the word's deferred stores, after refusing two of them
        to one element."""
        stores = [
            (slot.op.array, st.deferred[base + s], bool(slot.preds))
            for s, slot in enumerate(word.slots) if base + s in st.deferred
        ]
        for i, (array, j, predicated) in enumerate(stores):
            for other, j2, predicated2 in stores[i + 1:]:
                if other == array:
                    issued = [f"{v} is not _N" for v, p in
                              ((j, predicated), (j2, predicated2)) if p]
                    self.emit(f"if {' and '.join(issued + [f'{j} == {j2}'])}:"
                              f" _collide_mem({array!r}, {j}, {back} + 1,"
                              f" {at!r})")
        for array, j, predicated in stores:
            store = f"{self.tx.array(array)}[{j}] = x{j}"
            self.emit(f"if {j} is not _N: {store}" if predicated else store)
