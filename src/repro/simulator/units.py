"""Generated functions for units: region lists and their control flow.

A :class:`Unit` is the source of one generated function: a region list
(the program's top level, a sequential-loop body, an arm of a dispatch)
from some region on.  Blocks and software-pipelined loops are translated
into it; other units are called.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.core.emit import (
    BlockRegion,
    CondRegion,
    GuardedRegion,
    PeelCount,
    PipelinedLoopRegion,
    PipelinePasses,
    Region,
    SequentialLoopRegion,
    TripSpec,
)
from repro.simulator.executor import SimulationError
from repro.simulator.stretch import State, canonical, moves
from repro.simulator.writer import BRANCHES, StretchWriter

if TYPE_CHECKING:
    from repro.simulator.translate import Translation


class Unit(StretchWriter):
    """Source of one unit's generated function, from region ``start`` of
    the unit's regions on, entered with the pending writes of ``entry``."""

    def __init__(self, tx: Translation, uid: int, start: int,
                 entry: State) -> None:
        super().__init__(tx)
        self.uid = uid
        self.start = start
        self.entry = entry

    # -- units and regions ----------------------------------------------------

    def body(self, regions: list[Region]) -> None:
        state = self.entry
        if self.start == 0 and not state.writes:
            self.emit(f"if carry: return _resume({self.uid}, 0)")
        for index in range(self.start, len(regions)):
            region = regions[index]
            if isinstance(region, BlockRegion):
                state = self.stretch(
                    region.instructions, State(state.writes),
                    region.label or "block",
                )
            elif isinstance(region, PipelinedLoopRegion):
                state = self.pipelined(region, State(state.writes))
            else:
                self.flush()
                self.call(region, state)
                state = State()
                self.emit(f"if carry: return _resume({self.uid},"
                          f" {index + 1})")
        self.flush()
        self.materialize(state)

    def materialize(self, state: State) -> None:
        """Hand pending writes to the next unit through ``carry``."""
        for w in state.writes:
            line = (f"carry.append((cyc + {w.due}, {w.reg}, {w.var},"
                    f" {w.where!r}))")
            self.emit(line if w.sure else f"if {w.var} is not _N: {line}")

    def call(self, region: Region, state: State) -> None:
        tx = self.tx
        if isinstance(region, SequentialLoopRegion):
            passes = self.passes(region.passes)
            self.materialize(state)
            self.emit(f"for _ in range({passes}):")
            self.emit(f"    u{tx.unit(region.body)}()")
        elif isinstance(region, GuardedRegion):
            trip = self.trip(region.trip)
            self.materialize(state)
            self.emit(f"if {trip} >= {region.threshold}:"
                      f" u{tx.unit(region.main)}()")
            self.emit(f"else: u{tx.unit(region.fallback)}()")
        elif isinstance(region, CondRegion):
            # The dispatch reads the condition, then costs one cycle.
            cond = self.temp("c")
            self.emit(f"{cond} = {self.operand(region.cond)}")
            self.emit("cyc += 1")
            self.static[BRANCHES] += 1
            self.flush()
            self.land([w for w in state.writes if w.due <= 1], "cyc", 1)
            self.materialize(State([
                dataclasses.replace(w, due=w.due - 1)
                for w in state.writes if w.due > 1
            ]))
            self.emit(f"if {cond}: u{tx.unit(region.then_regions)}()")
            self.emit(f"else: u{tx.unit(region.else_regions)}()")
        else:
            raise SimulationError(f"unknown region {region!r}")

    def trip(self, trip: TripSpec) -> str:
        """Emit the trip count's evaluation (start read first, as the
        register reads happen in hardware); return its local."""
        start = self.temp("s")
        stop = self.temp("s")
        self.emit(f"{start} = int({self.operand(trip.start)})")
        self.emit(f"{stop} = int({self.operand(trip.stop)})")
        if trip.step > 0:
            span = f"({stop} - {start}) // {trip.step}"
        else:
            span = f"({start} - {stop}) // {-trip.step}"
        self.emit(f"{stop} = {span} + 1")
        self.emit(f"if {stop} < 0: {stop} = 0")
        return stop

    def passes(self, passes) -> str:
        if isinstance(passes, int):
            return str(passes)
        if isinstance(passes, TripSpec):
            return self.trip(passes)
        if isinstance(passes, (PeelCount, PipelinePasses)):
            trip = self.trip(passes.trip)
            op = "%" if isinstance(passes, PeelCount) else "//"
            self.emit(f"{trip} = ({trip} - {passes.started_in_prolog})"
                      f" {op} {passes.unroll}")
            return trip
        raise SimulationError(f"unknown pass count {passes!r}")

    # -- software-pipelined loops ---------------------------------------------

    def pipelined(self, region: PipelinedLoopRegion, state: State) -> State:
        """Prolog, kernel passes and epilog, each a function of its own,
        which bounds the memory one compilation needs.  Pending writes and
        predicate outcomes cross the pass boundaries in loop-carried
        locals.  Each pass is translated for the shape of pending state it
        is entered in until one pass leaves the shape it found; that pass
        loops, the ones before it run once each (a pipeline the prolog does
        not fill), and the epilog takes the union of the shapes."""
        label = region.label or "pipelined loop"
        passes = self.passes(region.passes)
        k, u = region.started_in_prolog, region.unroll
        live = _live_predicates(region)
        prolog, entry = self.detached(
            lambda: self.stretch(region.prolog, state, f"{label} prolog"))
        shapes = [State(entry.writes, {
            key: value for key, value in entry.preds.items() if live(key)
        })]

        def kernel() -> State:
            out = self.stretch(region.kernel, incoming, f"{label} kernel")
            return State(out.writes, {
                (uid, it - u): value
                for (uid, it), value in out.preds.items()
                if live((uid, it - u))
            })

        # The pending state settles once every write issued before the
        # kernel has landed and every outcome recorded before it is dead.
        limit = 2 + max(c.latency for c in self.tx.machine.op_classes.values()
                        ) + max([abs(slot.iteration) for word in region.kernel
                                 for slot in word.slots], default=0)
        ambiguous = frozenset(shapes[0].twice())
        translated = []
        while len(translated) < limit:
            incoming = canonical([shapes[-1]], ambiguous)
            lines, out = self.detached(kernel)
            if out.twice() - ambiguous:
                # Rename from the start, telling those writes apart.
                ambiguous |= out.twice()
                del shapes[1:]
                translated.clear()
                continue
            translated.append((incoming, lines, out))
            if out.shape(ambiguous) == shapes[-1].shape(ambiguous):
                break
            shapes.append(out)
        else:
            raise SimulationError(f"{label}: pending writes never settle")
        carried = canonical(shapes, ambiguous)
        loop = []
        *peeled, (incoming, lines, out) = translated
        for i, (_, once, left) in enumerate(peeled):
            loop += [f"if n > {i}:"] + [
                "    " + line
                for line in once + moves(carried, left, ambiguous)
            ]
        loop += [f"for _ in range(n - {len(peeled)}):"] + [
            "    " + line
            for line in lines + moves(incoming, out, ambiguous)
        ]
        epilog, out = self.detached(lambda: self.stretch(
            region.epilog,
            State(carried.writes, {
                (uid, it - k): value
                for (uid, it), value in carried.preds.items()
            }),
            f"{label} epilog",
        ))
        prolog += moves(carried, entry, ambiguous)
        check = []
        if not isinstance(region.passes, int) and any(
            slot.preds for word in region.epilog for slot in word.slots
        ):
            check = [f"if n < 0: _negative_passes({label!r})"]
        values = _values(carried)
        self.outline("prolog", _values(State(state.writes)), prolog, values)
        self.outline("kernel", ["n"] + values, loop + check, values,
                     [passes] + values)
        self.outline("epilog", values, epilog, _values(State(out.writes)))
        return State(out.writes)

    def outline(self, prefix: str, params: list[str], lines: list[str],
                results: list[str], args: Optional[list[str]] = None,
                ) -> None:
        """Compile ``lines`` as a function of ``params`` returning the
        locals ``results``, and emit a call, with ``args`` (by default the
        locals named like the parameters), binding them here."""
        if not lines:
            return
        name = self.tx.name(prefix)
        self.tx.globals[name] = self.tx.function(
            name, params,
            ["    " + line for line in lines]
            + ([f"    return ({', '.join(results)},)"] if results else []),
            self.cells,
        )
        call = f"{name}({', '.join(args or params)})"
        self.emit(f"{', '.join(results)}, = {call}" if results else call)


def _values(state: State) -> list[str]:
    """The locals holding a state's pending writes and outcomes (a write
    that can never issue holds the constant ``_N``)."""
    return [w.var for w in state.writes if w.var != "_N"] + [
        var for var, _ in state.preds.values()]


def _live_predicates(region: PipelinedLoopRegion):
    """Which outcome keys, in the frame before a kernel pass, a later pass
    or the epilog may still consult."""
    u, k = region.unroll, region.started_in_prolog
    kernel: dict[int, set[int]] = {}
    epilog: set[tuple[int, int]] = set()
    for word in region.kernel:
        for slot in word.slots:
            for uid, _ in slot.preds:
                kernel.setdefault(uid, set()).add(slot.iteration)
    for word in region.epilog:
        for slot in word.slots:
            for uid, _ in slot.preds:
                epilog.add((uid, slot.iteration + k))

    def live(key: tuple[int, int]) -> bool:
        uid, x = key
        return key in epilog or any(
            y <= x and (x - y) % u == 0 for y in kernel.get(uid, ())
        )

    return live
