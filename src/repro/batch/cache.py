"""Content-addressed schedule cache.

A compilation is a pure function of three inputs: the IR program, the
machine description, and the compiler policy.  Each input is reduced to a
stable fingerprint (the IR via the canonical printer, the machine via its
latency/reservation tables, the policy via its field values), and the
SHA-256 of the three together keys the cached :class:`CompiledProgram`.

The cache has two layers: an in-process dictionary (always on) and an
optional on-disk backend under ``.repro_cache/`` holding one pickle per
key, sharded by the first two hex digits.  Writes are atomic
(temp-file + rename), so concurrent batch workers may share a directory.
Hit/miss counters feed the batch driver's ``--stats`` output.

The disk layer carries a sharded in-memory index of its keys, built by
one directory walk at open and maintained on every ``put``: a ``get``
that misses is a dictionary probe, not a failed ``open``/``stat`` per
call, which matters once long-lived servers and warm worker pools field
thousands of lookups against the same directory.  Entries written by a
*different* process after open are not visible until
:meth:`ScheduleCache.refresh_index` (a miss just recompiles — correct,
merely redundant).

Unpickling a cache (how it crosses into process-pool workers) resolves to
one shared per-process instance per cache path (:meth:`ScheduleCache.
shared`), so persistent workers keep a warm memory layer and a
once-scanned index across every task they run instead of re-opening the
directory per task.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.ir.printer import format_program
from repro.machine.description import MachineDescription

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.compile import CompiledProgram, CompilerPolicy
    from repro.ir.stmts import Program

#: Bumped whenever the emitted-code format, the compiler's output or the
#: pickled form of anything a :class:`CompiledProgram` holds changes
#: incompatibly; invalidates every existing cache entry.  Format 2: a
#: ``Reg`` pickles as its constructor arguments (format-1 entries restore
#: registers without their cached hash).
CACHE_FORMAT = 2

DEFAULT_CACHE_DIR = ".repro_cache"

#: Per-process registry backing :meth:`ScheduleCache.shared` (the
#: unpickle target for process-pool workers), keyed by cache path.
_SHARED_CACHES: dict[Optional[str], "ScheduleCache"] = {}
_SHARED_LOCK = threading.Lock()


def fingerprint_program(program: "Program") -> str:
    """Stable fingerprint of an IR program: the canonical printer output
    (which covers every operation, bound, and declaration)."""
    text = f"{program.name}\n{format_program(program)}"
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint_machine(machine: MachineDescription) -> str:
    """Stable fingerprint of everything scheduling-relevant in a machine
    description: resources, op classes (latency + reservation rows),
    register count, and clock."""
    payload: dict[str, Any] = {
        "name": machine.name,
        "resources": dict(sorted(machine.resources.items())),
        "num_registers": machine.num_registers,
        "clock_mhz": machine.clock_mhz,
        "flop_opcodes": sorted(machine.flop_opcodes),
        "op_classes": {
            name: {
                "latency": cls.latency,
                "reservation": list(cls.reservation),
            }
            for name, cls in sorted(machine.op_classes.items())
        },
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def fingerprint_policy(policy: "CompilerPolicy") -> str:
    """Stable fingerprint of a :class:`CompilerPolicy`.

    ``dataclasses.asdict`` is not used directly because frozenset fields
    iterate in hash order; collections are sorted first.
    """
    fields: dict[str, Any] = {}
    for f in dataclasses.fields(policy):
        value = getattr(policy, f.name)
        if isinstance(value, (frozenset, set)):
            value = sorted(value)
        fields[f.name] = value
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True, default=repr).encode()
    ).hexdigest()


def cache_key(
    program: "Program",
    machine: MachineDescription,
    policy: "CompilerPolicy",
) -> str:
    """The content address of one compilation."""
    combined = "\n".join(
        (
            f"format={CACHE_FORMAT}",
            fingerprint_program(program),
            fingerprint_machine(machine),
            fingerprint_policy(policy),
        )
    )
    return hashlib.sha256(combined.encode()).hexdigest()


class ScheduleCache:
    """Two-layer (memory + optional disk) cache of compiled programs.

    ``path=None`` keeps the cache purely in-memory; otherwise entries are
    persisted under ``path`` and survive across processes, so re-running a
    benchmark suite is a hash lookup per program.
    """

    def __init__(self, path: str | os.PathLike | None = DEFAULT_CACHE_DIR):
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._memory: dict[str, "CompiledProgram"] = {}
        self._index: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.path is not None:
            self.refresh_index()

    # -- internals -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / key[:2] / f"{key}.pkl"

    def _record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    # -- the on-disk key index -----------------------------------------------

    def refresh_index(self) -> int:
        """Rescan the cache directory into the sharded in-memory key index
        and return the number of indexed keys.

        One walk at open covers the common case; call this to pick up
        entries written by *other* processes since (a stale index only
        costs a redundant recompile, never a wrong result).
        """
        index: dict[str, set[str]] = {}
        if self.path is not None and self.path.is_dir():
            for shard in self.path.iterdir():
                if not (shard.is_dir() and len(shard.name) == 2):
                    continue
                keys = {
                    entry.name[: -len(".pkl")]
                    for entry in shard.iterdir()
                    if entry.name.endswith(".pkl")
                }
                if keys:
                    index[shard.name] = keys
        with self._lock:
            self._index = index
            return sum(len(keys) for keys in index.values())

    @property
    def index_size(self) -> int:
        """Number of on-disk keys the index currently knows about."""
        with self._lock:
            return sum(len(keys) for keys in self._index.values())

    def _index_has(self, key: str) -> bool:
        with self._lock:
            shard = self._index.get(key[:2])
            return shard is not None and key in shard

    def _index_add(self, key: str) -> None:
        with self._lock:
            self._index.setdefault(key[:2], set()).add(key)

    def _index_discard(self, key: str) -> None:
        with self._lock:
            shard = self._index.get(key[:2])
            if shard is not None:
                shard.discard(key)

    # -- pickling (process-pool batch backend) -------------------------------

    @classmethod
    def shared(cls, path: str | None) -> "ScheduleCache":
        """The per-process shared instance for ``path``.

        This is the unpickle target: only the disk path crosses a process
        boundary, and every task landing in one worker process resolves to
        the same instance, so a persistent worker keeps its memory layer
        and key index warm across tasks.  Counters start at zero in each
        process (batch hit/miss accounting rides on per-result flags, not
        on these counters).  Two memory-only caches (``path=None``) merge
        into one per-process instance when unpickled — harmless, since
        keys are content addresses.
        """
        with _SHARED_LOCK:
            cache = _SHARED_CACHES.get(path)
            if cache is None:
                cache = cls(path)
                _SHARED_CACHES[path] = cache
            return cache

    def __reduce__(self):
        path = str(self.path) if self.path is not None else None
        return (ScheduleCache.shared, (path,))

    # -- the cache protocol --------------------------------------------------

    def get(self, key: str) -> Optional["CompiledProgram"]:
        """The cached compilation for ``key``, or ``None`` (counted as a
        miss).  A miss against the disk layer is an index probe — no
        ``stat``/``open`` syscall per absent key."""
        with self._lock:
            cached = self._memory.get(key)
        if cached is not None:
            self._record(hit=True)
            return cached
        if self.path is not None and self._index_has(key):
            entry = self._entry_path(key)
            try:
                with open(entry, "rb") as handle:
                    compiled = pickle.load(handle)
            except Exception:
                # Unpickling a truncated/corrupt/vanished entry can raise
                # nearly anything; drop it from the index and treat it as
                # a miss (the recompile's put restores it).
                self._index_discard(key)
            else:
                with self._lock:
                    self._memory[key] = compiled
                self._record(hit=True)
                return compiled
        self._record(hit=False)
        return None

    def put(self, key: str, compiled: "CompiledProgram") -> None:
        with self._lock:
            self._memory[key] = compiled
        if self.path is None:
            return
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(compiled, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, entry)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._index_add(key)

    # -- reporting -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "memory_entries": len(self._memory),
            "index_size": self.index_size,
            "path": str(self.path) if self.path is not None else None,
        }

    def clear(self) -> None:
        """Drop the in-memory layer and delete every on-disk entry."""
        with self._lock:
            self._memory.clear()
            self._index = {}
            self.hits = 0
            self.misses = 0
        if self.path is not None and self.path.is_dir():
            for shard in self.path.iterdir():
                if shard.is_dir():
                    for entry in shard.glob("*.pkl"):
                        entry.unlink(missing_ok=True)
