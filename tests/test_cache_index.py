"""The schedule cache's sharded on-disk key index and per-process
shared unpickling.

The index exists so a warm directory's misses are dictionary probes, not
``open``/``stat`` attempts: the test for that literally forbids ``open``
during a miss.  Staleness is allowed in exactly one direction — an entry
the index does not know about costs a recompile, never a wrong result.
"""

import builtins
import copyreg
import io
import pickle

import pytest

import repro.batch.cache as cache_module
from repro import WARP
from repro.batch import ScheduleCache, cache_key, compile_many, compile_one
from repro.core.compile import CompilerPolicy
from repro.frontend import parse_program
from repro.ir import Reg
from repro.simulator import run_and_check
from repro.workloads import generate_suite

SUITE = generate_suite()


def _fill(cache_dir, count=4):
    """Compile ``count`` programs into a cache directory; return keys."""
    cache = ScheduleCache(cache_dir)
    report = compile_many(SUITE[:count], WARP, cache=cache)
    assert not report.errors
    keys = []
    for program in SUITE[:count]:
        ir, _ = parse_program(program.source)
        keys.append(cache_key(ir, WARP, CompilerPolicy()))
    return keys


class TestIndexLifecycle:
    def test_built_at_open(self, tmp_path):
        keys = _fill(tmp_path / "cache")
        reopened = ScheduleCache(tmp_path / "cache")
        assert reopened.index_size == len(keys)
        assert reopened.stats()["index_size"] == len(keys)
        for key in keys:
            assert reopened.get(key) is not None
        assert reopened.hits == len(keys)

    def test_maintained_on_put(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        assert cache.index_size == 0
        result = compile_one("p0", SUITE[0].source, WARP, cache=cache)
        assert result.ok and not result.from_cache
        assert cache.index_size == 1

    def test_memory_only_cache_has_empty_index(self):
        cache = ScheduleCache(None)
        assert cache.index_size == 0
        assert cache.stats()["index_size"] == 0

    def test_clear_resets_index(self, tmp_path):
        _fill(tmp_path / "cache")
        cache = ScheduleCache(tmp_path / "cache")
        assert cache.index_size > 0
        cache.clear()
        assert cache.index_size == 0
        assert ScheduleCache(tmp_path / "cache").index_size == 0

    def test_refresh_picks_up_foreign_writes(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        assert cache.index_size == 0
        # Another process writes entries into the same directory...
        keys = _fill(tmp_path / "cache")
        # ...which this instance cannot see until a refresh.
        assert cache.get(keys[0]) is None
        assert cache.refresh_index() == len(keys)
        assert cache.get(keys[0]) is not None


class TestMissesTouchNoDisk:
    def test_warm_directory_miss_is_a_dict_probe(self, tmp_path, monkeypatch):
        _fill(tmp_path / "cache")
        cache = ScheduleCache(tmp_path / "cache")

        def forbidden_open(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a cache miss must not open() anything")

        monkeypatch.setattr(builtins, "open", forbidden_open)
        assert cache.get("f" * 64) is None
        assert cache.misses == 1

    def test_vanished_entry_degrades_to_miss(self, tmp_path):
        keys = _fill(tmp_path / "cache", count=2)
        cache = ScheduleCache(tmp_path / "cache")
        # Delete the file behind the index's back.
        cache._entry_path(keys[0]).unlink()
        assert cache.get(keys[0]) is None
        # The stale key was dropped, so the retry is a pure dict miss.
        assert not cache._index_has(keys[0])
        assert cache.get(keys[1]) is not None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        keys = _fill(tmp_path / "cache", count=1)
        cache = ScheduleCache(tmp_path / "cache")
        cache._entry_path(keys[0]).write_bytes(b"not a pickle")
        assert cache.get(keys[0]) is None
        assert cache.misses == 1


class _Format1Pickler(pickle.Pickler):
    """Pickles registers the way format-1 entries hold them: the default
    dataclass reduction, fields as state and no constructor call."""

    def reducer_override(self, obj):
        if type(obj) is Reg:
            return (copyreg.__newobj__, (Reg,),
                    {"name": obj.name, "kind": obj.kind})
        return NotImplemented


def _format_1_dumps(obj) -> bytes:
    buffer = io.BytesIO()
    _Format1Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


class TestFormat:
    def test_format_1_entry_is_not_served(self, tmp_path, monkeypatch):
        """A format-1 entry restores registers without the hash a register
        now computes at construction, so simulating it would fail; the
        format in the key keeps such entries from being served."""
        source = SUITE[0].source
        ir, _ = parse_program(source)
        compiled = compile_one("p0", source, WARP).compiled
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_FORMAT", 1)
            old_key = cache_key(ir, WARP, CompilerPolicy())
        cache_dir = tmp_path / "cache"
        entry = ScheduleCache(cache_dir)._entry_path(old_key)
        entry.parent.mkdir(parents=True)
        entry.write_bytes(_format_1_dumps(compiled))
        stale = pickle.loads(entry.read_bytes())
        with pytest.raises(AttributeError):
            run_and_check(stale.code)

        cache = ScheduleCache(cache_dir)
        assert cache.index_size == 1
        key = cache_key(ir, WARP, CompilerPolicy())
        assert key != old_key
        assert cache.get(key) is None
        result = compile_one("p0", source, WARP, cache=cache)
        assert result.ok and not result.from_cache
        served = ScheduleCache(cache_dir).get(key)
        assert served is not None
        run_and_check(served.code)


class TestSharedUnpickling:
    def test_unpickle_resolves_to_per_process_instance(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        first = pickle.loads(pickle.dumps(cache))
        second = pickle.loads(pickle.dumps(cache))
        assert first is second
        assert str(first.path) == str(cache.path)
        # The original is NOT the shared instance (tests stay isolated).
        assert first is not cache

    def test_shared_instance_keeps_memory_warm(self, tmp_path):
        keys = _fill(tmp_path / "cache", count=1)
        shared = pickle.loads(pickle.dumps(ScheduleCache(tmp_path / "cache")))
        assert shared.get(keys[0]) is not None  # disk hit, now in memory
        again = pickle.loads(pickle.dumps(ScheduleCache(tmp_path / "cache")))
        assert again is shared
        assert len(again._memory) == 1

    def test_memory_only_roundtrip_shares_too(self):
        first = pickle.loads(pickle.dumps(ScheduleCache(None)))
        second = pickle.loads(pickle.dumps(ScheduleCache(None)))
        assert first is second
        assert first.path is None

    def test_process_backend_warm_rerun_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warm = compile_many(SUITE[:4], WARP, cache=ScheduleCache(cache_dir))
        assert warm.cache_misses == 4
        rerun = compile_many(
            SUITE[:4], WARP, jobs=2, backend="process",
            cache=ScheduleCache(cache_dir),
        )
        assert rerun.cache_hits == 4
