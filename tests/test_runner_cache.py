"""Artifact-cache correctness: keys, hits, atomicity, eviction."""

from __future__ import annotations

import gc
import os
import threading
from pathlib import Path

import pytest

from repro import telemetry
from repro.codegen import descriptors_for, generate_reusable_c_program
from repro.codegen.driver import CFLAGS, compile_c_program, find_c_compiler
from repro.inproc import LoadedModel, ResultDecoder, encode_case_binary
from repro.dtypes import I32
from repro.engines.base import SimulationOptions
from repro.instrument import build_plan
from repro.model import ModelBuilder
from repro.runner import cache as cache_mod
from repro.runner.cache import ArtifactCache, cache_key
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import requires_cc


def _canonical(buf: bytes) -> bytes:
    """A result buffer minus the run-varying self-timing word (the
    elapsed seconds, bytes 16..24)."""
    return buf[:16] + buf[24:]


def _prog():
    b = ModelBuilder("CacheDemo")
    x = b.inport("X", dtype=I32)
    acc = b.accumulator("Acc", x, dtype=I32)
    b.outport("Y", acc)
    return preprocess(b.build())


def _generated(monitor_limit=256):
    prog = _prog()
    options = SimulationOptions(monitor_limit=monitor_limit)
    return generate_reusable_c_program(prog, build_plan(prog), options)


def _run(compiled, seed=1, steps=40) -> bytes:
    """Run one default-stimuli case on the compiled library; the
    canonical result buffer."""
    prog = _prog()
    plan = build_plan(prog)
    descriptors = descriptors_for(
        prog, default_stimuli(prog, seed=seed), steps=steps
    )
    size = ResultDecoder(compiled.layout, plan, SimulationOptions()).size
    lib = LoadedModel(compiled.shared, result_size=size)
    try:
        return _canonical(
            lib.run_case(encode_case_binary(descriptors, steps=steps))
        )
    finally:
        lib.retire()


class TestCacheKey:
    def _fake_compiler(self, name, banner):
        path = f"/nonexistent/{name}"
        resolved = str(os.path.realpath(path))
        cache_mod._compiler_versions[resolved] = f"{resolved} {banner}"
        return path

    def test_deterministic(self):
        cc = self._fake_compiler("gcc-a", "gcc 13.2.0")
        assert cache_key("int main(){}", cc, CFLAGS) == cache_key(
            "int main(){}", cc, CFLAGS
        )

    def test_one_byte_of_source_changes_key(self):
        cc = self._fake_compiler("gcc-a", "gcc 13.2.0")
        assert cache_key("int main(){return 0;}", cc, CFLAGS) != cache_key(
            "int main(){return 1;}", cc, CFLAGS
        )

    def test_cflags_change_key(self):
        cc = self._fake_compiler("gcc-a", "gcc 13.2.0")
        assert cache_key("int main(){}", cc, ["-O3"]) != cache_key(
            "int main(){}", cc, ["-O0"]
        )

    def test_compiler_version_changes_key(self):
        old = self._fake_compiler("gcc-old", "gcc 12.1.0")
        new = self._fake_compiler("gcc-new", "gcc 13.2.0")
        assert cache_key("int main(){}", old, CFLAGS) != cache_key(
            "int main(){}", new, CFLAGS
        )

    def test_remembered_key_follows_a_new_banner(self):
        """Keys are remembered per (compiler fingerprint, flags, source):
        a compiler whose banner changes gets a new key, and the
        remembered key equals a fresh digest."""
        cc = self._fake_compiler("gcc-up", "gcc 12.1.0")
        before = cache_key("int main(){}", cc, CFLAGS)
        assert cache_key("int main(){}", cc, CFLAGS) == before
        self._fake_compiler("gcc-up", "gcc 13.2.0")
        after = cache_key("int main(){}", cc, CFLAGS)
        assert after != before
        cache_mod._keys.clear()
        assert cache_key("int main(){}", cc, CFLAGS) == after


def test_compiler_lookup_follows_path(tmp_path, monkeypatch):
    """``find_c_compiler`` is looked up once per ``PATH`` value: a PATH
    without a compiler finds none, and the original PATH finds the
    compiler again."""
    found = find_c_compiler()
    monkeypatch.setenv("PATH", str(tmp_path))
    assert find_c_compiler() is None
    monkeypatch.undo()
    assert find_c_compiler() == found


@requires_cc
class TestCacheCompile:
    def test_miss_then_hit_returns_working_binary(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        source, layout = _generated()

        first = compile_c_program(source, layout, cache=cache)
        assert not first.cache_hit
        second = compile_c_program(source, layout, cache=cache)
        assert second.cache_hit
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (1, 1, 1)
        assert stats.bytes > 0
        assert _run(second) == _run(first)

    def test_changed_source_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        source, layout = _generated()
        compile_c_program(source, layout, cache=cache)
        other, _ = _generated(monitor_limit=7)
        assert other != source
        compiled = compile_c_program(other, layout, cache=cache)
        assert not compiled.cache_hit
        assert cache.stats().entries == 2

    def test_uncached_compile_uses_a_private_scratch_cache(
        self, tmp_path, monkeypatch
    ):
        """``cache=False`` leaves the default cache alone and compiles
        into a private one: the library lives in a scratch directory,
        which goes with the model, and every uncached compile runs
        gcc."""
        from repro.engines.accmos import compile_model

        shared_cache = ArtifactCache(tmp_path / "cache")
        monkeypatch.setattr(cache_mod, "_default_cache", shared_cache)
        monkeypatch.setattr(cache_mod, "_default_resolved", True)
        prog = _prog()
        options = SimulationOptions(steps=10)
        with telemetry.capture() as session:
            model = compile_model(prog, options, cache=False)
            again = compile_model(prog, options, cache=False)
            model.run(default_stimuli(prog), options)
        stats = shared_cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
        assert not model.cache_hit
        scratch = Path(model.compiled.scratch.name)
        assert scratch in model.compiled.shared.parents
        assert scratch not in again.compiled.shared.parents
        gcc = [
            span.attrs["artifact"]
            for span in session.tracer.finished()
            if span.name == "gcc"
        ]
        assert gcc == ["shared", "shared"]
        del model
        gc.collect()
        assert not scratch.exists()

    def test_concurrent_same_key_leaves_one_valid_artifact(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        source, layout = _generated()
        barrier = threading.Barrier(2)
        outputs, errors = [], []

        def compete():
            try:
                barrier.wait()
                compiled = compile_c_program(source, layout, cache=cache)
                outputs.append(_run(compiled))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=compete) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outputs) == 2 and outputs[0] == outputs[1]
        assert cache.stats().entries == 1
        # No stage-* debris left behind by the losing writer.
        assert not [p for p in cache.root.iterdir() if p.name.startswith("stage-")]

    def test_concurrent_cold_compiles_of_one_key_run_gcc_once(self, tmp_path):
        """Threads released together on a cold key (more threads than
        cores, frequent thread switches): the key's lock makes one of
        them compile and the others hit the cache."""
        import sys

        from repro import telemetry

        cache = ArtifactCache(tmp_path / "cache")
        source, layout = _generated()
        n = 4
        barrier = threading.Barrier(n)
        hits, errors = [], []

        def compete():
            try:
                barrier.wait(timeout=30)
                hits.append(
                    compile_c_program(source, layout, cache=cache).cache_hit
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with telemetry.capture() as session:
                threads = [threading.Thread(target=compete) for _ in range(n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        gcc = [s for s in session.tracer.finished() if s.name == "gcc"]
        assert len(gcc) == 1
        assert sorted(hits) == [False] + [True] * (n - 1)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, n - 1)


class TestMultiArtifact:
    """One cache entry holds a pair of artifacts under one key: the
    generated source and the shared library compiled from it."""

    KEY = "dd" + "3" * 62

    def _pair(self, tmp_path, tag, src=10, shared=500):
        d = tmp_path / f"pair-{tag}"
        d.mkdir()
        (d / "src.c").write_bytes(b"s" * src)
        (d / "so").write_bytes(b"l" * shared)
        return d / "src.c", d / "so"

    def test_store_pair_and_lookup_by_names(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        src, shared = self._pair(tmp_path, "a")
        entry = cache.store(self.KEY, src, shared)
        assert entry.source.name == cache_mod.SOURCE_NAME
        assert entry.shared.name == cache_mod.SHARED_NAME
        assert entry.source.parent == entry.shared.parent
        hit = cache.lookup(self.KEY)
        assert hit == entry
        assert hit.shared.read_bytes() == b"l" * 500

    def test_lookup_misses_on_absent_artifact(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        src, shared = self._pair(tmp_path, "a")
        entry = cache.store(self.KEY, src, shared)
        entry.shared.unlink()  # a damaged entry: source only
        assert cache.lookup(self.KEY) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_merge_adds_second_artifact_to_existing_entry(self, tmp_path):
        """Storing into a damaged entry (its library gone) merges the
        staged pair in: the entry is whole again."""
        cache = ArtifactCache(tmp_path / "cache")
        src, shared = self._pair(tmp_path, "a")
        cache.store(self.KEY, src, shared).shared.unlink()
        src2, shared2 = self._pair(tmp_path, "b")
        merged = cache.store(self.KEY, src2, shared2)
        assert merged.shared.is_file()
        assert cache.lookup(self.KEY) is not None
        assert cache.stats().entries == 1
        # No stage debris from the merging writer.
        assert not [
            p for p in cache.root.iterdir() if p.name.startswith("stage-")
        ]

    def test_stats_count_both_artifacts_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        src, shared = self._pair(tmp_path, "a", src=10, shared=500)
        cache.store(self.KEY, src, shared)
        assert cache.stats().bytes == 10 + 500

    def test_eviction_removes_the_whole_pair(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache", max_bytes=1200)
        src, shared = self._pair(tmp_path, "a")
        old = cache.store("aa" + "0" * 62, src, shared)
        old_dir = old.shared.parent
        os.utime(old_dir, (1_000, 1_000))
        src, shared = self._pair(tmp_path, "b")
        cache.store("bb" + "1" * 62, src, shared)
        src, shared = self._pair(tmp_path, "c")
        cache.store("cc" + "2" * 62, src, shared)
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.bytes <= 1200
        # Entries are evicted whole: neither artifact survives.
        assert not old_dir.exists()

    def test_concurrent_pair_writers_leave_one_valid_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        barrier = threading.Barrier(2)
        errors = []

        def compete(tag):
            try:
                src, shared = self._pair(tmp_path, tag)
                barrier.wait()
                cache.store(self.KEY, src, shared)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=compete, args=(t,)) for t in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        entry = cache.lookup(self.KEY)
        assert entry is not None
        assert entry.source.read_bytes() == b"s" * 10
        assert entry.shared.read_bytes() == b"l" * 500
        assert cache.stats().entries == 1
        assert not [
            p for p in cache.root.iterdir() if p.name.startswith("stage-")
        ]


class TestEvictionAndAdmin:
    def _seed_entry(self, tmp_path, cache, key, mtime, size=1000):
        src = tmp_path / f"{key}.c"
        shared = tmp_path / key
        src.write_bytes(b"s" * 10)
        shared.write_bytes(b"l" * size)
        entry = cache.store(key, src, shared)
        entry_dir = entry.shared.parent
        os.utime(entry_dir, (mtime, mtime))
        return entry_dir

    def test_lru_eviction_respects_bound(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache", max_bytes=2500)
        old = self._seed_entry(tmp_path, cache, "aa" + "0" * 62, mtime=1_000)
        young = self._seed_entry(tmp_path, cache, "bb" + "1" * 62, mtime=2_000)
        # Third entry pushes the total over 2500 bytes: the oldest goes.
        self._seed_entry(tmp_path, cache, "cc" + "2" * 62, mtime=3_000)
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.bytes <= 2500
        assert not old.exists()
        assert young.exists()

    def test_lookup_bumps_lru_clock(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache", max_bytes=2500)
        key_a = "aa" + "0" * 62
        a = self._seed_entry(tmp_path, cache, key_a, mtime=1_000)
        b = self._seed_entry(tmp_path, cache, "bb" + "1" * 62, mtime=2_000)
        assert cache.lookup(key_a) is not None  # bumps a's mtime to "now"
        self._seed_entry(tmp_path, cache, "cc" + "2" * 62, mtime=3_000)
        assert a.exists()  # recently used: survived
        assert not b.exists()

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        self._seed_entry(tmp_path, cache, "aa" + "0" * 62, mtime=1_000)
        self._seed_entry(tmp_path, cache, "bb" + "1" * 62, mtime=2_000)
        assert cache.clear() == 2
        stats = cache.stats()
        assert (stats.entries, stats.bytes) == (0, 0)
        assert cache.lookup("aa" + "0" * 62) is None

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(tmp_path / "cache", max_bytes=0)


class TestDefaultCache:
    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_DISABLE_ENV, "1")
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        monkeypatch.setattr(cache_mod, "_default_resolved", False)
        assert cache_mod.default_cache() is None

    def test_env_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.delenv(cache_mod.CACHE_DISABLE_ENV, raising=False)
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(tmp_path / "alt"))
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        monkeypatch.setattr(cache_mod, "_default_resolved", False)
        cache = cache_mod.default_cache()
        assert cache is not None and cache.root == tmp_path / "alt"

    def test_set_default_returns_previous(self, tmp_path):
        alt = ArtifactCache(tmp_path / "alt")
        previous = cache_mod.set_default_cache(alt)
        try:
            assert cache_mod.default_cache() is alt
        finally:
            cache_mod.set_default_cache(previous)
