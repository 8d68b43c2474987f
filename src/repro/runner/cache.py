"""Content-addressed on-disk cache for compiled AccMoS artifacts.

AccMoS's premise is compile-once-run-fast, but a fresh gcc invocation
per :func:`~repro.codegen.driver.compile_c_program` call throws the
"once" away.  This cache keeps it: an entry is keyed by the SHA-256 of
everything that determines the artifact — the generated C source, the
compiler (absolute path *and* its ``--version`` banner, so a toolchain
upgrade invalidates), and the flag vector — so a repeated simulation of
an unchanged model performs zero compiler invocations.

Layout: one directory per entry, ``<root>/<key[:2]>/<key>/`` holding
``simulation.c`` plus the program's compiled ``simulation.so`` shared
library.  Writes are atomic: both files are staged into a scratch
directory under the root and ``os.rename``d into place; when the entry
already exists (a racing writer, or a damaged entry being rebuilt) the
staged files are merged in one ``os.replace`` per file —
content-addressing makes the copies identical, so either write order
leaves a valid entry.  Reads
bump the entry's mtime; eviction removes least-recently-used entries
whole.

A process-wide default cache (:func:`default_cache`) lives at
``$ACCMOS_CACHE_DIR`` (default ``~/.cache/accmos/artifacts``) and is
what the AccMoS engine and the campaign layer route through; set
``ACCMOS_NO_CACHE=1`` to disable it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

DEFAULT_MAX_BYTES = 512 * 1024 * 1024  # plenty for ~10k typical binaries

SOURCE_NAME = "simulation.c"
SHARED_NAME = "simulation.so"

_compiler_versions: dict[str, str] = {}
# An absolute compiler path as given -> the path it resolves to, so a
# warm key skips the symlink walk.
_resolved_compilers: dict[str, str] = {}
_versions_lock = threading.Lock()


def compiler_fingerprint(compiler: str) -> str:
    """``<abspath> <first --version line>`` — memoized per compiler path."""
    with _versions_lock:
        path = _resolved_compilers.get(compiler)
    if path is None:
        path = str(Path(compiler).resolve()) if os.sep in compiler else compiler
        if os.path.isabs(compiler):
            with _versions_lock:
                _resolved_compilers[compiler] = path
    with _versions_lock:
        cached = _compiler_versions.get(path)
    if cached is not None:
        return cached
    try:
        proc = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, check=False
        )
        banner = proc.stdout.splitlines()[0] if proc.stdout else "unknown"
    except OSError:
        banner = "unknown"
    fingerprint = f"{path} {banner}"
    with _versions_lock:
        _compiler_versions[path] = fingerprint
    return fingerprint


# (compiler fingerprint, flags, source) -> key, for the latest
# _KEYS_BOUND sources: a warm request keys the same generated source
# again on every compile.
_keys: "dict[tuple[str, str, str], str]" = {}
_KEYS_BOUND = 16


def cache_key(source: str, compiler: str, cflags: Sequence[str]) -> str:
    """SHA-256 over (source, compiler path+version, flags)."""
    fingerprint = compiler_fingerprint(compiler)
    flags = " ".join(cflags)
    inputs = (fingerprint, flags, source)
    with _versions_lock:
        key = _keys.get(inputs)
    if key is None:
        h = hashlib.sha256()
        h.update(fingerprint.encode())
        h.update(b"\x00")
        h.update(flags.encode())
        h.update(b"\x00")
        h.update(source.encode())
        key = h.hexdigest()
        with _versions_lock:
            if len(_keys) >= _KEYS_BOUND:
                del _keys[next(iter(_keys))]
            _keys[inputs] = key
    return key


@dataclass
class CacheStats:
    """One cache's counters (hits/misses/evictions are per-process)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} entries={self.entries} "
            f"bytes={self.bytes}"
        )


@dataclass
class CacheEntry:
    """A resolved cache entry: the source and its shared library."""

    key: str
    source: Path
    shared: Path


class ArtifactCache:
    """Persistent LRU cache of compiled simulation binaries."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- key ------------------------------------------------------------
    def key(self, source: str, compiler: str, cflags: Sequence[str]) -> str:
        return cache_key(source, compiler, cflags)

    def key_lock(self, key: str) -> threading.Lock:
        """The lock a compiler holds around lookup-compile-store of
        ``key``, so concurrent cold compiles of one key in this process
        run the compiler once and the rest hit the cache."""
        with self._lock:
            return self._key_locks.setdefault(key, threading.Lock())

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    # -- lookup/store ----------------------------------------------------
    def _resolve(self, key: str, entry_dir: Path) -> CacheEntry:
        return CacheEntry(
            key=key,
            source=entry_dir / SOURCE_NAME,
            shared=entry_dir / SHARED_NAME,
        )

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key`` if its source and its library both
        exist; counts a hit or a miss and bumps the entry's LRU clock on
        a hit."""
        entry = self._resolve(key, self._entry_dir(key))
        hit = entry.source.is_file() and entry.shared.is_file()
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1
        if not hit:
            return None
        try:
            os.utime(entry.source.parent)
        except OSError:
            pass  # read-only cache is still a usable cache
        return entry

    def store(
        self, key: str, source_path: Path, shared_path: Path
    ) -> CacheEntry:
        """Move a source and its compiled library into the cache
        atomically.

        Both files are staged into a scratch dir on the same
        filesystem and renamed into the final entry path in one step.
        When the entry already exists — a racing writer — the staged
        files are merged in with one atomic ``os.replace`` per file;
        identical keys mean identical content, so whichever copy lands is
        valid.
        """
        entry_dir = self._entry_dir(key)
        entry_dir.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(
            tempfile.mkdtemp(prefix=f"stage-{key[:8]}-", dir=str(self.root))
        )
        try:
            shutil.move(str(source_path), stage / SOURCE_NAME)
            shutil.move(str(shared_path), stage / SHARED_NAME)
            try:
                os.rename(stage, entry_dir)
            except OSError:
                # The entry exists: merge the staged files into it.
                for staged in stage.iterdir():
                    try:
                        os.replace(staged, entry_dir / staged.name)
                    except OSError:
                        pass  # best effort; the entry stays consistent
                shutil.rmtree(stage, ignore_errors=True)
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        self._evict_over_bound(keep=entry_dir)
        return self._resolve(key, entry_dir)

    # -- maintenance -----------------------------------------------------
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            entry
            for shard in self.root.iterdir()
            if shard.is_dir() and len(shard.name) == 2
            for entry in shard.iterdir()
            if entry.is_dir()
        ]

    @staticmethod
    def _entry_bytes(entry: Path) -> int:
        return sum(f.stat().st_size for f in entry.iterdir() if f.is_file())

    def _evict_over_bound(self, keep: Optional[Path] = None) -> None:
        entries = []
        total = 0
        for entry in self._entries():
            try:
                size = self._entry_bytes(entry)
                mtime = entry.stat().st_mtime
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((mtime, size, entry))
            total += size
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest first
        for _, size, entry in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and entry == keep:
                continue
            shutil.rmtree(entry, ignore_errors=True)
            total -= size
            with self._lock:
                self._evictions += 1

    def stats(self) -> CacheStats:
        entries = self._entries()
        total = 0
        for entry in entries:
            try:
                total += self._entry_bytes(entry)
            except OSError:
                pass
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(entries),
                bytes=total,
            )

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for entry in self._entries():
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        return removed


# ----------------------------------------------------------------------
# process-wide default
# ----------------------------------------------------------------------
CACHE_DIR_ENV = "ACCMOS_CACHE_DIR"
CACHE_DISABLE_ENV = "ACCMOS_NO_CACHE"

_default_cache: Optional[ArtifactCache] = None
_default_resolved = False
_default_lock = threading.Lock()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "accmos" / "artifacts"


def default_cache() -> Optional[ArtifactCache]:
    """The process-wide cache the AccMoS engine routes through.

    ``None`` when disabled (``ACCMOS_NO_CACHE=1``) or when the cache
    directory cannot be created (e.g. read-only home).
    """
    global _default_cache, _default_resolved
    with _default_lock:
        if _default_resolved:
            return _default_cache
        if os.environ.get(CACHE_DISABLE_ENV, "").strip() not in ("", "0"):
            _default_cache = None
        else:
            try:
                _default_cache = ArtifactCache(default_cache_dir())
            except OSError:
                _default_cache = None
        _default_resolved = True
        return _default_cache


def set_default_cache(cache: Optional[ArtifactCache]) -> Optional[ArtifactCache]:
    """Override the process-wide cache (tests, embedding apps).

    Returns the previous default so callers can restore it.
    """
    global _default_cache, _default_resolved
    with _default_lock:
        previous = _default_cache if _default_resolved else None
        _default_cache = cache
        _default_resolved = True
        return previous
