"""Content-addressed on-disk cache for compiled AccMoS artifacts.

AccMoS's premise is compile-once-run-fast, but a fresh gcc invocation
per :func:`~repro.codegen.driver.compile_c_program` call throws the
"once" away.  This cache keeps it: an entry is keyed by the SHA-256 of
everything that determines the artifact — the generated C source, the
compiler (absolute path *and* its ``--version`` banner, so a toolchain
upgrade invalidates), and the flag vector — so a repeated simulation of
an unchanged model performs zero compiler invocations.

Layout: one directory per entry, ``<root>/<key[:2]>/<key>/`` holding
``simulation.c`` plus its compiled artifact — a program's
``simulation.so`` shared library, or the ``simulation`` executable of
the generic simulation host (one entry per compiler, keyed by the host
source like any program).  Writes are atomic: the artifacts are staged
into a scratch directory under the root and ``os.rename``d into place;
when the entry already exists (a racing writer) the staged files are
merged in one ``os.replace`` per file — content-addressing makes the
copies identical, so either write order leaves a valid entry.  Reads
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
BINARY_NAME = "simulation"
SHARED_NAME = "simulation.so"

_compiler_versions: dict[str, str] = {}
_versions_lock = threading.Lock()


def compiler_fingerprint(compiler: str) -> str:
    """``<abspath> <first --version line>`` — memoized per compiler path."""
    path = str(Path(compiler).resolve()) if os.sep in compiler else compiler
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


def cache_key(source: str, compiler: str, cflags: Sequence[str]) -> str:
    """SHA-256 over (source, compiler path+version, flags)."""
    h = hashlib.sha256()
    h.update(compiler_fingerprint(compiler).encode())
    h.update(b"\x00")
    h.update(" ".join(cflags).encode())
    h.update(b"\x00")
    h.update(source.encode())
    return h.hexdigest()


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
    """A resolved cache entry: the source plus whichever compiled
    artifacts the entry holds (``None`` for an absent one)."""

    key: str
    source: Path
    binary: Optional[Path] = None
    shared: Optional[Path] = None


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
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- key ------------------------------------------------------------
    def key(self, source: str, compiler: str, cflags: Sequence[str]) -> str:
        return cache_key(source, compiler, cflags)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    # -- lookup/store ----------------------------------------------------
    def _resolve(self, key: str, entry_dir: Path) -> CacheEntry:
        binary = entry_dir / BINARY_NAME
        shared = entry_dir / SHARED_NAME
        return CacheEntry(
            key=key,
            source=entry_dir / SOURCE_NAME,
            binary=binary if binary.is_file() else None,
            shared=shared if shared.is_file() else None,
        )

    def lookup(
        self, key: str, names: Sequence[str] = (BINARY_NAME,)
    ) -> Optional[CacheEntry]:
        """The entry for ``key`` if the source and every artifact in
        ``names`` exist; bumps its LRU clock on hit.

        ``names`` selects which compiled artifacts the caller needs —
        the executable by default, ``(SHARED_NAME,)`` for a program's
        library.  The returned entry still reports whatever else the
        entry happens to hold.
        """
        entry = self.peek(key, names)
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        return entry

    def peek(
        self, key: str, names: Sequence[str] = (BINARY_NAME,)
    ) -> Optional[CacheEntry]:
        """:meth:`lookup` without counting a hit or a miss — for support
        artifacts (the simulation host) that would otherwise blur the
        per-program statistics.  Still bumps the LRU clock on a hit."""
        entry_dir = self._entry_dir(key)
        source = entry_dir / SOURCE_NAME
        wanted = [entry_dir / name for name in names]
        if not (source.is_file() and all(p.is_file() for p in wanted)):
            return None
        try:
            os.utime(entry_dir)
        except OSError:
            pass  # read-only cache is still a usable cache
        return self._resolve(key, entry_dir)

    def store(
        self,
        key: str,
        source_path: Path,
        binary_path: Optional[Path] = None,
        *,
        shared_path: Optional[Path] = None,
    ) -> CacheEntry:
        """Move compiled artifacts into the cache atomically.

        The artifacts are staged into a scratch dir on the same
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
            if binary_path is not None:
                shutil.move(str(binary_path), stage / BINARY_NAME)
            if shared_path is not None:
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
