"""gcc compilation of a generated program into its shared library.

Every program is compiled once, as a shared library, through one
path: an :class:`~repro.runner.cache.ArtifactCache` lookup, gcc on a
miss, a store.  With caching off the cache is a private one in a
scratch directory owned by the :class:`CompiledSimulation`, so the
compile misses and the library goes when the handle does.  Every
case runs the library in-process through ``ctypes``
(:mod:`repro.inproc.library`).

:data:`CFLAGS` is the one flag vector, and part of every cache key:

* ``-O1`` — the level that minimises end-to-end time: gcc is most of a
  cold campaign, and ``-O3``'s faster loop pays back its extra compile
  time only after millions of steps (the ``-O`` sweep is
  ``benchmarks/bench_ablations.py``); results are identical at every
  level (``tests/test_opt_levels.py``);
* ``-ffp-contract=off`` — forbid fused multiply-add contraction, which
  would change float results relative to the Python reference;
* strict IEEE (gcc's default; never ``-ffast-math``).
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from shutil import which
from typing import TYPE_CHECKING, Optional

from repro import telemetry
from repro.codegen.compose import ProgramLayout
from repro.model.errors import CompilationError

if TYPE_CHECKING:  # avoids importing the runner package at module load
    from repro.runner.cache import ArtifactCache

CFLAGS = ["-O1", "-ffp-contract=off", "-std=c11"]
SHARED_FLAGS = ["-shared", "-fPIC"]
LIBS = ["-lm"]

PROGRAM_NAME = "simulation.so"


# PATH value -> the compiler found on it.
_compilers: "dict[Optional[str], Optional[str]]" = {}


def find_c_compiler() -> Optional[str]:
    """The first available C compiler, or None; looked up once per
    value of ``PATH``."""
    search = os.environ.get("PATH")
    if search not in _compilers:
        _compilers[search] = next(
            filter(None, map(which, ("gcc", "cc", "clang"))), None
        )
    return _compilers[search]


def _require_compiler(compiler: Optional[str]) -> str:
    compiler = compiler or find_c_compiler()
    if compiler is None:
        raise CompilationError("no C compiler found (need gcc, cc, or clang)")
    return compiler


def _flags() -> list[str]:
    """The compile flags, read from :data:`CFLAGS` at call time; with
    :data:`LIBS`, the cache-key flag vector."""
    return [*CFLAGS, *SHARED_FLAGS]


def _run_compiler(compiler: str, c_path: Path, out_path: Path) -> float:
    """One compiler invocation building the shared library ``out_path``
    from ``c_path``; returns the wall seconds spent."""
    args = [*_flags(), "-o", str(out_path), str(c_path), *LIBS]
    start = time.perf_counter()
    with telemetry.span("gcc", compiler=compiler, artifact="shared"):
        proc = subprocess.run(
            [compiler, *args], capture_output=True, text=True, check=False
        )
    elapsed = time.perf_counter() - start
    telemetry.observe("compile.gcc_seconds", elapsed)
    if proc.returncode != 0:
        telemetry.counter_inc("compile.failures")
        raise CompilationError(f"{compiler} failed:\n{proc.stderr[:4000]}")
    return elapsed


@dataclass
class CompiledSimulation:
    """A compiled simulation program — its shared library — plus
    everything to interpret its runs.

    ``scratch`` is the directory of a private cache (caching off): it
    holds the library and is removed with this handle.
    """

    shared: Path
    source: Path
    layout: ProgramLayout
    compile_seconds: float
    cache: "ArtifactCache" = field(repr=False, compare=False)
    cache_key: str = field(repr=False, compare=False)
    cache_hit: bool = False
    scratch: Optional[tempfile.TemporaryDirectory] = field(
        default=None, repr=False, compare=False
    )


def compile_c_program(
    source: str,
    layout: ProgramLayout,
    *,
    compiler: Optional[str] = None,
    cache: "Optional[ArtifactCache]" = None,
) -> CompiledSimulation:
    """Write and compile a generated program into its shared library.

    The compile is served from the content-addressed artifact ``cache``
    when the same (source, compiler, flags) triple was compiled before —
    zero compiler invocations on a hit; on a miss the artifact is moved
    into the cache atomically so later calls (from any process) hit.
    Concurrent calls for one key in one process wait on the key's lock,
    so the compiler runs once and the others hit.  Without ``cache`` the
    program compiles into a private cache in a scratch directory that
    lives as long as the returned handle.
    """
    from repro.runner.cache import ArtifactCache

    compiler = _require_compiler(compiler)
    scratch = None
    if cache is None:
        scratch = tempfile.TemporaryDirectory(prefix="accmos_")
        cache = ArtifactCache(scratch.name)

    with telemetry.span("compile") as compile_span:
        start = time.perf_counter()
        key = cache.key(source, compiler, [*_flags(), *LIBS])
        with cache.key_lock(key):
            entry = cache.lookup(key)
            hit = entry is not None
            telemetry.counter_inc("cache.hits" if hit else "cache.misses")
            compile_span.set(cache_hit=hit)
            if hit:
                elapsed = time.perf_counter() - start
            else:
                with tempfile.TemporaryDirectory(prefix="accmos_") as tmp:
                    c_path = Path(tmp) / "simulation.c"
                    out_path = Path(tmp) / PROGRAM_NAME
                    c_path.write_text(source)
                    elapsed = _run_compiler(compiler, c_path, out_path)
                    entry = cache.store(key, c_path, out_path)
    return CompiledSimulation(
        shared=entry.shared,
        source=entry.source,
        layout=layout,
        compile_seconds=elapsed,
        cache=cache,
        cache_key=key,
        cache_hit=hit,
        scratch=scratch,
    )
