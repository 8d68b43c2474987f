"""Loading and driving the compiled program in-process via ``ctypes``.

Where every AccMoS case runs: no spawn, no fork, no pipes, no text.
A :class:`LoadedModel` wraps one ``dlopen`` of the reusable program built
with ``-shared -fPIC`` and pushes packed case records through
``acc_lib_run_case``.

Isolation: the program keeps its entire simulation state in C globals,
so every :class:`LoadedModel` gets a *private copy* of the ``.so`` file
(``dlopen`` of the same inode returns the same globals — a fresh inode
forces a fresh namespace).  The copy is unlinked immediately after
loading; the mapping keeps it alive.  One instance is single-threaded
(guarded by a lock); callers that want parallelism load one instance per
thread — ``ctypes`` releases the GIL around the call.

Faults: a library that cannot be loaded, a failed handshake, any
non-zero return from the library, or use after :meth:`retire` raises
:class:`LibraryFault`, whose text names the in-process library and the
cause.  A faulting instance is retired (best effort ``dlclose``); the
engine layer records the fault as that case's outcome and carries on
with a fresh instance.
"""

from __future__ import annotations

import _ctypes
import ctypes
import os
import shutil
import tempfile
import threading
from typing import Optional, Union

from repro import telemetry
from repro.model.errors import SimulationError
from repro.inproc.abi import ABI_VERSION


class LibraryFault(SimulationError):
    """The in-process library misbehaved: it could not be loaded, failed
    its handshake, returned a non-zero status, or was used after
    retirement.  The engine makes it the outcome of the case it hit."""

    def __str__(self) -> str:
        return f"in-process library: {super().__str__()}"


# acc_lib_run_case's non-zero statuses (codegen.compose._emit_lib_exports).
_RUN_STATUS = {
    -1: "malformed case record",
    -2: "port count mismatch",
    -3: "result buffer too short",
}


def check_handshake(abi: int, result_size: int, expected_size: int) -> None:
    """The load-time handshake: a compiled program's
    ``acc_lib_abi_version()`` and ``acc_lib_result_size()`` must match
    what this Python side encodes and decodes."""
    if abi != ABI_VERSION:
        raise LibraryFault(
            f"library ABI version {abi} != expected {ABI_VERSION}"
        )
    if result_size != expected_size:
        raise LibraryFault(
            f"library result size {result_size} != computed "
            f"{expected_size} (layout drift)"
        )


def _dlclose(handle: int) -> None:
    try:
        _ctypes.dlclose(handle)
    except OSError:  # dlclose() failed: _ctypes raises with dlerror()
        # Leaking a mapping beats crashing the host, but a leak must be
        # observable: long campaigns that churn instances would otherwise
        # exhaust address space with no signal at all.
        telemetry.counter_inc("engine.inproc.dlclose_errors")


class LoadedModel:
    """One private in-process instance of a compiled reusable program."""

    def __init__(self, shared_path: Union[str, os.PathLike], *, result_size: int):
        self._lock = threading.Lock()
        self._lib: Optional[ctypes.CDLL] = None
        self._handle: Optional[int] = None
        self.healthy = False
        self.result_size = int(result_size)

        # Private globals: copy to a unique inode, load, unlink.
        copy_path = None

        def cause(exc: Exception) -> str:
            # Name the library, not its private copy: the same text on
            # every load.
            text = str(exc)
            return text if copy_path is None else text.replace(
                copy_path, os.fspath(shared_path)
            )

        try:
            fd, copy_path = tempfile.mkstemp(prefix="accmos-lib-", suffix=".so")
            with os.fdopen(fd, "wb") as out, open(shared_path, "rb") as src:
                shutil.copyfileobj(src, out)
            lib = ctypes.CDLL(copy_path)
        except OSError as exc:
            raise LibraryFault(
                f"cannot load shared library: {cause(exc)}"
            ) from exc
        finally:
            if copy_path is not None:
                try:
                    os.unlink(copy_path)
                except OSError:
                    pass

        try:
            lib.acc_lib_abi_version.restype = ctypes.c_int
            lib.acc_lib_result_size.restype = ctypes.c_longlong
            lib.acc_lib_init.restype = ctypes.c_int
            lib.acc_lib_run_case.restype = ctypes.c_int
            lib.acc_lib_run_case.argtypes = [
                ctypes.c_char_p,
                ctypes.c_longlong,
                ctypes.c_char_p,
                ctypes.c_longlong,
            ]
            check_handshake(
                lib.acc_lib_abi_version(),
                lib.acc_lib_result_size(),
                self.result_size,
            )
            rc = lib.acc_lib_init()
            if rc != 0:
                raise LibraryFault(
                    f"acc_lib_init returned {rc}; refusing a "
                    "half-initialized library"
                )
        except AttributeError as exc:
            _dlclose(lib._handle)
            raise LibraryFault(
                f"shared library missing acc_lib_* exports: {cause(exc)}"
            ) from exc
        except LibraryFault:
            _dlclose(lib._handle)
            raise

        self._lib = lib
        self._handle = lib._handle
        self._buffer = ctypes.create_string_buffer(self.result_size)
        self.healthy = True
        telemetry.counter_inc("engine.inproc.loads")

    def _invoke(self, record: bytes) -> int:
        """The raw library call — a seam tests use to induce faults."""
        return self._lib.acc_lib_run_case(
            record, len(record), self._buffer, self.result_size
        )

    def run_case(self, record: bytes) -> bytes:
        """Run one packed case record; the filled result buffer's bytes.

        Any non-zero status retires the instance and raises
        :class:`LibraryFault` naming the status — a library that rejects
        a record we encoded ourselves can no longer be trusted.
        """
        with self._lock:
            if not self.healthy:
                raise LibraryFault("library instance is retired")
            rc = self._invoke(record)
            if rc != 0:
                telemetry.counter_inc("engine.inproc.faults")
                self._retire_locked()
                cause = _RUN_STATUS.get(rc, "unknown status")
                raise LibraryFault(f"acc_lib_run_case returned {rc} ({cause})")
            return self._buffer.raw

    def _retire_locked(self) -> None:
        self.healthy = False
        lib, self._lib = self._lib, None
        handle, self._handle = self._handle, None
        self._buffer = None
        if lib is not None and handle is not None:
            _dlclose(handle)

    def retire(self) -> None:
        """Unload (best effort) and refuse all further calls."""
        with self._lock:
            self._retire_locked()

    close = retire

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        try:
            self.retire()
        except Exception:
            # At interpreter shutdown module globals (telemetry, _ctypes)
            # may already be torn down, so retiring can raise anything;
            # a finalizer must not, and the process is exiting anyway.
            pass
