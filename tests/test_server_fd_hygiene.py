"""Failed server spawns must not leak pipe file descriptors.

``SimulationServer.__init__`` opens three pipes before the host's
handshake; every failure shape — child exits before greeting (stdout
EOF), child hangs (handshake timeout), child sends a wrong greeting (the
ABI check refuses it) — must reap the process and close all three, or a
flood of failed spawns (a crashing host restarted again and again, a bad
artifact) exhausts the fd table.
"""

from __future__ import annotations

import os
import stat
from types import SimpleNamespace

import pytest

from repro.codegen.driver import ServerError, SimulationServer
from repro.engines.accmos import ModelServer
from repro.inproc import LibraryFault

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/fd"),
    reason="fd counting needs /proc (Linux)",
)

FLOOD = 25
# Threads and the queue machinery may lazily create a handful of fds on
# first use; the flood itself must not scale the count.
FD_SLACK = 4


def _script(tmp_path, name: str, body: str):
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _fake_model(host):
    """Just enough of a CompiledModel for ModelServer to spawn ``host``."""
    return SimpleNamespace(
        compiled=SimpleNamespace(ensure_host=lambda: host, shared="fake.so"),
        decoder=SimpleNamespace(size=32),
        prog=SimpleNamespace(model=SimpleNamespace(name="fake")),
    )


def _server(host, timeout):
    return SimulationServer(
        host, "fake.so", result_size=32, handshake_timeout=timeout
    )


def _flood(spawn, n=FLOOD, error=ServerError):
    # One warm-up absorbs lazily-allocated fds (thread stacks, queues).
    with pytest.raises(error):
        spawn()
    before = _fd_count()
    for _ in range(n):
        with pytest.raises(error):
            spawn()
    after = _fd_count()
    assert after <= before + FD_SLACK, (
        f"fd count grew {before} -> {after} across {n} failed spawns"
    )


def test_child_dies_before_ready(tmp_path):
    host = _script(tmp_path, "dies.sh", "exit 3")
    _flood(lambda: _server(host, 5.0))


def test_child_wrong_greeting(tmp_path):
    # `exec` so the kill reaches the sleeping process itself — a shell
    # grandchild would inherit the pipe's write end and outlive the kill
    # (the real host is a direct executable; no grandchildren).  The
    # greeting fills the handshake's 16 bytes, so the ABI check (not a
    # timeout) refuses it.
    host = _script(
        tmp_path, "greets.sh", 'echo "hello, I am no handshake"\nexec sleep 30'
    )
    _flood(lambda: _server(host, 5.0), error=LibraryFault)


def test_child_hangs_without_ready(tmp_path):
    host = _script(tmp_path, "hangs.sh", "exec sleep 30")
    _flood(
        lambda: _server(host, 0.2),
        n=6,  # each failure waits out the timeout; keep the flood short
    )


def test_model_server_spawn_failure_no_leak(tmp_path):
    model = _fake_model(_script(tmp_path, "dies.sh", "exit 7"))
    _flood(lambda: ModelServer(model, handshake_timeout=5.0))


def test_failed_handshake_reaps_child(tmp_path):
    host = _script(tmp_path, "hangs.sh", "exec sleep 30")
    try:
        _server(host, 0.2)
    except ServerError:
        pass
    # No sleeping child may survive the failed handshake: the fix kills
    # and reaps on every handshake failure path.
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().split()
        except OSError:
            continue
        if fields[3] == str(os.getpid()):  # our direct child
            assert "sleep" not in fields[1], "handshake failure left child running"
