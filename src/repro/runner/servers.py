"""Warm-server pool: persistent host processes reused across batches and
jobs.

A campaign repeatedly executes cases of the same compiled artifact; a
private host per batch pays one process startup per dispatch.  The
:class:`ServerPool` keeps the host processes
(:class:`~repro.engines.accmos.ModelServer`) warm between dispatches,
keyed by the artifact — the library's content-addressed cache path — so
the steady state is **zero** respawns: one spawn per (worker × artifact)
for the whole campaign.

Lifecycle: a server is *checked out* for the duration of one streamed
batch (two threads never share a process), returned to the idle set
afterwards, and retired when it errors, when it sits idle past
``idle_ttl_seconds``, or when the idle set exceeds ``max_servers``
(least-recently-used first).  All transitions are counted; the counters
surface in ``campaign --timings`` and ship across process-pool
boundaries via :attr:`JobResult.server_stats`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro import telemetry

if TYPE_CHECKING:
    from repro.engines.accmos import BatchCase, CompiledModel, ModelServer

_COUNTERS = (
    "spawns",
    "reuses",
    "restarts",
    "retired_idle",
    "retired_lru",
    "retired_error",
    "flapped_artifacts",
)

# An artifact whose warm servers restarted this many times is *flapping*:
# every stream it serves is paying restart + resubmission freight that
# the observed execute seconds never show, so the pool demotes its
# predicted cost (see ServerPool.note_restarts).
FLAP_RESTART_THRESHOLD = 3


class ServerPool:
    """A bounded pool of warm simulation servers, keyed by artifact.

    Thread-safe: worker threads check servers out under a lock and run
    their streams outside it.  ``_clock`` is injectable for TTL tests.
    """

    def __init__(
        self,
        *,
        max_servers: int = 8,
        idle_ttl_seconds: float = 300.0,
        cost_store=None,
        flap_restart_threshold: int = FLAP_RESTART_THRESHOLD,
        flap_penalty: Optional[float] = None,
        _clock=time.monotonic,
    ) -> None:
        if max_servers < 1:
            raise ValueError("max_servers must be at least 1")
        if flap_restart_threshold < 1:
            raise ValueError("flap_restart_threshold must be at least 1")
        self.max_servers = max_servers
        self.idle_ttl_seconds = idle_ttl_seconds
        self._clock = _clock
        self._lock = threading.RLock()
        # Insertion order is LRU order: entries re-inserted on release.
        # Keyed by (artifact, id(server)) so one artifact can have
        # several idle servers (one per worker thread at peak).
        self._idle: "OrderedDict[tuple[str, int], tuple[ModelServer, float]]" = (
            OrderedDict()
        )
        self._closed = False
        self.counters: dict[str, int] = {name: 0 for name in _COUNTERS}
        # Flap detection: reuse/restart counters *per artifact*, feeding
        # cost admission.  When an artifact's restarts cross the
        # threshold, its CaseCostModel in ``cost_store`` is penalized so
        # the scheduler routes its cases to the capped long slots
        # instead of letting optimistic predictions head-of-line block
        # short cases of healthy artifacts.
        self._cost_store = cost_store
        self.flap_restart_threshold = flap_restart_threshold
        self._flap_penalty = flap_penalty
        self._artifact_counters: "dict[str, dict[str, int]]" = {}
        self._flapped: "set[str]" = set()

    # -- bookkeeping -----------------------------------------------------
    @staticmethod
    def artifact_key(model: "CompiledModel") -> str:
        """The pooling key: the library's (content-addressed) path."""
        return str(model.compiled.shared)

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def _count_artifact(self, key: str, name: str, value: int = 1) -> None:
        with self._lock:
            counters = self._artifact_counters.setdefault(
                key, {"spawns": 0, "reuses": 0, "restarts": 0}
            )
            counters[name] += value

    # -- flap detection --------------------------------------------------
    def restart_count(self, artifact_key: str) -> int:
        """Total restarts this pool has seen for one artifact."""
        with self._lock:
            counters = self._artifact_counters.get(artifact_key)
            return counters["restarts"] if counters else 0

    def artifact_stats(self) -> "dict[str, dict[str, int]]":
        """Per-artifact spawn/reuse/restart counters (copy)."""
        with self._lock:
            return {
                key: dict(counters)
                for key, counters in self._artifact_counters.items()
            }

    def note_restarts(
        self, artifact_key: str, restarts: int, cost_key: Optional[str] = None
    ) -> bool:
        """Record stream-level restarts for an artifact; returns True the
        moment the artifact crosses the flap threshold.

        Crossing the threshold penalizes the artifact's cost model (when
        the pool holds a ``cost_store`` and the caller knows the cost
        key), demoting its predicted cost so admission routes its cases
        to the capped long slots.  The penalty fires once per artifact —
        it ratchets, so repeated flapping doesn't multiply forever.
        """
        if restarts <= 0:
            return False
        self._count_artifact(artifact_key, "restarts", restarts)
        with self._lock:
            if artifact_key in self._flapped:
                return False
            total = self._artifact_counters[artifact_key]["restarts"]
            if total < self.flap_restart_threshold:
                return False
            self._flapped.add(artifact_key)
            self.counters["flapped_artifacts"] += 1
        telemetry.counter_inc("runner.server.flapped_artifacts")
        if self._cost_store is not None and cost_key is not None:
            if self._flap_penalty is None:
                self._cost_store.penalize(cost_key)
            else:
                self._cost_store.penalize(cost_key, self._flap_penalty)
        return True

    @staticmethod
    def _cost_key_for(model: "CompiledModel") -> str:
        from repro.runner.costmodel import cost_key

        return cost_key("accmos", model.prog, model.options)

    def _sweep_idle_locked(self, now: float) -> None:
        if self.idle_ttl_seconds is None:
            return
        stale = [
            entry_key
            for entry_key, (_, last_used) in self._idle.items()
            if now - last_used > self.idle_ttl_seconds
        ]
        for entry_key in stale:
            server, _ = self._idle.pop(entry_key)
            self._count("retired_idle")
            telemetry.counter_inc("runner.server.retired_idle")
            server.close()

    # -- checkout / checkin ----------------------------------------------
    def acquire(self, model: "CompiledModel") -> "ModelServer":
        """Check out a warm server for ``model``, spawning on a miss.

        The caller owns the server until :meth:`release` (or
        :meth:`retire` on error); it is never handed to two callers at
        once.
        """
        key = self.artifact_key(model)
        with self._lock:
            if self._closed:
                raise RuntimeError("acquire on a closed ServerPool")
            now = self._clock()
            self._sweep_idle_locked(now)
            for entry_key, (server, _) in self._idle.items():
                if entry_key[0] == key:
                    del self._idle[entry_key]
                    if server.alive:
                        self._count("reuses")
                        self._count_artifact(key, "reuses")
                        telemetry.counter_inc("runner.server.reuses")
                        return server
                    # Died while idle — retire and fall through to spawn.
                    self._count("retired_error")
                    telemetry.counter_inc("runner.server.retired_error")
                    server.kill()
                    break
        # Spawn outside the lock: process startup must not serialize the
        # other workers.  ModelServer books runner.server.spawns itself.
        server = model.serve()
        self._count("spawns")
        self._count_artifact(key, "spawns")
        return server

    def release(self, model: "CompiledModel", server: "ModelServer") -> None:
        """Return a healthy server to the idle set (it becomes the
        most-recently-used entry); over-bound entries are retired LRU-
        first, dead ones unconditionally."""
        if not server.alive:
            self.retire(server)
            return
        evicted: "list[ModelServer]" = []
        with self._lock:
            if self._closed:
                evicted.append(server)
            else:
                key = (self.artifact_key(model), id(server))
                self._idle[key] = (server, self._clock())
                self._idle.move_to_end(key)
                while len(self._idle) > self.max_servers:
                    _, (old, _) = self._idle.popitem(last=False)
                    self._count("retired_lru")
                    telemetry.counter_inc("runner.server.retired_lru")
                    evicted.append(old)
        for old in evicted:
            old.close()

    def retire(self, server: "ModelServer") -> None:
        """Drop a server that errored (or died) without reinsertion."""
        with self._lock:
            self._count("retired_error")
        telemetry.counter_inc("runner.server.retired_error")
        server.kill()

    # -- execution helper ------------------------------------------------
    def run_batch(
        self,
        model: "CompiledModel",
        cases: "Sequence[BatchCase]",
        *,
        timeout_seconds: Optional[float] = None,
    ):
        """Stream ``cases`` through a pooled warm server of ``model``.

        Same contract as :meth:`CompiledModel.run_stream` — one outcome
        per case in order, per-case deadline trips as
        :class:`SimulationTimeout` entries — but with zero spawns in the
        steady state.  Restarts performed by the stream's crash recovery
        are folded into the pool counters; a server whose stream raised
        (two failures in a row) is retired.
        """
        server = self.acquire(model)
        restarts_before = server.restarts
        try:
            outcomes = list(
                model.run_stream(
                    cases, timeout_seconds=timeout_seconds, server=server
                )
            )
        except BaseException:
            self.retire(server)
            raise
        restarts = server.restarts - restarts_before
        with self._lock:
            self._count("restarts", restarts)
        if restarts:
            # Feed the flap detector: an artifact whose streams keep
            # restarting gets its predicted cost demoted for admission.
            self.note_restarts(
                self.artifact_key(model),
                restarts,
                cost_key=self._cost_key_for(model),
            )
        self.release(model, server)
        return outcomes

    # -- shutdown / stats ------------------------------------------------
    def close(self) -> None:
        """Retire every idle server.  Checked-out servers are retired by
        their holders on release (the pool is marked closed)."""
        with self._lock:
            self._closed = True
            servers = [server for server, _ in self._idle.values()]
            self._idle.clear()
        for server in servers:
            server.close()

    def __enter__(self) -> "ServerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def active(self) -> int:
        with self._lock:
            return len(self._idle)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def pop_stats(self) -> dict[str, int]:
        """Counters since the last pop (delta semantics, for shipping
        across a process boundary)."""
        with self._lock:
            out = dict(self.counters)
            for name in self.counters:
                self.counters[name] = 0
        return out


def merge_server_stats(
    into: "Optional[dict[str, int]]", stats: "Optional[dict[str, int]]"
) -> "Optional[dict[str, int]]":
    """Fold one counters dict into an accumulator (either may be None)."""
    if not stats:
        return into
    if into is None:
        into = {name: 0 for name in _COUNTERS}
    for name, value in stats.items():
        into[name] = into.get(name, 0) + value
    return into


# ----------------------------------------------------------------------
# per-worker-process pool (process-mode run_jobs)
# ----------------------------------------------------------------------
_worker_pool: Optional[ServerPool] = None
_worker_pool_lock = threading.Lock()


def worker_pool() -> ServerPool:
    """The process-local pool used by process-mode workers.

    Created on first use and closed at interpreter exit; chunks executed
    by the same worker process share it, so warm servers survive from
    one chunk to the next.
    """
    global _worker_pool
    with _worker_pool_lock:
        if _worker_pool is None:
            import atexit

            _worker_pool = ServerPool()
            atexit.register(_worker_pool.close)
        return _worker_pool
