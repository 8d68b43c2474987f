"""Instance pool for thread-parallel in-process execution.

The in-process rung loads one :class:`~repro.inproc.library.LoadedModel`
per use site; each load is a file copy + ``dlopen`` + ABI handshake, and
each instance owns a preallocated result buffer.  Thread-parallel
execution multiplies the instance count (one private instance per worker
thread — private inode, private C globals), so instances must be
*pooled*: checked out for the duration of one shard, returned healthy,
retired on fault, and bounded LRU-style so corpus-scale campaigns that
touch thousands of distinct models do not accumulate mappings forever.

``acquire`` reuses the most-recently-released healthy instance for the
key or loads a fresh one on a miss, ``release`` reinserts MRU and evicts
LRU beyond the bound, ``retire`` drops a faulted instance without
reinsertion.  Keys are ``(shared-object path, result size)``: the path
is content-addressed by the artifact cache, so two
:class:`~repro.engines.accmos.CompiledModel` handles over the same
structure share instances — this is what lets guided-fuzz replay,
which compiles a fresh handle per seed, reuse one warm instance through
``run_inproc`` instead of paying a fresh ``dlopen`` per seed.

Instances are never shared between two holders at once: a checked-out
instance belongs to exactly one thread until released, and the
instance's own lock makes misuse fail loudly rather than corrupt state.

:func:`pack_shards` splits one batch across the worker threads: LPT
(longest first) on each case's step count, guarded never to predict a
longer makespan than a round-robin stride.  Cases of equal steps (every
campaign) get exactly the round-robin stride.  Shard membership changes
only which thread runs a case, never its result.
"""

from __future__ import annotations

import heapq
import os
import threading
from collections import OrderedDict
from typing import Callable, Sequence, Union

from repro import telemetry
from repro.inproc.library import LoadedModel

_COUNTERS = (
    "loads",
    "reuses",
    "retired_error",
    "retired_lru",
)


def _default_max_idle() -> int:
    # Enough idle instances for one thread team per core plus slack;
    # campaigns over many distinct models churn through the LRU bound.
    return max(8, (os.cpu_count() or 1) * 2)


class InstancePool:
    """A bounded pool of loaded in-process library instances.

    Thread-safe: worker threads check instances out under a lock and run
    their shards outside it.  ``max_idle`` bounds only the *idle* set —
    checked-out instances are unbounded (one per live worker thread).
    """

    def __init__(self, *, max_idle: Union[int, None] = None) -> None:
        self.max_idle = _default_max_idle() if max_idle is None else int(max_idle)
        if self.max_idle < 1:
            raise ValueError("max_idle must be at least 1")
        self._lock = threading.Lock()
        # Insertion order is LRU order: entries re-inserted on release.
        # Keyed by (pool key, id(instance)) so one artifact can have
        # several idle instances (one per worker thread at peak).
        self._idle: "OrderedDict[tuple[str, int], LoadedModel]" = OrderedDict()
        self._closed = False
        self.counters: dict[str, int] = {name: 0 for name in _COUNTERS}

    # -- bookkeeping -----------------------------------------------------
    @staticmethod
    def instance_key(shared_path, result_size: int) -> str:
        """The pooling key: content-addressed ``.so`` path + result
        layout size (the size is redundant given the path but makes a
        layout-drift bug a pool miss instead of a buffer overrun)."""
        return f"{shared_path}:{int(result_size)}"

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- checkout / checkin ----------------------------------------------
    def acquire(self, key: str, loader: Callable[[], LoadedModel]) -> LoadedModel:
        """Check out an instance for ``key``, calling ``loader`` on a miss.

        The caller owns the instance until :meth:`release` (or
        :meth:`retire` on fault); it is never handed to two callers at
        once.  ``loader`` runs outside the lock — loading (copy +
        ``dlopen`` + handshake) must not serialize the other workers —
        and its exceptions propagate unchanged.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("acquire on a closed InstancePool")
            for entry_key in reversed(self._idle):
                if entry_key[0] != key:
                    continue
                lib = self._idle.pop(entry_key)
                if lib.healthy:
                    self.counters["reuses"] += 1
                    telemetry.counter_inc("engine.inproc.pool_reuses")
                    return lib
                # Retired while idle (e.g. an explicit retire() by a
                # past holder that kept a reference) — drop and rescan.
                self.counters["retired_error"] += 1
                break
        lib = loader()
        self._count("loads")
        return lib

    def release(self, key: str, lib: LoadedModel) -> None:
        """Return a healthy instance to the idle set (it becomes the
        most-recently-used entry); over-bound entries are retired LRU-
        first, unhealthy ones unconditionally."""
        if not lib.healthy:
            self.retire(lib)
            return
        evicted: "list[LoadedModel]" = []
        with self._lock:
            if self._closed:
                evicted.append(lib)
            else:
                entry_key = (key, id(lib))
                self._idle[entry_key] = lib
                self._idle.move_to_end(entry_key)
                while len(self._idle) > self.max_idle:
                    _, old = self._idle.popitem(last=False)
                    self.counters["retired_lru"] += 1
                    telemetry.counter_inc("engine.inproc.pool_retired_lru")
                    evicted.append(old)
        for old in evicted:
            old.retire()

    def retire(self, lib: LoadedModel) -> None:
        """Drop a faulted instance without reinsertion."""
        self._count("retired_error")
        telemetry.counter_inc("engine.inproc.pool_retired_error")
        lib.retire()

    # -- shutdown / stats ------------------------------------------------
    def close(self) -> None:
        """Retire every idle instance.  Checked-out instances are
        retired by their holders on release (the pool is marked closed)."""
        with self._lock:
            self._closed = True
            instances = list(self._idle.values())
            self._idle.clear()
        for lib in instances:
            lib.retire()

    def __enter__(self) -> "InstancePool":
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


# ----------------------------------------------------------------------
# process-wide default pool
# ----------------------------------------------------------------------
_default_pool: Union[InstancePool, None] = None
_default_pool_lock = threading.Lock()


def default_instance_pool() -> InstancePool:
    """The process-wide pool shared by every :class:`CompiledModel`.

    Created on first use and closed at interpreter exit.  Because keys
    are content-addressed artifact paths, distinct model handles over
    the same structure (guided-fuzz replay recompiles, campaign waves)
    transparently share warm instances.
    """
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None:
            import atexit

            _default_pool = InstancePool()
            atexit.register(_default_pool.close)
        return _default_pool


# ----------------------------------------------------------------------
# shard packing
# ----------------------------------------------------------------------
def makespan(shards: Sequence[Sequence[int]], costs: Sequence[int]) -> int:
    """The predicted wall clock of a partition: its largest shard sum."""
    return max((sum(costs[i] for i in shard) for shard in shards), default=0)


def _round_robin(n_cases: int, n_shards: int) -> "list[list[int]]":
    return [list(range(slot, n_cases, n_shards)) for slot in range(n_shards)]


def _lpt(costs: Sequence[int], n_shards: int) -> "list[list[int]]":
    # Longest first; equal costs keep case order, so equal steps deal
    # the cases out round-robin.
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    heap = [(0, slot) for slot in range(n_shards)]
    shards: "list[list[int]]" = [[] for _ in range(n_shards)]
    for index in order:
        load, slot = heapq.heappop(heap)
        shards[slot].append(index)
        heapq.heappush(heap, (load + costs[index], slot))
    # Within a shard, run cases in submission order.
    for shard in shards:
        shard.sort()
    return shards


def pack_shards(steps: Sequence[int], n_shards: int) -> "list[list[int]]":
    """Partition case indices into at most ``n_shards`` non-empty shards,
    by LPT on ``steps`` (each case's step count).

    Keeps whichever of LPT and the round-robin stride has the smaller
    makespan, so it is never worse than round-robin.  Deterministic.
    """
    n = len(steps)
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_shards == 1 or n <= 1:
        return [list(range(n))]
    n_shards = min(n_shards, n)
    lpt = _lpt(steps, n_shards)
    rr = _round_robin(n, n_shards)
    return lpt if makespan(lpt, steps) <= makespan(rr, steps) else rr
