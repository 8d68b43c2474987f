"""Cost-aware shard packing: predict per-case cost, pack by makespan.

Thread-parallel in-process execution splits one batch of cases across N
worker threads; a naive slicing head-of-line-blocks short cases behind
long ones whenever step counts differ (a 100k-step case next to 100-step
cases turns a 4-thread shard into a 1-thread tail).  The fix has two
parts:

* :class:`CaseCostModel` predicts per-case execute seconds from the two
  quantities the runner knows before running anything — step count and
  model size (actor count) — as ``base + steps * actors * rate``.  The
  rate is *seeded by observed timings telemetry*: every completed case
  already carries ``execute_seconds`` in its timings, and the dispatcher
  folds those observations back in as an exponential moving average, so
  the model converges on the machine's real per-(step × actor) cost
  within the first few chunks.  Small cases (``steps * actors`` under
  ``small_units``) instead recalibrate the *base* term: their wall time
  is dominated by per-case freight, so treating it as rate would poison
  the slope, and never fitting base from them makes tiny-case-heavy
  corpora over-predict every case.
* :func:`pack_shards` packs cases into worker shards by LPT
  (longest-processing-time-first greedy makespan).  Plain LPT can lose
  to naive round-robin on adversarial cost vectors (LPT is a 4/3
  approximation, round-robin can fluke the optimum), so the packer
  computes both and returns whichever has the smaller predicted
  makespan — "never worse than round-robin" then holds by construction,
  and the hypothesis suite pins it.

The threaded rung is the only consumer: it predicts from, and feeds
its observed ``execute_seconds`` back into, a :class:`CostModelStore`,
which keeps one model per *(engine, compile key)* and persists the
learned coefficients into the artifact-cache directory with atomic
writes, so the next campaign warm-starts from this machine's measured
rates instead of the cold defaults.

Everything here is deterministic: ties break on case index, so the same
costs always produce the same shards — a prerequisite for the
byte-identity contract upstream (shard *membership* may differ from the
round-robin default, but per-case results never depend on shard shape).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.engines.base import SimulationOptions
    from repro.schedule.program import FlatProgram

# Cold-start coefficients: measured magnitudes for -O3 compiled actor
# steps on commodity x86 (~tens of ns per actor-step) plus the fixed
# per-case freight (encode + ABI call + decode).  Only their *ratios*
# matter for packing; observations recalibrate both immediately.
_DEFAULT_BASE_SECONDS = 2e-4
_DEFAULT_RATE_SECONDS = 3e-8

# steps * actors at or below this is a "small" case: its wall time is
# mostly per-case freight, so it calibrates the base term, not the rate.
_DEFAULT_SMALL_UNITS = 4096.0

class CaseCostModel:
    """Predicts per-case execute cost from ``steps × actors``.

    Thread-safe; instances are usually owned by a :class:`CostModelStore`
    (one per engine/compile key) so observations accumulate across chunks
    and — via the store's persistence — across campaigns.
    """

    def __init__(
        self,
        *,
        base_seconds: float = _DEFAULT_BASE_SECONDS,
        rate_seconds: float = _DEFAULT_RATE_SECONDS,
        alpha: float = 0.2,
        small_units: float = _DEFAULT_SMALL_UNITS,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.base_seconds = float(base_seconds)
        self.rate_seconds = float(rate_seconds)
        self.alpha = float(alpha)
        self.small_units = float(small_units)
        self.observations = 0
        self.base_observations = 0
        self._lock = threading.Lock()

    @staticmethod
    def _units(steps: int, actors: int) -> float:
        return float(max(1, steps)) * float(max(1, actors))

    def predict(self, steps: int, actors: int) -> float:
        """Predicted execute seconds for one case."""
        with self._lock:
            return (
                self.base_seconds
                + self._units(steps, actors) * self.rate_seconds
            )

    def observe(self, steps: int, actors: int, seconds: float) -> None:
        """Fold one measured execute time back in (EMA).

        Large cases update the *rate* (their time is dominated by the
        ``steps × actors`` term); small cases — ``units <= small_units``
        — update the *base* instead, since for them the fixed per-case
        freight is what the measurement actually saw.  Fitting base only
        from small cases keeps the two coefficients separable: a large
        observation cannot distinguish base from rate, a tiny one is
        almost purely base.
        """
        if seconds <= 0.0:
            return
        units = self._units(steps, actors)
        with self._lock:
            if units <= self.small_units:
                estimate = max(0.0, seconds - units * self.rate_seconds)
                if self.base_observations == 0:
                    self.base_seconds = estimate
                else:
                    self.base_seconds += self.alpha * (
                        estimate - self.base_seconds
                    )
                self.base_observations += 1
            else:
                per_unit = max(0.0, seconds - self.base_seconds) / units
                if self.observations == self.base_observations:
                    # first rate observation: hard-seed instead of EMA
                    self.rate_seconds = per_unit
                else:
                    self.rate_seconds += self.alpha * (
                        per_unit - self.rate_seconds
                    )
            self.observations += 1

    # -- persistence form ------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "base_seconds": self.base_seconds,
                "rate_seconds": self.rate_seconds,
                "observations": self.observations,
                "base_observations": self.base_observations,
            }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseCostModel":
        model = cls(
            base_seconds=float(data.get("base_seconds", _DEFAULT_BASE_SECONDS)),
            rate_seconds=float(data.get("rate_seconds", _DEFAULT_RATE_SECONDS)),
        )
        model.observations = int(data.get("observations", 0))
        model.base_observations = int(data.get("base_observations", 0))
        return model


def makespan(
    shards: Sequence[Sequence[int]], costs: Sequence[float]
) -> float:
    """The predicted wall-clock of a partition: its largest shard sum."""
    if not shards:
        return 0.0
    return max(
        (sum(costs[i] for i in shard) for shard in shards), default=0.0
    )


def _round_robin(n_cases: int, n_shards: int) -> "list[list[int]]":
    return [
        list(range(slot, n_cases, n_shards)) for slot in range(n_shards)
    ]


def _lpt(costs: Sequence[float], n_shards: int) -> "list[list[int]]":
    # Longest first; equal costs keep case order for determinism.
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    heap = [(0.0, slot) for slot in range(n_shards)]
    heapq.heapify(heap)
    shards: "list[list[int]]" = [[] for _ in range(n_shards)]
    for index in order:
        load, slot = heapq.heappop(heap)
        shards[slot].append(index)
        heapq.heappush(heap, (load + costs[index], slot))
    # Within a shard, run cases in submission order (cache-friendly and
    # makes shard contents reproducible documentation in traces).
    for shard in shards:
        shard.sort()
    return shards


def pack_shards(
    costs: Sequence[float], n_shards: int
) -> "list[list[int]]":
    """Partition case indices into ``n_shards`` worker shards.

    LPT greedy-makespan, guarded to never predict worse than naive
    round-robin (the packer evaluates both and keeps the better one).
    Empty shards are possible when there are fewer cases than shards;
    callers skip them.  Deterministic for equal inputs.
    """
    n = len(costs)
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_shards == 1 or n <= 1:
        return [list(range(n))]
    n_shards = min(n_shards, n)
    lpt = _lpt(costs, n_shards)
    rr = _round_robin(n, n_shards)
    return lpt if makespan(lpt, costs) <= makespan(rr, costs) else rr


# ----------------------------------------------------------------------
# per-(engine, compile key) store with persistence
# ----------------------------------------------------------------------
def cost_key(
    engine: str,
    prog: "FlatProgram",
    options: "Optional[SimulationOptions]" = None,
) -> str:
    """The stable key under which a program's cost coefficients persist.

    It is computed from the job alone, without codegen, so it stands in
    for the artifact cache's SHA-over-source key — the engine plus
    everything that determines the compiled unit's per-step cost: the
    model, its size, and (for AccMoS) the structural option fingerprint
    the library is specialized on.  Stable across processes, unlike
    :func:`~repro.runner.jobs.batch_key` (which folds in ``id(prog)``).
    """
    name = getattr(getattr(prog, "model", None), "name", "?")
    actors = len(getattr(prog, "actors", ()) or ())
    base = f"{engine}:{name}:a{actors}"
    if engine != "accmos" or options is None:
        return base
    from repro.engines.accmos import _structural_fingerprint

    digest = hashlib.sha1(
        repr(_structural_fingerprint(options)).encode()
    ).hexdigest()[:12]
    return f"{base}:{digest}"


class CostModelStore:
    """One :class:`CaseCostModel` per (engine, compile key), persisted.

    The store lazily loads ``costmodel.json`` from its path (typically
    the artifact-cache directory), hands out per-key models warm-started
    from the persisted coefficients, and writes the file back atomically
    (temp file + ``os.replace``) on :meth:`save` — merging with whatever
    a concurrent campaign persisted in the meantime, our keys winning.
    With ``path=None`` the store is purely in-memory.
    """

    FILE_NAME = "costmodel.json"
    VERSION = 1

    def __init__(self, path: "Union[str, Path, None]" = None) -> None:
        self.path = Path(path) if path is not None else None
        self._models: dict[str, CaseCostModel] = {}
        self._lock = threading.Lock()
        self._loaded = False

    # -- loading ---------------------------------------------------------
    def _read_file(self) -> dict:
        if self.path is None:
            return {}
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        models = payload.get("models")
        return models if isinstance(models, dict) else {}

    def _ensure_loaded(self) -> None:
        # caller holds self._lock
        if self._loaded:
            return
        self._loaded = True
        for key, data in self._read_file().items():
            if key not in self._models and isinstance(data, dict):
                try:
                    self._models[key] = CaseCostModel.from_dict(data)
                except (TypeError, ValueError):
                    continue  # one corrupt entry shouldn't lose the rest

    # -- access ----------------------------------------------------------
    def model(self, key: str) -> CaseCostModel:
        """The model for ``key``, warm-started from disk if persisted."""
        with self._lock:
            self._ensure_loaded()
            model = self._models.get(key)
            if model is None:
                model = self._models[key] = CaseCostModel()
            return model

    def predict(self, key: str, steps: int, actors: int) -> float:
        return self.model(key).predict(steps, actors)

    def observe(self, key: str, steps: int, actors: int, seconds: float) -> None:
        self.model(key).observe(steps, actors, seconds)

    def keys(self) -> "list[str]":
        with self._lock:
            self._ensure_loaded()
            return sorted(self._models)

    # -- persistence -----------------------------------------------------
    def save(self) -> Optional[Path]:
        """Atomically persist every observed model; returns the path.

        Merges over the file's current contents (another process may
        have saved since we loaded), our keys winning; models that never
        observed anything are skipped — they are still the cold
        defaults and would only overwrite a real measurement.
        """
        if self.path is None:
            return None
        with self._lock:
            self._ensure_loaded()
            ours = {
                key: model.to_dict()
                for key, model in self._models.items()
                if model.observations > 0
            }
            if not ours:
                return None
            merged = self._read_file()
            merged.update(ours)
            payload = {"version": self.VERSION, "models": merged}
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    prefix=".costmodel-", dir=str(self.path.parent)
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        json.dump(payload, fh, sort_keys=True)
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                return None  # read-only cache dir: stay in-memory
        return self.path


# ----------------------------------------------------------------------
# process-wide defaults
# ----------------------------------------------------------------------
_default_store: Optional[CostModelStore] = None
_default_store_lock = threading.Lock()


def default_cost_store() -> CostModelStore:
    """The process-wide store campaigns observe into and warm-start from.

    Persisted next to the artifact cache (``costmodel.json`` in
    :func:`~repro.runner.cache.default_cache_dir`); in-memory only when
    caching is disabled via ``ACCMOS_NO_CACHE``.
    """
    global _default_store
    with _default_store_lock:
        if _default_store is None:
            from repro.runner.cache import CACHE_DISABLE_ENV, default_cache_dir

            if os.environ.get(CACHE_DISABLE_ENV, "").strip() not in ("", "0"):
                _default_store = CostModelStore(None)
            else:
                _default_store = CostModelStore(
                    default_cache_dir() / CostModelStore.FILE_NAME
                )
        return _default_store


def set_default_cost_store(
    store: Optional[CostModelStore],
) -> Optional[CostModelStore]:
    """Override the process-wide store (tests, embedding apps).

    Returns the previous default so callers can restore it.
    """
    global _default_store
    with _default_store_lock:
        previous = _default_store
        _default_store = store
        return previous
