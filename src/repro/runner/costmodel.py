"""Inert names kept only for ``perfbench/workloads.py``'s import.

The learned per-case cost model is gone: shards are packed on each
case's step count (:func:`repro.inproc.parallel.pack_shards`).  The
benchmark harness still imports :class:`CostModelStore` and
:func:`set_default_cost_store`, so both stay, doing nothing, until that
import goes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union


class CostModelStore:
    """Holds a path and nothing else."""

    def __init__(self, path: "Union[str, Path, None]" = None) -> None:
        self.path = path


_default_store: Optional[CostModelStore] = None


def set_default_cost_store(
    store: Optional[CostModelStore],
) -> Optional[CostModelStore]:
    """Record ``store`` and return the previously recorded one."""
    global _default_store
    previous, _default_store = _default_store, store
    return previous
