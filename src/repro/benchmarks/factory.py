"""Benchmark model factory.

Builds each Table-1 model from a hand-written domain core plus seeded
pattern subsystems, hitting the paper's ``#Actor`` / ``#SubSystem`` counts
exactly.  Pattern subsystems fall into four activation categories, which
shape the Table-3 coverage-over-time behaviour:

* ``always`` — unconditionally executed;
* ``common`` — enabled by a frequently true comparison on a model input;
* ``late`` — enabled by a StepSource that only turns on after a seeded
  step threshold (log-uniform in 10^3..10^8), so faster engines reach more
  of them within a wall-clock budget — the mechanism behind AccMoS's
  coverage lead;
* ``never`` — enabled by a constant 0: unreachable with these test cases,
  capping every model's coverage ceiling below 100% like the paper's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.dtypes import DType, I32
from repro.model.builder import ModelBuilder, Ref
from repro.model.model import Model
from repro.benchmarks.patterns import (
    COMPUTE_KINDS,
    CONTROL_KINDS,
    pad_chain,
    pattern_subsystem,
)

# Minimum body budget per pattern kind (see patterns._BODIES).
_KIND_MIN = {"float_chain": 1, "int_chain": 1, "lookup": 3, "branch": 7, "counter": 7}


@dataclass(frozen=True)
class BenchmarkSpec:
    """Target shape of one Table-1 model."""

    name: str
    description: str
    n_actors: int
    n_subsystems: int
    seed: int
    compute_weight: float  # fraction of pattern subsystems that are compute
    shares: tuple[float, float, float, float]  # always, common, late, never
    int_dtype: DType = I32
    # Fraction of compute-pattern subsystems built from integer arithmetic
    # (the code gcc optimizes hardest) rather than float/libm chains.  The
    # paper's computation-heavy models (LANS/LEDLC/SPV/TCP) set this high;
    # everything else stays mostly float/control so the Table-2 ranking
    # reflects the paper's analysis.
    int_bias: float = 0.15


@dataclass
class CoreRefs:
    """What a domain core hands to the factory for filling."""

    int_ref: Ref  # an i32-ish signal to branch patterns off
    float_ref: Ref  # a float signal to branch patterns off


CoreFn = Callable[[ModelBuilder, random.Random], CoreRefs]


def _assign_categories(n: int, shares, rng: random.Random) -> list[str]:
    names = ("always", "common", "late", "never")
    counts = [int(round(share * n)) for share in shares]
    while sum(counts) > n:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < n:
        counts[0] += 1
    cats = [name for name, count in zip(names, counts) for _ in range(count)]
    rng.shuffle(cats)
    return cats


def _plan_sizes(total: int, minima: list[int], rng: random.Random) -> list[int]:
    sizes = list(minima)
    rest = total - sum(sizes)
    if rest < 0:
        raise ValueError(
            f"cannot fit {len(minima)} pattern subsystems into {total} actors"
        )
    for _ in range(rest):
        sizes[rng.randrange(len(sizes))] += 1
    return sizes


def _choose_kind(
    budget: int, compute_weight: float, int_bias: float, rng: random.Random
) -> str:
    pool = [k for k in COMPUTE_KINDS if _KIND_MIN[k] <= budget]
    control = [k for k in CONTROL_KINDS if _KIND_MIN[k] <= budget]
    if control and rng.random() > compute_weight:
        return rng.choice(control)
    if "int_chain" in pool and rng.random() < int_bias:
        return "int_chain"
    return rng.choice(pool)


def _enable_ref(
    b: ModelBuilder, category: str, refs: CoreRefs, rng: random.Random
) -> Optional[Ref]:
    if category == "always":
        return None
    if category == "common":
        return b.block(
            "CompareToConstant", b.fresh_name("En"), [refs.int_ref],
            operator=">", params={"constant": rng.randint(-20, 60)},
        )
    if category == "late":
        at = int(math.exp(rng.uniform(math.log(1e3), math.log(1e8))))
        return b.block(
            "StepSource", b.fresh_name("EnLate"),
            params={"at": at, "before": 0, "after": 1},
        )
    return b.constant(b.fresh_name("EnNever"), 0)


def build_from_core(spec: BenchmarkSpec, core: CoreFn) -> Model:
    """Assemble a benchmark model: core, pattern fill, exact-count pad."""
    rng = random.Random(spec.seed)
    b = ModelBuilder(spec.name)
    refs = core(b, rng)
    model = b.scope  # root scope; counts read through the Model below
    partial = Model(spec.name, root=b.scope)

    n_subs = spec.n_subsystems - partial.n_subsystems
    if n_subs < 0:
        raise ValueError(f"{spec.name}: core already exceeds the subsystem target")
    categories = _assign_categories(n_subs, spec.shares, rng)

    # Reserve root actors: one enable source per non-always subsystem,
    # plus a small pad margin so sizes never have to hit exact minima.
    enable_overhead = sum(1 for c in categories if c != "always")
    pad_margin = min(4, max(0, spec.n_actors - partial.n_actors - enable_overhead) // 80)
    available = (
        spec.n_actors - partial.n_actors - enable_overhead - pad_margin
    )
    minima = []
    for category in categories:
        overhead = 2 + (1 if category != "always" else 0)
        minima.append(overhead + 1)  # smallest body is a 1-actor chain
    sizes = _plan_sizes(available, minima, rng)

    for i, (category, size) in enumerate(zip(categories, sizes)):
        enable = _enable_ref(b, category, refs, rng)
        overhead = 2 + (1 if enable is not None else 0)
        kind = _choose_kind(size - overhead, spec.compute_weight,
                            spec.int_bias, rng)
        src = refs.float_ref if kind in ("float_chain", "lookup", "counter") else refs.int_ref
        pattern_subsystem(
            b, f"Blk{i + 1}_{category}", kind, src, size, rng,
            enable=enable, int_dtype=spec.int_dtype,
        )

    remaining = spec.n_actors - partial.n_actors
    pad_chain(b, refs.float_ref, remaining, None)

    built = b.build()
    if built.n_actors != spec.n_actors or built.n_subsystems != spec.n_subsystems:
        raise AssertionError(
            f"{spec.name}: built {built.n_actors} actors / "
            f"{built.n_subsystems} subsystems, wanted {spec.n_actors} / "
            f"{spec.n_subsystems}"
        )
    built.description = spec.description
    return built


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _module_builder(module_name: str):
    def build() -> Model:
        import importlib

        module = importlib.import_module(f"repro.benchmarks.{module_name}")
        return module.build()

    return build


BENCHMARKS: dict[str, Callable[[], Model]] = {
    name: _module_builder(name.lower())
    for name in (
        "CPUT", "CSEV", "FMTM", "LANS", "LEDLC",
        "RAC", "SPV", "TCP", "TWC", "UTPC",
    )
}

# Table 1 of the paper: functionality, #Actor, #SubSystem.
TABLE1 = {
    "CPUT": ("AutoSAR CPU task dispatch system", 275, 27),
    "CSEV": ("Charging system of electric vehicle", 152, 17),
    "FMTM": ("Factory Multi-point Temperature Monitor", 276, 42),
    "LANS": ("LAN Switch controller", 570, 39),
    "LEDLC": ("LED light controller", 170, 31),
    "RAC": ("Robotic arm controller", 667, 57),
    "SPV": ("Solar PV panel output control", 131, 16),
    "TCP": ("TCP three-way handshake protocol", 330, 42),
    "TWC": ("Train wheel speed controller", 214, 13),
    "UTPC": ("Underwater thruster power control", 214, 21),
}


# Name -> the model its builder returned, built once per process.
_TEMPLATES: dict[str, Model] = {}


def build_benchmark(name: str) -> Model:
    """One Table-1 benchmark model by name: a fresh structural copy
    (:meth:`Model.copy`) of a template built once per process (the
    builder validates it and checks its Table-1 counts,
    :func:`build_from_core`).

    The copy is not validated again: its content equals the template's.
    Callers may mutate it freely; the template, and so every later
    build, is unaffected, and ``preprocess`` validates a mutated model
    as it would any model it has not seen.
    """
    key = name.upper()
    if key not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}"
        )
    template = _TEMPLATES.get(key)
    if template is None:
        template = _TEMPLATES.setdefault(key, BENCHMARKS[key]())
    return template.copy()


def benchmark_stimuli(prog, *, seed: int = 1):
    """The evaluation's random test cases for a benchmark program."""
    from repro.stimuli import default_stimuli

    return default_stimuli(prog, seed=seed)
