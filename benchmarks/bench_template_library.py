"""§3.4 implementation claims — template library breadth and codegen cost.

The paper: "specialized code template libraries have been crafted for over
fifty commonly used actors" and "a diagnostic code template library
encompassing all error types that Simulink defaults to enable".  This
bench verifies both inventories against the registry and measures the
generation/compilation pipeline's throughput (the fixed cost AccMoS pays
before its fast simulation starts).
"""

from __future__ import annotations

import pytest

from repro import SimulationOptions
from repro.actors import all_specs
from repro.benchmarks import benchmark_stimuli
from repro.codegen import generate_reusable_c_program
from repro.codegen.driver import compile_c_program
from repro.engines.accmos import compile_model
from repro.diagnosis.events import DiagnosticKind
from repro.instrument import build_plan

from conftest import report_json, report_table


def test_template_library_inventory(benchmark):
    from repro.codegen.templates import OUTPUT_EMITTERS

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    specs = all_specs()
    executable = [name for name, spec in specs.items() if spec.executable]
    assert len(executable) >= 50
    missing = [name for name in executable if name not in OUTPUT_EMITTERS]
    assert not missing

    by_category: dict[str, int] = {}
    for name, spec in specs.items():
        by_category[spec.category] = by_category.get(spec.category, 0) + 1
    rows = [f"actor templates: {len(executable)} executable types "
            f"({len(specs)} registered)"]
    for category, count in sorted(by_category.items()):
        rows.append(f"  {category:8s} {count}")
    diag_kinds = [k.value for k in DiagnosticKind]
    rows.append(f"diagnostic template kinds: {len(diag_kinds)} "
                f"({', '.join(diag_kinds)})")
    report_table("Sec. 3.4: template library inventory", "\n".join(rows))
    report_json(
        "template_library",
        {"executable_types": len(executable), "registered": len(specs)},
        [
            {"category": category, "count": count}
            for category, count in sorted(by_category.items())
        ],
        "count",
    )


def test_all_default_error_types_covered(benchmark):
    """Every runtime-diagnosable kind is applicable somewhere in the
    registry's rule table (wired to at least one actor type)."""
    from repro.benchmarks import build_benchmark
    from repro.diagnosis.rules import applicable_kinds
    from repro.schedule import preprocess

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seen: set[DiagnosticKind] = set()
    for name in ("CSEV", "LANS", "SPV", "FMTM"):
        prog = preprocess(build_benchmark(name))
        for fa in prog.actors:
            seen |= applicable_kinds(fa)
    assert {
        DiagnosticKind.WRAP_ON_OVERFLOW,
        DiagnosticKind.DIV_BY_ZERO,
        DiagnosticKind.PRECISION_LOSS,
        DiagnosticKind.NON_FINITE,
        DiagnosticKind.ARRAY_OUT_OF_BOUNDS,
    } <= seen


@pytest.mark.parametrize("name", ["CSEV", "LANS"])
def test_codegen_throughput(benchmark, programs, name):
    """C source generation speed for a full benchmark model."""
    if name not in programs:
        pytest.skip(f"{name} excluded by ACCMOS_BENCH_MODELS")
    prog = programs[name]
    plan = build_plan(prog)
    options = SimulationOptions(steps=1000)

    source, _ = benchmark(
        lambda: generate_reusable_c_program(prog, plan, options)
    )
    assert "int acc_lib_run_case(" in source


@pytest.mark.parametrize("name", ["CSEV"])
def test_compile_throughput(benchmark, programs, name):
    """gcc compilation cost, at the shipped ``CFLAGS``, for a generated
    simulation."""
    if name not in programs:
        pytest.skip(f"{name} excluded by ACCMOS_BENCH_MODELS")
    prog = programs[name]
    options = SimulationOptions(steps=1000)
    plan = build_plan(prog)
    source, layout = generate_reusable_c_program(prog, plan, options)
    compiled = benchmark.pedantic(
        lambda: compile_c_program(source, layout), rounds=1, iterations=1
    )
    assert compiled.shared.exists()
    # The compiled program is the shipped one: it runs an imported case.
    model = compile_model(prog, options, cache=False)
    result = model.run(benchmark_stimuli(prog), options)
    assert result.steps_run == 1000
