"""Working with model files and test-case tables.

Demonstrates the persistence layer: save a model to the two-part XML
format (actors part + relationships part, §3.1 of the paper), reload it,
drive it from an explicit CSV test-case table, and inspect the generated
C before it is compiled.

Run:  python examples/model_files.py
"""

import tempfile
from pathlib import Path

from repro import ModelBuilder, SimulationOptions, simulate
from repro.codegen import generate_reusable_c_program
from repro.dtypes import I32
from repro.instrument import build_plan
from repro.schedule import preprocess
from repro.slx import load_model, save_model
from repro.stimuli import TestCaseTable, load_csv, save_csv


def build_model():
    b = ModelBuilder("Thermostat")
    temp = b.inport("Temp", dtype=I32)        # tenths of a degree
    setpoint = b.inport("Setpoint", dtype=I32)
    error = b.sub("Error", setpoint, temp)
    calling = b.relational("Calling", ">", error, b.constant("Band", 5))
    heat = b.switch("Heat", b.constant("On", 1), calling, b.constant("Off", 0),
                    threshold=1)
    b.outport("HeatOut", heat)
    b.outport("ErrorOut", error)
    return b.build()


def main():
    workdir = Path(tempfile.mkdtemp(prefix="accmos_example_"))

    # --- save / reload the model file ---------------------------------
    model = build_model()
    model_path = workdir / "thermostat.xml"
    save_model(model, model_path)
    print(f"saved model file: {model_path} ({model_path.stat().st_size} bytes)")
    reloaded = load_model(model_path)
    assert reloaded.n_actors == model.n_actors

    # --- explicit test cases via CSV -----------------------------------
    table = TestCaseTable({
        "Temp":     [180, 190, 200, 215, 230, 210, 195, 185],
        "Setpoint": [210, 210, 210, 210, 210, 210, 210, 210],
    })
    csv_path = workdir / "testcases.csv"
    save_csv(table, csv_path)
    stimuli = load_csv(csv_path).to_stimuli()
    print(f"saved test cases: {csv_path} ({table.n_steps} steps, cycled)")

    prog = preprocess(reloaded)
    result = simulate(prog, stimuli, engine="accmos", steps=len(table.columns["Temp"]))
    print(f"one table pass -> HeatOut={result.outputs['HeatOut']}, "
          f"ErrorOut={result.outputs['ErrorOut']}")
    for step, value in result.monitored["Thermostat_HeatOut"]:
        print(f"  step {step}: heat={value}")

    # --- look at the generated simulation code ---------------------------
    plan = build_plan(prog)
    # Stimuli and step counts are imported at run time: the source
    # depends only on the model and the instrumentation.
    source, _ = generate_reusable_c_program(prog, plan, SimulationOptions())
    c_path = workdir / "thermostat_sim.c"
    c_path.write_text(source)
    print(f"\ngenerated C simulation: {c_path} "
          f"({source.count(chr(10)) + 1} lines)")
    marker = "/* Thermostat_Heat (Switch) */"
    snippet = source[source.index(marker):source.index(marker) + 400]
    print("switch actor with inlined condition coverage + diagnosis:\n")
    print("\n".join("    " + line for line in snippet.splitlines()[:8]))


if __name__ == "__main__":
    main()
