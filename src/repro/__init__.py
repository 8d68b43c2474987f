"""AccMoS reproduction: accelerating Simulink-style model simulation via
code generation.

Reimplementation of *AccMoS: Accelerating Model Simulation for Simulink
via Code Generation* (DAC 2024): a dataflow-model ecosystem — model
format, preprocessing, 50+ actor semantics, coverage, diagnosis — with
four simulation engines: the interpreted SSE baseline, Accelerator and
Rapid-Accelerator analogs, and AccMoS itself (instrumented C generation +
gcc + execution).

Quickstart::

    from repro import ModelBuilder, simulate
    from repro.dtypes import I32

    b = ModelBuilder("Demo")
    x = b.inport("X", dtype=I32)
    acc = b.accumulator("Acc", x, dtype=I32)
    b.outport("Y", acc)
    result = simulate(b.build(), engine="accmos", steps=1_000_000)
    print(result.summary())
"""

from repro import telemetry
from repro.dtypes import DType
from repro.model import Actor, Model, ModelBuilder, Subsystem
from repro.schedule import FlatProgram, preprocess
from repro.engines import (
    ENGINES,
    SimulationOptions,
    SimulationResult,
    run_accmos,
    run_sse,
    run_sse_ac,
    run_sse_rac,
    simulate,
)
from repro.campaign import CampaignConfig, CampaignOutcome, run_campaign
from repro.runner import (
    ArtifactCache,
    JobResult,
    SimulationJob,
    run_job,
    run_jobs,
)
from repro.diagnosis import CustomDiagnosis, DiagnosticKind
from repro.coverage import CoverageReport, Metric
from repro.stimuli import (
    ConstantStimulus,
    IntRandomStimulus,
    SequenceStimulus,
    Stimulus,
    TestCaseTable,
    UniformRandomStimulus,
    default_stimuli,
)

__version__ = "1.0.0"

__all__ = [
    "DType",
    "Actor",
    "Model",
    "ModelBuilder",
    "Subsystem",
    "FlatProgram",
    "preprocess",
    "simulate",
    "ENGINES",
    "SimulationOptions",
    "SimulationResult",
    "run_sse",
    "run_sse_ac",
    "run_sse_rac",
    "run_accmos",
    "run_campaign",
    "CampaignConfig",
    "CampaignOutcome",
    "ArtifactCache",
    "SimulationJob",
    "JobResult",
    "run_job",
    "run_jobs",
    "CustomDiagnosis",
    "DiagnosticKind",
    "CoverageReport",
    "Metric",
    "Stimulus",
    "ConstantStimulus",
    "SequenceStimulus",
    "IntRandomStimulus",
    "UniformRandomStimulus",
    "TestCaseTable",
    "default_stimuli",
    "telemetry",
    "__version__",
]
