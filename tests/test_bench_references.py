"""The library still reproduces the benchmark's recorded reference outputs.

``bench/workloads.py`` and ``bench/references.json`` are loaded read-only,
as ``test_bench_tracer.py`` loads the tracer, and each workload's own
``check`` compares a solve with its reference: final F within ``F_RTOL``
and the same iteration count (pose graphs), or every linear record.  A
change that moves an output shows here before the benchmark reports it
incorrect.  The pose-graph seeds are the default run's instances, 1 to 4;
the hybrid reference of seed 1005 is stale and left out.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCES = json.loads((_BENCH / "references.json").read_text())
PGO_SEEDS = range(workloads.PGO_SEED, workloads.PGO_SEED + workloads.PGO_INSTANCES)


def check_against_reference(name, seed):
    workload = workloads.WORKLOADS[name]
    reference = REFERENCES[name][str(seed)]
    instance = workload.setup(seed, workloads.FULL)
    attempted, failures = workload.check(instance, workload.solve(instance), reference)
    assert attempted == workload.ops(workloads.FULL)
    assert failures == []


@pytest.mark.parametrize("seed", PGO_SEEDS)
@pytest.mark.parametrize("name", ["pgo-hybrid", "pgo-elimination"])
def test_pose_graph_solve_matches_its_reference(name, seed):
    check_against_reference(name, seed)


def test_linear_study_matches_its_reference():
    check_against_reference("linear-mc", workloads.LINEAR_SEED)
