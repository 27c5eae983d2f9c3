"""perfbench's behaviour contract in the test suite: one cycle of each
workload, run through the workload's own setup, items, run and check,
must fail nothing and match the fingerprint recorded in
perfbench/reference.json (floats within the harness tolerance)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"
SEED = 0


def _load(name):
    # registered under its own name: harness imports spans and workloads
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("spans")
workloads = _load("workloads")
harness = _load("harness")


@pytest.mark.parametrize("name", ["moving_wall", "near_limit",
                                  "demo_transfer"])
def test_one_cycle_matches_the_recorded_fingerprint(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(SEED, False)
    tally = harness.Tally(workload)
    for item in workload.items(inputs):
        tally.record(inputs, item, workload.run(inputs, item), None, 0)
    assert tally.failed == 0
    with open(PERFBENCH / "reference.json", encoding="utf-8") as f:
        recorded = json.load(f)[name][str(SEED) if workload.seeded
                                      else "any"]
    assert harness.same(tally.fingerprint(), recorded)
