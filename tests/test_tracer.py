"""perfbench's span tracer against the library: every name it rebinds
must exist, an installed tracer must put the originals back, the
mode-2 linear algebra must show as spans of its own, and one traced
cycle of each workload must nest, add up and repeat."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from screwplan import planner
from screwplan.kinematics import PANDA_READY, panda_model


def _load_perfbench(name):
    # registered under its own name, as harness imports spans and workloads
    path = Path(__file__).parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_perfbench("spans")


def _bound():
    return [getattr(importlib.import_module(module), attr, None)
            for _, module, attr in spans.BINDINGS]


def test_every_binding_resolves_to_a_callable():
    for (name, module, attr), fn in zip(spans.BINDINGS, _bound()):
        assert callable(fn), f"{name}: {module}.{attr} is missing"


def test_installed_tracer_restores_the_originals():
    originals = _bound()
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(w is not o for w, o in zip(_bound(), originals))
        kinematics = importlib.import_module("screwplan.kinematics")
        kinematics.pseudoinverse(np.hstack([np.eye(6), np.zeros((6, 1))]))
    assert [s[0] for s in tracer.spans] == ["kinematics.pseudoinverse"]
    assert all(r is o for r, o in zip(_bound(), originals))
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("interrupted run")
    assert all(r is o for r, o in zip(_bound(), originals))


def test_mode2_steps_record_their_pseudoinverse():
    # each mode-2 step takes its SVD through kinematics.pseudoinverse,
    # so the traced run sees it under the recovery that made it
    tracer = spans.Tracer()
    with tracer.installed():
        fragment = planner.mode2_recovery(PANDA_READY, -0.3, panda_model(),
                                          planner.PlannerConfig(),
                                          max_steps=5)
    assert fragment.outcome is planner.Outcome.STEP_BUDGET_EXHAUSTED
    names = [s[0] for s in tracer.spans]
    recovery = names.index("planner.mode2_recovery")
    svds = [s for s in tracer.spans if s[0] == "kinematics.pseudoinverse"]
    assert len(svds) == len(fragment.steps) == 5
    assert all(s[3] == recovery for s in svds)


@pytest.fixture(scope="module")
def harness():
    _load_perfbench("workloads")
    return _load_perfbench("harness")


@pytest.mark.parametrize("name", ["moving_wall", "near_limit",
                                  "demo_transfer"])
def test_traced_cycle_nests_and_repeats(harness, name):
    run = harness.run_traced(name, 0, 0.0, tiny=True)
    tally, checks = run["tally"], run["checks"]
    assert tally.failed == 0 and tally.deterministic()
    assert checks["spans_nest"] and checks["self_sum_matches"]
    assert checks["counts_repeat_per_cycle"]
    if name == "near_limit":
        # each recovery still shows as a span of its own
        assert run["metrics"]["planner.mode2_recovery.calls"][0] >= 1
