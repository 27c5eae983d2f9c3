"""Span tracing installed from outside the library.

A traced run rebinds the module-level names through which one screwplan
layer calls the next (``screwplan.planner.arm_state`` and the like) to
wrappers that record a span per call, and restores the originals when
the run ends.  Nothing under ``src/`` knows about it, and an untraced run
calls the library with no wrapper in place.

A span is ``[name, start, end, parent, run_id]``: perf_counter seconds,
the index of the enclosing span (-1 for a root) and the id of the
benchmark item that caused it.  Spans stay in memory until ``dump``.
Counters are derived from the values the wrapped calls return.
"""

import importlib
import json
import time
from contextlib import contextmanager

from screwplan.planner import Mode, Outcome

# (span name, module whose global name is rebound, attribute)
BINDINGS = (
    ("kinematics.arm_state", "screwplan.planner", "arm_state"),
    ("kinematics.pseudoinverse", "screwplan.planner", "pseudoinverse"),
    # self_motion_direction reaches pseudoinverse through its own module
    ("kinematics.pseudoinverse", "screwplan.kinematics", "pseudoinverse"),
    ("kinematics.limit_status", "screwplan.planner", "limit_status"),
    ("kinematics.self_motion_direction", "screwplan.planner",
     "self_motion_direction"),
    ("kinematics.panda_model", "screwplan.scenarios", "panda_model"),
    ("planner.calculate_sew_change", "screwplan.planner",
     "calculate_sew_change"),
    ("planner.mode2_recovery", "screwplan.planner", "mode2_recovery"),
    ("planner.plan_to_pose", "screwplan.planner", "plan_to_pose"),
    ("screws.log_pose", "screwplan.planner", "log_pose"),
    ("screws.pose_error", "screwplan.planner", "pose_error"),
    ("screws.sclerp_path", "screwplan.demonstration", "sclerp_path"),
    ("screws.sclerp_path", "screwplan.screws", "sclerp_path"),
    ("screws.screw_from_pose", "screwplan.demonstration", "screw_from_pose"),
    ("demonstration.segment_demonstration", "screwplan.scenarios",
     "segment_demonstration"),
    ("demonstration.segment_demonstration", "screwplan.demonstration",
     "segment_demonstration"),
    ("demonstration.synthesize_demonstration", "screwplan.scenarios",
     "synthesize_demonstration"),
    ("demonstration.synthesize_demonstration", "screwplan.demonstration",
     "synthesize_demonstration"),
    ("demonstration.extract_guiding_poses", "screwplan.scenarios",
     "extract_guiding_poses"),
    ("demonstration.extract_guiding_poses", "screwplan.demonstration",
     "extract_guiding_poses"),
    ("demonstration.transfer_constraints", "screwplan.activity",
     "transfer_constraints"),
    ("demonstration.transfer_constraints", "screwplan.demonstration",
     "transfer_constraints"),
    ("layouts.layout_goals", "screwplan.activity", "layout_goals"),
    ("layouts.layout_goals", "screwplan.layouts", "layout_goals"),
    ("activity.run_activity", "screwplan.activity", "run_activity"),
    ("activity.plan_through_guiding_poses", "screwplan.activity",
     "plan_through_guiding_poses"),
    ("activity.evaluate_placement", "screwplan.activity",
     "evaluate_placement"),
    ("activity.evaluate_ceiling", "screwplan.activity", "evaluate_ceiling"),
)

LAYER_SPANS = tuple(dict.fromkeys(name for name, _, _ in BINDINGS))
ROOT_SPANS = ("bench.setup", "bench.item")


def _plan_counts(traj):
    mode1 = sum(1 for s in traj.steps if s.mode is Mode.MODE1)
    return {"planner.mode1_steps": mode1,
            "planner.mode2_steps": len(traj.steps) - mode1,
            "planner.damped_steps": sum(1 for s in traj.steps if s.damped)}


# counters read off a wrapped call's return value; the parent span name
# is passed so that work can be attributed to the caller
COUNTERS = {
    "kinematics.pseudoinverse": lambda out, parent: {
        "kinematics.pseudoinverse.damped": int(out[1])},
    "planner.calculate_sew_change": lambda out, parent: {
        "planner.calculate_sew_change.nonzero": int(out != 0.0)},
    "planner.mode2_recovery": lambda out, parent: {
        "planner.mode2_recovery.reached": int(out.outcome is Outcome.REACHED)},
    "planner.plan_to_pose": lambda out, parent: _plan_counts(out),
    "screws.sclerp_path": lambda out, parent: {
        "demonstration.segment_demonstration.samples_fit": len(out[0])}
    if parent == "demonstration.segment_demonstration" else {},
    "layouts.layout_goals": lambda out, parent: {
        "layouts.layout_goals.goals": len(out)},
}

# (counter, span) pairs whose ratio is reported as a fraction per call
RATIOS = (
    ("kinematics.pseudoinverse.damped_frac",
     "kinematics.pseudoinverse.damped", "kinematics.pseudoinverse"),
    ("planner.calculate_sew_change.nonzero_frac",
     "planner.calculate_sew_change.nonzero", "planner.calculate_sew_change"),
    ("planner.mode2_recovery.reached_frac",
     "planner.mode2_recovery.reached", "planner.mode2_recovery"),
)

# (metric, child span, parent span): calls of child made directly by parent
CHILD_CALLS = (
    ("planner.calculate_sew_change.candidates",
     "kinematics.self_motion_direction", "planner.calculate_sew_change"),
    ("demonstration.segment_demonstration.window_tests",
     "screws.sclerp_path", "demonstration.segment_demonstration"),
)

COUNTER_METRICS = ("planner.mode1_steps", "planner.mode2_steps",
                   "planner.damped_steps", "layouts.layout_goals.goals",
                   "demonstration.segment_demonstration.samples_fit")


class Tracer:
    """Holds the spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = []  # (span index, {counter: increment})
        self._stack = []
        self.run_id = None

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                parent = spans[rec[3]][0] if rec[3] >= 0 else None
                counters.append((index, count(out, parent)))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in BINDINGS for the duration of the block."""
        saved = []
        try:
            for name, module_name, attr in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def root(self, name, run_id):
        """A span recorded by the benchmark itself around its own calls."""
        self.run_id = run_id
        index = len(self.spans)
        rec = [name, 0.0, 0.0, -1, run_id]
        self.spans.append(rec)
        self._stack.append(index)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, f)
            f.write("\n")


def aggregate(spans, counters, first, last):
    """Per-name totals over spans[first:last]: calls, self seconds,
    counters and child-call counts; per root name, the roots' duration
    and the self time of everything in their trees.

    Self time is a span's duration minus the durations of the spans
    whose parent it is.
    """
    child_time = {}
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + spans[i][2] - spans[i][1])
    calls, self_s, child_calls = {}, {}, {}
    root_time, tree_self, root_of = {}, {}, {}
    nested = True
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        own = end - start - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            nested &= pstart <= start and end <= pend
            child_calls[(name, pname)] = child_calls.get((name, pname), 0) + 1
            root_of[i] = root_of[parent]
        else:
            root_of[i] = name
            root_time[name] = root_time.get(name, 0.0) + end - start
        tree_self[root_of[i]] = tree_self.get(root_of[i], 0.0) + own
    totals = {}
    for index, increments in counters:
        if first <= index < last:
            for key, value in increments.items():
                totals[key] = totals.get(key, 0) + value
    return {"calls": calls, "self_s": self_s, "counters": totals,
            "child_calls": child_calls, "root_time": root_time,
            "tree_self": tree_self, "nested": nested}
