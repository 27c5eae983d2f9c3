"""Timing loops, output checks and metric assembly for one workload run.

Load is one closed-loop client in one process: each call into the
library starts only when the previous one has returned.

An untraced run sets the workload up several times (``setup_s`` is the
median), then repeats cycles of the workload's items until ``seconds``
are used.  The speed of a shared host drifts by tens of percent over
minutes, so both gated times are scaled to a reference host speed: a
fixed kernel is timed before every set-up and, from an interval timer,
once a second while the items run, and each set-up or item time is
multiplied by ``KERNEL_REF_S`` over the mean kernel time of the samples
taken during it and the nearest one on either side.  The unscaled wall
times are reported beside them.

A traced run sets up under tracing in every cycle and runs each item
twice, once with the span wrappers installed and once without,
alternating which goes first, so ``trace.overhead_frac`` compares the
same work under the same machine drift.
"""

import bisect
import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

import spans
from workloads import WORKLOADS

SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 200
MIN_CYCLES = 2
FLOAT_TOL = 1e-9

# the host-speed kernel: small dense solves and interpreter arithmetic,
# like the planner's inner loop; it never calls the library, so no
# change to the library moves it
KERNEL_REPS = 5000
KERNEL_REF_S = 0.06  # its time at the reference host speed
KERNEL_EVERY_S = 1.0
_KERNEL_MATRIX = np.random.default_rng(0).normal(size=(6, 7))


def kernel_s():
    """Wall time of one run of the host-speed kernel."""
    m, eye = _KERNEL_MATRIX, np.eye(6)
    acc = 0.0
    start = time.perf_counter()
    for i in range(KERNEL_REPS):
        x = np.linalg.solve(m @ m.T + eye, m[:, i % 7])
        acc += math.atan2(x[0], x[1]) + sum(float(v) for v in x)
    return time.perf_counter() - start


class HostSpeed:
    """Samples of the host-speed kernel, taken on demand or from a
    one-second interval timer so that long items are sampled while they
    run.  ``spent`` is the time the samples took, which the caller keeps
    out of the times it measures."""

    def __init__(self):
        self.samples = []  # (perf_counter when taken, kernel seconds)
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        seconds = kernel_s()
        end = time.perf_counter()
        self.samples.append((end, seconds))
        self.spent += end - start

    @contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, seconds, start, end):
        """seconds, measured over [start, end], at reference host speed:
        scaled by the samples inside the interval and the nearest one on
        either side."""
        times = [t for t, _ in self.samples]
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = bisect.bisect_left(times, end)
        kernels = [k for _, k in self.samples[first:last + 1]]
        return seconds * KERNEL_REF_S / statistics.fmean(kernels)

    def speed(self):
        return KERNEL_REF_S / statistics.median(k for _, k in self.samples)


def same(a, b, tol=FLOAT_TOL):
    """Structural equality, floats within tol (relative above 1)."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k], tol) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return type(a) is type(b) and a == b


class Tally:
    """Item times, check results and per-cycle fingerprints."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.stats = []
        self.attempted = 0
        self.failed = 0
        self.cycles = {}  # fingerprints of each cycle's items

    def record(self, inputs, item, out, seconds, cycle):
        """Check one item's output; cycle names the list of fingerprints
        it joins, and every such list must come out the same."""
        checked = self.workload.check(inputs, item, out)
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.stats.append(checked.stats)
        if seconds is not None:
            self.times.append(seconds)
        self.cycles.setdefault(cycle, []).append(checked.fingerprint)

    def fingerprint(self):
        return next(iter(self.cycles.values()))

    def deterministic(self):
        first = self.fingerprint()
        return all(same(c, first) for c in self.cycles.values())


def _peak_rss_mb():
    # ru_maxrss is in kibibytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name, seed, seconds, tiny=False, min_cycles=None):
    """Tiny inputs are for smoke runs: one cycle, few set-ups."""
    workload = WORKLOADS[name]
    if min_cycles is None:
        min_cycles = 1 if tiny else MIN_CYCLES
    setup_min_s = 0.0 if tiny else SETUP_MIN_S
    setup_host, setup_times, setup_ref = HostSpeed(), [], []
    begin = time.perf_counter()
    while (len(setup_times) < SETUP_MIN_REPS
           or time.perf_counter() - begin < setup_min_s) \
            and len(setup_times) < SETUP_MAX_REPS:
        setup_host.sample()
        start = time.perf_counter()
        inputs = workload.setup(seed, tiny)
        end = time.perf_counter()
        setup_times.append(end - start)
        setup_ref.append((end - start, start, end))
    setup_host.sample()
    setup_ref = [setup_host.scaled(*r) for r in setup_ref]
    items = workload.items(inputs)
    tally = Tally(workload)
    host, windows = HostSpeed(), []
    cycle_times, cycle_walls = [], []
    host.sample()
    begin = time.perf_counter()
    with host.ticking():
        while True:
            cycle_start = time.perf_counter()
            cycle = 0.0
            for item in items:
                spent = host.spent
                start = time.perf_counter()
                out = workload.run(inputs, item)
                end = time.perf_counter()
                elapsed = end - start - (host.spent - spent)
                windows.append((start, end))
                cycle += elapsed
                tally.record(inputs, item, out, elapsed, len(cycle_times))
            cycle_times.append(cycle)
            now = time.perf_counter()
            # the next cycle, checks and kernel samples included, must fit
            cycle_walls.append(now - cycle_start)
            if (len(cycle_times) >= min_cycles and now - begin
                    + statistics.median(cycle_walls) > seconds):
                break
    host.sample()
    item_ref = [host.scaled(t, *w) for t, w in zip(tally.times, windows)]
    report = {
        "setup_s": (statistics.median(setup_ref), "s", len(setup_times)),
        "run_s": (_cycle_time(item_ref, len(items)), "s", len(cycle_times)),
        "setup_s.wall": (statistics.median(setup_times), "s",
                         len(setup_times)),
        "run_s.wall": (_cycle_time(tally.times, len(items)), "s",
                       len(cycle_times)),
        "host_speed": (host.speed(), "ratio", len(host.samples)),
        "ops_per_s": (tally.attempted / sum(tally.times), "1/s",
                      len(tally.times)),
        "fail_frac": (tally.failed / tally.attempted, "ratio",
                      tally.attempted),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    report.update(workload.report(tally.times, tally.stats,
                                  tally.stats[:len(items)]))
    metrics = {k: report[k] for k in ("setup_s", "run_s", "peak_rss_mb")}
    return {"tally": tally, "report": report, "metrics": metrics,
            "checks": {}, "samples": {"setup_s": setup_times,
                                      "setup_kernel": setup_host.samples,
                                      "cycle_s": cycle_times,
                                      "run_kernel": host.samples,
                                      "item_s": tally.times}}


def _cycle_time(times, per_cycle):
    """Each item's median over the cycles, summed: one slow stretch of
    the machine spoils the item it hit, not a whole cycle."""
    return sum(statistics.median(times[i::per_cycle])
               for i in range(per_cycle))


def run_traced(name, seed, seconds, tiny=False):
    workload = WORKLOADS[name]
    tracer = spans.Tracer()
    tally = Tally(workload)
    plain, traced = [], []
    bounds = []
    begin = time.perf_counter()
    run_id = 0
    while True:
        cycle_start = time.perf_counter()
        first_span = len(tracer.spans)
        with tracer.installed(), tracer.root("bench.setup", -1):
            inputs = workload.setup(seed, tiny)
        for item in workload.items(inputs):
            order = (False, True) if run_id % 2 == 0 else (True, False)
            for with_spans in order:
                if with_spans:
                    with tracer.installed(), \
                            tracer.root("bench.item", run_id) as rec:
                        out = workload.run(inputs, item)
                    traced.append(rec[2] - rec[1])
                else:
                    start = time.perf_counter()
                    out = workload.run(inputs, item)
                    plain.append(time.perf_counter() - start)
                # the traced twin must not change behaviour either
                tally.record(inputs, item, out, None,
                             (len(bounds), with_spans))
            run_id += 1
        bounds.append((first_span, len(tracer.spans)))
        now = time.perf_counter()
        if now - begin + (now - cycle_start) > seconds:
            break
    metrics, checks = _layer_metrics(tracer, bounds)
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0,
                                      "ratio", len(traced))
    return {"tally": tally, "report": dict(metrics), "metrics": metrics,
            "checks": checks, "tracer": tracer,
            "samples": {"untraced_item_s": plain, "traced_item_s": traced}}


def _layer_metrics(tracer, bounds):
    per_cycle = [spans.aggregate(tracer.spans, tracer.counters, a, b)
                 for a, b in bounds]
    first = per_cycle[0]
    n = len(per_cycle)
    repeat = all(c["calls"] == first["calls"]
                 and c["counters"] == first["counters"] for c in per_cycle)
    nested = all(c["nested"] for c in per_cycle)
    # every item tree's self times must add up to the items' duration
    item_time = sum(c["root_time"]["bench.item"] for c in per_cycle)
    item_self = sum(c["tree_self"]["bench.item"] for c in per_cycle)
    setup_time = sum(c["root_time"]["bench.setup"] for c in per_cycle)

    metrics = {}
    for name in spans.LAYER_SPANS + spans.ROOT_SPANS:
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count", n)
        metrics[f"{name}.self_s"] = (
            sum(c["self_s"].get(name, 0.0) for c in per_cycle) / n, "s", n)
    for metric, counter, span in spans.RATIOS:
        calls = first["calls"].get(span, 0)
        metrics[metric] = (first["counters"].get(counter, 0) / calls
                           if calls else 0.0, "ratio", calls)
    for metric, child, parent in spans.CHILD_CALLS:
        metrics[metric] = (first["child_calls"].get((child, parent), 0),
                           "count", n)
    for metric in spans.COUNTER_METRICS:
        metrics[metric] = (first["counters"].get(metric, 0), "count", n)
    metrics["trace.run_s"] = (item_time / n, "s", n)
    metrics["trace.setup_s"] = (setup_time / n, "s", n)
    checks = {
        "spans_nest": nested,
        "counts_repeat_per_cycle": repeat,
        "self_sum_s": item_self,
        "traced_run_s": item_time,
        "self_sum_matches": abs(item_self - item_time) <= 1e-6,
    }
    return metrics, checks
