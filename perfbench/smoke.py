"""Smoke run of the benchmark on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on tiny inputs (one placement,
one near-limit scenario, three demonstrations) and fails unless each
run is correct and prints every metric named in BENCHMARK.json and
every workload report metric, each with a unit.  Takes about twenty
seconds; it is not part of the pytest suite.
"""

import json
import sys

import run

# report metrics printed besides the BENCHMARK.json ones
COMMON = ("setup_s", "run_s", "setup_s.wall", "run_s.wall", "host_speed",
          "ops_per_s", "fail_frac", "peak_rss_mb")
REPORT_METRICS = {
    "moving_wall": COMMON + ("steps_per_s", "placement_s.p50", "motion_s",
                             "mean_pos_err_mm", "max_yaw_err_deg"),
    "near_limit": COMMON + ("steps_per_s", "motion_s"),
    "demo_transfer": COMMON + ("demos_per_s", "segment_ms.p50",
                               "segment_ms.p95"),
}


def main():
    if not run.load_library():
        print(f"no screwplan sources under {run.SRC}", file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            doc = run.execute(name, 1, 0.0, trace, tiny=True)
            label = f"{name} trace={trace}"
            if not doc["correct"]:
                problems.append(f"{label}: not correct {doc['checks']}")
            emitted = doc["metrics"]
            if sorted(emitted) != sorted(expected[trace]):
                problems.append(f"{label}: metrics differ from "
                                "BENCHMARK.json: " + ", ".join(
                                    sorted(set(emitted) ^ set(
                                        expected[trace]))))
            wanted = REPORT_METRICS[name] if trace == 0 else ()
            missing = [m for m in wanted if m not in doc["report"]]
            if missing:
                problems.append(f"{label}: report lacks {missing}")
            for metric, r in list(emitted.items()) + list(
                    doc["report"].items()):
                if not r.get("unit"):
                    problems.append(f"{label}: {metric} has no unit")
            print(f"{label}: {len(emitted)} metrics, "
                  f"{len(doc['report'])} report lines, "
                  f"correct={doc['correct']}", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
