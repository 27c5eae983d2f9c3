"""Run one screwplan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload moving_wall --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a checkout; it imports the library from
``src/`` there.  The report lines name every metric with its unit and
sample count; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The full result, with the machine record and the behaviour
fingerprint, goes to ``perfbench/out/``; a traced run also writes its
spans there.  Workloads and metrics are described in
``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# one BLAS thread: the loop is single-threaded numpy on small matrices,
# and this must be settled before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def load_library():
    """Put the checkout's src/ first on the import path; False when the
    checkout has no library to benchmark."""
    if not (SRC / "screwplan" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def machine(seed):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def reference_status(workload, seed, fingerprint, tiny):
    """Compare the run's fingerprint with the one recorded for its seed."""
    import harness

    if tiny:
        return "not compared (tiny inputs)"
    key = str(seed) if workload.seeded else "any"
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            recorded = json.load(f).get(workload.name, {}).get(key)
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return f"no reference recorded for seed {seed}"
    if harness.same(fingerprint, recorded):
        return f"match (reference for seed {key})"
    return f"MISMATCH against the reference for seed {key}"


def execute(name, seed, seconds, trace, tiny=False):
    """Run the workload; returns the full result document."""
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        result = harness.run_traced(name, seed, seconds, tiny)
    else:
        result = harness.run_untraced(name, seed, seconds, tiny)
    tally = result["tally"]
    checks = dict(result["checks"])
    checks["deterministic"] = tally.deterministic()
    correct = (tally.failed == 0 and checks["deterministic"]
               and checks.get("spans_nest", True)
               and checks.get("self_sum_matches", True)
               and checks.get("counts_repeat_per_cycle", True))
    fingerprint = tally.fingerprint()
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny,
        "machine": machine(seed),
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "checks": checks,
        "fingerprint_status": reference_status(workload, seed, fingerprint,
                                               tiny),
        "report": {k: {"value": v, "unit": u, "n": n}
                   for k, (v, u, n) in result["report"].items()},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
        "samples": result["samples"],
        "fingerprint": fingerprint,
        "tracer": result.get("tracer"),
    }


def print_report(doc):
    m = doc["machine"]
    print(f"perfbench {doc['workload']} seed={doc['seed']} "
          f"trace={doc['trace']} seconds={doc['seconds']}")
    print(f"machine: nproc={m['nproc']} usable={m['cpus_usable']} "
          f"cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']!r} blas_threads="
          + ",".join(f"{k}={v}" for k, v in m["blas_threads"].items()))
    for name, r in doc["report"].items():
        print(f"  {name:<52} {r['value']:<14.6g} {r['unit']:<6} n={r['n']}")
    print(f"checks: attempted={doc['attempted']} failed={doc['failed']} "
          + " ".join(f"{k}={v}" for k, v in doc["checks"].items()))
    print(f"fingerprint: {doc['fingerprint_status']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("moving_wall", "near_limit",
                                 "demo_transfer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_library():
        print(f"no screwplan sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    doc = execute(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = doc.pop("tracer")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print_report(doc)
    print(f"results: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
