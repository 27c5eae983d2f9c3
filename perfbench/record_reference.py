"""Record the behaviour fingerprint of a workload for a range of seeds.

    python3 perfbench/record_reference.py --workload moving_wall --seeds 0-40

Runs one untimed cycle per seed and stores its fingerprint in
``perfbench/reference.json``, which ``run.py`` compares every run
against (floats within 1e-9).  Re-record only when a change is meant
to alter behaviour, and say so in that change.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="first-last, inclusive")
    args = parser.parse_args(argv)
    if not run.load_library():
        print(f"no screwplan sources under {run.SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = range(first, last + 1) if workload.seeded else [first]
    try:
        with open(run.REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)
    except FileNotFoundError:
        reference = {}
    recorded = reference.setdefault(workload.name, {})
    for seed in seeds:
        result = harness.run_untraced(workload.name, seed, 0.0, min_cycles=1)
        tally = result["tally"]
        key = str(seed) if workload.seeded else "any"
        recorded[key] = tally.fingerprint()
        print(f"{workload.name} seed {key}: failed {tally.failed} of "
              f"{tally.attempted}", flush=True)
    write_reference(reference)
    return 0


def write_reference(reference):
    """One line per recorded seed, so a re-record diffs by seed."""
    lines = []
    for name in sorted(reference):
        seeds = reference[name]
        entries = [f"  {json.dumps(key)}: {json.dumps(seeds[key])}"
                   for key in sorted(seeds, key=_seed_order)]
        lines.append(f"{json.dumps(name)}: {{\n" + ",\n".join(entries)
                     + "\n}")
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def _seed_order(key):
    return (0, int(key)) if key.isdigit() else (1, key)


if __name__ == "__main__":
    sys.exit(main())
