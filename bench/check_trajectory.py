#!/usr/bin/env python3
"""Format check for bench/trajectory.jsonl.

Run from the repository root:

    python3 bench/check_trajectory.py [path]

Every line must be one JSON object carrying "commit" (a string),
"workload" (a workload BENCHMARK.json declares) and "seed" (an int or
an "a-b" range); every other key must be an end-to-end metric
BENCHMARK.json declares, with a numeric value. Prints one line per bad
record and exits 1 if there is any.
"""

import json
import re
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "bench/trajectory.jsonl"
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    errors = []
    with open(path) as f:
        lines = f.read().splitlines()
    for n, line in enumerate(lines, 1):
        def bad(msg):
            errors.append(f"{path}:{n}: {msg}")

        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            bad(f"not JSON ({e.msg})")
            continue
        if not isinstance(rec, dict):
            bad("not a JSON object")
            continue
        if not isinstance(rec.get("commit"), str) or not rec["commit"]:
            bad('missing or empty "commit"')
        if rec.get("workload") not in workloads:
            bad(f'"workload" {rec.get("workload")!r} is not a BENCHMARK.json workload')
        seed = rec.get("seed")
        if not ((isinstance(seed, int) and not isinstance(seed, bool))
                or (isinstance(seed, str) and re.fullmatch(r"\d+-\d+", seed))):
            bad(f'"seed" {seed!r} is neither an int nor "a-b"')
        for key, value in rec.items():
            if key in ("commit", "workload", "seed"):
                continue
            if key not in metrics:
                bad(f"{key!r} is not an end-to-end metric")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                bad(f"{key!r} has a non-numeric value {value!r}")
    for e in errors:
        print(e)
    print(f"{path}: {len(lines)} lines, {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
