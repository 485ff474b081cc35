#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with
dune (shared dune cache off, so nothing is written outside the
checkout), runs it with the same arguments, echoes its output, and
checks that the metrics printed on the last line are exactly the ones
BENCHMARK.json lists for that mode (end_to_end for --trace 0, per_layer
for --trace 1). With --workload all it runs every workload BENCHMARK.json
lists and ends with one JSON line whose metrics are keyed
"<workload>/<metric>". The exit code is non-zero when the build fails, a
check fails, or the metric set does not match.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def run_workload(argv, want):
    """Run bench.exe once; return (exit code, parsed last line or None)."""
    out = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    try:
        last = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return (out.returncode or 1), None
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    if got != want:
        print("run.py: printed metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"unit changes {sorted(k for k in want if k in got and got[k] != want[k])}",
              file=sys.stderr)
        return 1, last
    return out.returncode, last


def main(argv):
    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if "--workload" not in argv or argv[argv.index("--workload") + 1] != "all":
        return run_workload(argv, want)[0]
    at = argv.index("--workload") + 1
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        rc, last = run_workload(argv[:at] + [w["name"]] + argv[at + 1:], want)
        code = code or rc
        if last is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and last["correct"] and rc == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{w['name']}/{k}"] = v
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
