#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of scale_a1, audit_a1, campaign_mix, kv_open. The benchmark is
built from source with dune (into _build/), then run; its last stdout
line is the JSON result. Exit status is non-zero when the build fails,
when any output is wrong, or when the result line is malformed.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the root of a full "
                  "checkout", file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] is True and result["failed"] == 0
              and result["attempted"] >= 1)
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        print("perfbench: malformed or failing result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
