#!/usr/bin/env python3
"""Quick self-check of the repo benchmark.

    python3 perfbench/selfcheck/selfcheck.py

Run from the root of a checkout. Runs every workload (the ones named in
BENCHMARK.json and fig8-cold) at the tiny size (seed 1, untraced and
traced) through perfbench/run.py and checks that each result line has
the schema the benchmark promises, that every metric BENCHMARK.json
lists is reported with its unit, and that the simulated output matches
the committed tiny digest. Takes seconds once the benchmark is built;
exits 1 if any check fails, listing every problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 1
# fig8-cold is runnable but not in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["fig8-cold"]


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(workload, trace, expected, digests, problems):
    tag = f"{workload} --trace {trace}"
    code, lines = run(workload, trace)
    if code != 0 or len(lines) < 2:
        problems.append(f"{tag}: exit code {code}, {len(lines)} lines")
        return
    host, result = json.loads(lines[0]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{tag}: correct is {result['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append(f"{tag}: {key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"{tag}: attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{tag}: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{tag}: {name} unit {m.get('unit')} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {name} value {value!r}")
        elif trace == 0 and value == 0:
            problems.append(f"{tag}: end-to-end metric {name} is 0")
    committed = digests.get(workload, {}).get(str(SEED))
    if committed is None:
        problems.append(f"{tag}: no committed tiny digest")
    elif host.get("digest") != committed:
        problems.append(f"{tag}: digest {host.get('digest')} != committed "
                        f"{committed}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads(
        (ROOT / "perfbench" / "digests.json").read_text()).get("tiny", {})
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for name in [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            check(name, trace, expected, digests, problems)
            print(f"checked {name} --trace {trace}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
