#!/usr/bin/env python3
"""Self-tests of the repository benchmark binary.

    python3 perfbench/test_perfbench.py --binary PATH strict
    python3 perfbench/test_perfbench.py --binary PATH determinism

strict: a short pass of every workload with the protocol invariant checker in
strict mode (any violation aborts the run) must finish with every response
correct.

determinism: two runs of a workload at one seed must print identical
virtual-time metrics, and a run at a second seed must stay within the bounds
BENCHMARK.json fixes for them.

ctest runs both from the perfbench build tree (perfbench/CMakeLists.txt).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["kv_read95", "echo_window64", "kv_zerocopy_write50", "ud_churn"]
# End-to-end metrics read off the simulator's virtual clock.
VIRTUAL = ["throughput_mops", "latency_p50_us", "latency_p999_us", "success_rate"]


def run(binary, workload, seed, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--reps", "1", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check(ok, message, failures):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def test_strict(binary, failures):
    for w in WORKLOADS:
        proc, result = run(binary, w, 1, "--quick", "--check", "strict")
        check(proc.returncode == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] > 0,
              "%s: strict checker pass, no violations or mismatches" % w, failures)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)


def test_determinism(binary, failures):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for w in WORKLOADS:
        runs = [run(binary, w, seed)[1] for seed in (1, 1, 2)]
        if any(r is None or not r["correct"] for r in runs):
            check(False, "%s: all three runs correct" % w, failures)
            continue
        a, b, other = ({k: r["metrics"][k]["value"] for k in VIRTUAL} for r in runs)
        check(a == b and runs[0]["attempted"] == runs[1]["attempted"],
              "%s: same seed, identical virtual-time metrics" % w, failures)
        for k in VIRTUAL:
            drift = abs(other[k] - a[k]) / a[k]
            check(drift <= bounds[k],
                  "%s: %s at seed 2 within %.0f%% of seed 1 (%.2f%%)"
                  % (w, k, 100 * bounds[k], 100 * drift), failures)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("test", choices=["strict", "determinism"])
    args = parser.parse_args()
    failures = []
    {"strict": test_strict, "determinism": test_determinism}[args.test](args.binary, failures)
    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)


if __name__ == "__main__":
    main()
