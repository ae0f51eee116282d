#!/usr/bin/env python3
"""Determinism oracle: same benches, two build trees, byte-identical output.

The simulator is deterministic, so two builds that behave the same print
byte-identical bench output at one --seed. This script runs a fixed bench
list from BUILD_A and BUILD_B (CMake build trees with bench/ built) and
diffs, per bench, the `--json` "rows", the `--json` "metrics" and stdout.
Exit status is 0 when every bench matches, 1 otherwise; the first lines of
each difference are printed.

  scripts/bench_oracle.py BUILD_A BUILD_B [--seed 7] [--bench NAME ...]

RFP_BENCH_SCALE in the environment reaches both runs unchanged (e.g. 0.2 for
a quick smoke pass; the full-length default is what a refactor should pass).
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_fig09_fetch_vs_reply",
    "bench_fig10_jakiro_clients",
    "bench_fig11_vs_pilaf",
    "bench_fig12_server_threads",
    "bench_fig15_client_cpu",
    "bench_tab3_retries",
    "bench_ext_pipeline",
    "bench_ext_multicore",
    "bench_ext_overload",
    "bench_ext_fault_tolerance",
    "bench_ext_replication",
    "bench_ext_memory",
    "bench_ext_explore",
    "bench_ext_multiget",
    "bench_ext_conn_scale",
    "bench_ext_related_work",
    "bench_ext_ud_loss",
]

DIFF_LINES = 20


def run_bench(build, bench, seed, scratch):
    """Runs one bench; returns {"stdout", "rows", "metrics"} as text."""
    exe = os.path.join(build, "bench", bench)
    if not os.access(exe, os.X_OK):
        raise FileNotFoundError(f"{exe}: not built")
    json_path = os.path.join(scratch, bench + ".json")
    proc = subprocess.run([exe, f"--seed={seed}", f"--json={json_path}"],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{exe} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(json_path, encoding="utf-8") as f:
        doc = json.load(f)
    return {
        "stdout": proc.stdout,
        "rows": json.dumps(doc.get("rows"), indent=1, sort_keys=True),
        "metrics": json.dumps(doc.get("metrics"), indent=1, sort_keys=True),
    }


def diff(name, a, b, label_a, label_b):
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(), label_a, label_b,
                                      lineterm="", n=1))
    shown = lines[:DIFF_LINES]
    more = len(lines) - len(shown)
    print(f"  {name} differs:")
    for line in shown:
        print("    " + line)
    if more > 0:
        print(f"    ... {more} more diff lines")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_a", help="reference build tree (e.g. the base commit)")
    parser.add_argument("build_b", help="candidate build tree (e.g. the change)")
    parser.add_argument("--seed", type=int, default=7, help="bench --seed (default 7)")
    parser.add_argument("--bench", action="append", dest="benches", metavar="NAME",
                        help="run only this bench (repeatable; default: the fixed list)")
    args = parser.parse_args()

    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        for bench in args.benches or BENCHES:
            dir_a = os.path.join(scratch, "a")
            dir_b = os.path.join(scratch, "b")
            os.makedirs(dir_a, exist_ok=True)
            os.makedirs(dir_b, exist_ok=True)
            try:
                out_a = run_bench(args.build_a, bench, args.seed, dir_a)
                out_b = run_bench(args.build_b, bench, args.seed, dir_b)
            except (OSError, RuntimeError, ValueError) as err:
                print(f"ERROR {bench}: {err}")
                failed.append(bench)
                continue
            parts = [part for part in ("rows", "metrics", "stdout") if out_a[part] != out_b[part]]
            if not parts:
                print(f"same  {bench}")
                continue
            print(f"DIFF  {bench}")
            for part in parts:
                diff(part, out_a[part], out_b[part], f"{args.build_a}:{bench}",
                     f"{args.build_b}:{bench}")
            failed.append(bench)
    if failed:
        print(f"{len(failed)} bench(es) differ at --seed={args.seed}: {' '.join(failed)}")
        return 1
    print(f"all benches identical at --seed={args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
