#!/usr/bin/env python3
"""Determinism self-check of the repo benchmark.

    python3 perfbench/test_determinism.py [--workloads ...]

For each workload in BENCHMARK.json, runs the traced benchmark three times
with seed 7: twice at the pinned engine parallelism (1) and once with four
engine threads. Every run prints a "det {...}" line with the sim metrics and
work counts (sim makespan, peak sim memory, cost-ledger categories,
ps.rows_*, net.rpc_*, dataflow.shuffle_bytes, stream.vertices_touched, ...).
All three must be bit-identical, and every run must pass its correctness
checks. Exits 1 on any difference.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEED = 7


def traced_run(workload, seed, threads=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", "1", "--min-reps", "1"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})")
    det = [l[len("det "):] for l in lines if l.startswith("det ")]
    if len(det) != 1:
        raise SystemExit(f"{workload}: expected one det line, got {len(det)}")
    return json.loads(det[0]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    all_ok = True
    for workload in args.workloads:
        ok = True
        runs = {
            "pinned": traced_run(workload, SEED),
            "pinned-again": traced_run(workload, SEED),
            "parallelism-4": traced_run(workload, SEED, threads=4),
        }
        base_det = runs["pinned"][0]
        for label, (det, result) in runs.items():
            if not result["correct"] or result["failed"]:
                print(f"FAIL {workload} {label}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            diff = sorted(k for k in base_det.keys() | det.keys()
                          if base_det.get(k) != det.get(k))
            for k in diff:
                print(f"FAIL {workload} {label}: {k} "
                      f"{base_det.get(k)} != {det.get(k)}")
                ok = False
        if ok:
            print(f"ok   {workload}: {len(base_det)} sim metrics and work "
                  f"counts identical across 2 pinned runs and parallelism 4")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
