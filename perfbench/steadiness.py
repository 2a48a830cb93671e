#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times, prints each metric's spread.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads gx-pagerank --runs 5 --sets 2

Run i uses seed i (1, 2, ..., N). For every metric the tool prints the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. With --sets 2 the same seeds run
twice, the spread column shows the wider of the two sets' spreads, and the
tool also prints how far the second median moved from the first, as a share
of the first. Exits 1 if any run is incorrect or fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bad = False
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = 1 + i
                result = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                    bad = True
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"  {workload} set {s + 1} seed {seed} done",
                      file=sys.stderr)
            sets.append(values)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'shift':>9}")
        for name in sets[0]:
            med, q1, q3, sp = spread(sets[0][name])
            bound = bounds[name]
            shift = ""
            if args.sets == 2:
                med2, _, _, sp2 = spread(sets[1][name])
                shift = (f"{(med2 - med) / med:+9.4f}" if med
                         else f"{'nan':>9}")
                sp = max(sp, sp2)
            flag = ""
            if name != "setup_s" and sp > bound / 3:
                flag = "  > bound/3" if sp <= bound else "  > bound"
            print(f"  {name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{sp:>9.4f}{bound:>7}"
                  f"{shift}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
