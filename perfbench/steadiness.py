#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarize how steady it is.

    python3 perfbench/steadiness.py run OUT.jsonl [--runs 10] [--seed-base 0]
    python3 perfbench/steadiness.py summary A.jsonl [B.jsonl]

`run` invokes run.py once per (workload, seed) for every workload in
BENCHMARK.json, untraced, with seeds seed-base+1 .. seed-base+runs, and
appends one JSON line per run: {"workload", "seed", "result"}.

`summary` prints, per workload and end-to-end metric, the median, the
first and third quartiles (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median against the metric's bound, plus the share of failed
operations. Given two files it also prints how far the second set's
median moved from the first's, in the metric's worse direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    b = spec()
    with open(args.out, "a") as out:
        for w in b["workloads"]:
            for i in range(1, args.runs + 1):
                seed = args.seed_base + i
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", w["name"], "--seed", str(seed),
                       "--seconds", str(b["run_seconds"]), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if done.returncode == 0 else None
                out.write(json.dumps({"workload": w["name"], "seed": seed,
                                      "result": result}) + "\n")
                out.flush()


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def stats(results, name):
    v = [r["metrics"][name]["value"] for r in results]
    q1, _, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summary(args):
    b = spec()
    sets = [load(p) for p in args.files]
    for w in b["workloads"]:
        name = w["name"]
        print("== %s" % name)
        for k, runs in enumerate(sets):
            res = runs.get(name, [])
            ok = [r for r in res if r is not None]
            shares = sorted({r["failed"] / r["attempted"] for r in ok})
            print("  set %d: %d runs, %d without result, correct %s, "
                  "failed share %s" % (k + 1, len(res), len(res) - len(ok),
                                       all(r["correct"] for r in ok),
                                       shares))
        for m in b["end_to_end"]:
            cells = []
            meds = []
            for runs in sets:
                ok = [r for r in runs.get(name, []) if r is not None]
                if len(ok) < 2:
                    cells.append("n/a")
                    continue
                med, q1, q3, spread = stats(ok, m["name"])
                meds.append(med)
                cells.append("median %.6g  Q1 %.6g  Q3 %.6g  spread %.3f"
                             % (med, q1, q3, spread))
            line = "  %-16s bound %.2f | %s" % (m["name"], m["bound"],
                                                  " | ".join(cells))
            if len(meds) == 2 and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                line += " | 2nd median worse by %.3f" % worse
            print(line)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=0)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = p.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        summary(args)


if __name__ == "__main__":
    main()
