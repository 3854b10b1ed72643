#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Each argument is a raw file holding one set of runs: every workload in
BENCHMARK.json, run once per seed 1-10 for run_seconds, untraced, one JSON
result line per run. A file that does not exist yet is filled by running
the set; one that exists is read as it is. Run it from the repository root:

    python3 perfbench/steadiness.py setA.jsonl
    python3 perfbench/steadiness.py setA.jsonl setB.jsonl

It prints a Markdown table with, for every end-to-end metric and each set,
the median and quartiles (statistics.quantiles(values, n=4)) and the
spread, the distance between the quartiles as a share of the median. With
two sets it also prints how much worse set B's median is than set A's, in
the metric's own direction (negative: better), next to the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_set(spec, path):
    """Runs every workload once per seed and writes the result lines to path."""
    part = path + ".part"
    with open(part, "w") as f:
        for w in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                out = subprocess.run(
                    spec["command"] + ["--workload", w, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    check=True, capture_output=True, text=True, timeout=900,
                ).stdout
                res = json.loads(out.strip().splitlines()[-1])
                f.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
                f.flush()
                print(f"{path}: {w} seed {seed} done", file=sys.stderr, flush=True)
    os.replace(part, path)


def load_set(spec, path):
    """Maps (workload, metric) to the values of one set, checking every run."""
    if not os.path.exists(path):
        run_set(spec, path)
    values = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if not r["correct"] or r["failed"]:
                sys.exit(f"{path}: {r['workload']} seed {r['seed']}: "
                         f"{r['failed']} of {r['attempted']} ops failed")
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    paths = sys.argv[1:]
    if len(paths) not in (1, 2):
        sys.exit("usage: steadiness.py SET_A.jsonl [SET_B.jsonl]")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sets = [load_set(spec, p) for p in paths]
    names = "AB"[:len(sets)]

    head = ["workload", "metric", "unit"]
    for n in names:
        head += [f"set {n} median [q1, q3]", f"{n} spread"]
    if len(sets) == 2:
        head.append("B vs A (worse +)")
    head.append("bound")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))

    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            row = [w, m["name"], m["unit"]]
            meds = []
            for s in sets:
                med, q1, q3, spread = quartiles(s[(w, m["name"])])
                meds.append(med)
                row += [f"{med:.4g} [{q1:.4g}, {q3:.4g}]", f"{spread:.3f}"]
            if len(sets) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                row.append(f"{worse:+.3f}")
            row.append(str(m["bound"]))
            print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
