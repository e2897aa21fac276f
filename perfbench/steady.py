#!/usr/bin/env python3
"""Steadiness and comparison mode of the LockDoc benchmark.

Runs the benchmark command of BENCHMARK.json on every workload in two
sets, interleaved run by run: seed after seed, one run of each set, with
the set that goes first alternating (A B, B A, A B, ...), so drift of
the machine over minutes falls on both sets alike. For each end-to-end
metric it reports each set's median, quartiles and spread (the distance
between the quartiles as a share of the median, as
`statistics.quantiles(n=4)` gives them) and labels set A against set B
"within bound", "better", "worse" or "unresolved".

    python3 perfbench/steady.py                       # two sets of this code
    python3 perfbench/steady.py --seeds 3 --repeat 10 # spread of one seed
    python3 perfbench/steady.py --against ../base     # this code vs another
    python3 perfbench/steady.py --record perfbench/baseline.json
    python3 perfbench/steady.py --trace 1 --against ../base  # per-layer

Set A is always the code of this checkout. Set B is the same code, or
with --against the checkout of the code to compare with (for example
the parent revision). Each checkout builds into its own `.bench_build`.
Run it from the root of the repository; it exits 1 if a spread (other
than that of `setup_s`) or the move between the sets exceeds a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(bench, tree, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}) in {tree}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: {workload} seed {seed}: outputs not correct")
    stamps = [l[len("stamp "):] for l in lines if l.startswith("stamp ")]
    result["stamp"] = json.loads(stamps[0]) if stamps else None
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, new, old):
    """Signed relative change, positive when `new` is worse than `old`."""
    delta = (new - old) / old
    return delta if metric["better"] == "lower" else -delta


def label(metric, base_runs, fresh_runs):
    """Labels the fresh set against the base set. Runs pair up by
    position (same seed, run back to back). "better" needs the fresh side
    to win nine pairs in ten and its median to differ by more than the
    base set's spread; a spread above the bound leaves it "unresolved"."""
    base, fresh = summarize(base_runs), summarize(fresh_runs)
    change = worse_by(metric, fresh["median"], base["median"])
    wins = sum(worse_by(metric, f, b) < 0 for f, b in zip(fresh_runs, base_runs))
    if change < -base["spread"] and wins >= 0.9 * len(base_runs):
        return change, "better"
    if max(base["spread"], fresh["spread"]) > metric["bound"]:
        return change, "unresolved"
    if change > metric["bound"]:
        return change, "worse"
    return change, "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per seed and set")
    ap.add_argument("--against", help="checkout whose code set B runs")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record", help="write set A as the baseline file")
    args = ap.parse_args()

    with open(BENCH) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    trees = {"A": ".", "B": args.against or "."}
    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]

    runs = {"A": {}, "B": {}}  # set -> workload -> [result]
    for w in workloads:
        for i, seed in enumerate(seeds):
            for side in ("AB" if i % 2 == 0 else "BA"):
                r = run_one(bench, trees[side], w, seed, args.trace)
                runs[side].setdefault(w, []).append(r)
                print(f"{w} seed {seed} set {side}: ok", file=sys.stderr)

    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "repeat": args.repeat, "metrics": {}, "stamps": {}}
    failed = False
    for w in workloads:
        print(f"\n== {w}")
        record["stamps"][w] = runs["A"][w][0].get("stamp")
        for m in metrics:
            name = m["name"]
            va, vb = ([r["metrics"][name]["value"] for r in runs[s][w]]
                      for s in "AB")
            a, b = summarize(va), summarize(vb)
            line = (f"  {name:28} {a['median']:12.6g} {m['unit']:6} "
                    f"q1 {a['q1']:.6g} q3 {a['q3']:.6g} n {a['n']} "
                    f"spread {a['spread']:.3f} | B {b['median']:.6g} "
                    f"spread {b['spread']:.3f}")
            bound = m.get("bound")
            if bound is not None:
                change, verdict = label(m, vb, va)
                line += f" | A vs B {change:+.3f} {verdict} (bound {bound})"
                # Set-up time is held only to its move between the sets.
                noisy = max(a["spread"], b["spread"]) > bound
                failed |= abs(change) > bound or (noisy and name != "setup_s")
            print(line)
            record["metrics"].setdefault(w, {})[name] = {
                k: a[k] for k in ("median", "q1", "q3", "n", "spread")}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
