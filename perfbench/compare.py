#!/usr/bin/env python3
"""Collect sets of benchmark runs, and compare two sets.

    # ten seeds of every workload (or --workloads compile,tune), one file
    python3 perfbench/compare.py collect --out base.jsonl --seeds 1-10

    # each workload's median, quartiles and spread (IQR / median) per metric
    python3 perfbench/compare.py spread base.jsonl

    # parent against change
    python3 perfbench/compare.py compare base.jsonl change.jsonl

`collect` runs the command of BENCHMARK.json with --record, seed by seed and
workload by workload.  To measure a parent and a change, run `collect` with
one seed at a time in each checkout, alternating which goes first, appending
to one file per side.

`compare` pairs the i-th run of a workload on each side and prints, per
workload and end-to-end metric, both sides' median and quartiles, the share
of pairs the change wins (ties count for neither side), and a verdict:
  improved     the change wins at least 9 of 10 pairs and the medians differ
               by more than the parent's own interquartile range;
  no worse     the change's median is within the metric's bound of the
               parent's;
  unresolved   the spread of either side is wider than the bound, unless
               every change run beats every parent run;
  worse        otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """{workload: [end-to-end metrics dict, ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            if not rec["result"]["correct"]:
                print(f"warning: {path}: {rec['workload']} seed {rec['seed']} "
                      f"was not correct", file=sys.stderr)
            runs.setdefault(rec["workload"], []).append(
                {k: v["value"] for k, v in rec["result"]["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cmd_collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
                "--record", os.path.abspath(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["<no result>"]
            print(f"{w} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                  flush=True)
            if proc.returncode != 0:
                sys.exit(proc.returncode)


def cmd_spread(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for path in args.files:
        for w, runs in load_runs(path).items():
            print(f"{path} {w} ({len(runs)} runs)")
            for name in runs[0]:
                vals = [r[name] for r in runs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    worst = max(worst, spread / bound)
                    flag = "ok" if spread <= bound / 3 else (
                        "WITHIN BOUND" if spread <= bound else "TOO WIDE")
                print(f"  {name:16s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  spread {spread:7.4f}  "
                      f"bound {bound}  {flag}")
    print(f"largest spread / bound: {worst:.3f}")


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_runs(args.base), load_runs(args.change)
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in new:
            print(f"{w}: missing on one side")
            continue
        print(f"{w}: {len(base[w])} parent runs, {len(new[w])} change runs")
        for name, m in metrics.items():
            b = [r[name] for r in base[w]]
            c = [r[name] for r in new[w]]
            lower = m["better"] == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = list(zip(b, c))
            wins = sum(better(y, x) for x, y in pairs)
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            bound = m["bound"]
            worse_by = ((cmed - bmed) / bmed if lower else
                        (bmed - cmed) / bmed) if bmed else 0.0
            spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                         (cq3 - cq1) / cmed if cmed else 0.0)
            all_better = all(better(y, x) for x in b for y in c)
            if (pairs and wins >= 0.9 * len(pairs) and better(cmed, bmed)
                    and abs(cmed - bmed) > (bq3 - bq1)):
                verdict = "improved"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse_by <= bound:
                verdict = "no worse"
            else:
                verdict = "worse"
            print(f"  {name:16s} parent {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"change {cmed:12.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"wins {wins}/{len(pairs)}  worse by {worse_by:+.4f} "
                  f"(bound {bound})  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads")
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("change")
    args = ap.parse_args()
    {"collect": cmd_collect, "spread": cmd_spread,
     "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
