"""Compare a parent and a change, metric by metric and workload by workload.

    python3 perfbench/compare.py collect PARENT_TREE CHANGE_TREE OUT [--seeds N] [--workload W ...]
    python3 perfbench/compare.py verdict PARENT_DIR CHANGE_DIR

collect runs perfbench/run.py --trace 0 in both checkouts for seeds
1..N (default 10), alternating which side runs first, with the run
length from BENCHMARK.json, and writes the records to OUT/parent and
OUT/change.  verdict reads two such directories (any run.py --out
records) and prints, for each workload and end-to-end metric, each
side's median and quartiles, the pairs (same seed) the change won, and
the verdict:

  improved   the change wins at least 9/10 of the pairs, ties counting
             for neither, and the medians differ by more than the
             parent's own quartile spread;
  no worse   the change's median is not worse than the parent's by more
             than the metric's bound in BENCHMARK.json;
  regressed  it is worse by more than the bound;
  unresolved the parent's quartile spread is wider than the bound, and
             not every change run reads better than every parent run.

A workload whose change runs fail more operations than the parent's
cannot be improved on any metric.  Exit code 1 if anything regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_runs(directory):
    """{workload: {seed: record}} for the untraced records in directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def verdict(metric, parent, change, paired, more_failures):
    """parent, change: value lists; paired: (parent, change) tuples by seed."""
    sign = 1 if metric["better"] == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in paired if sign * (p - c) > 0)
    worse_by = sign * (cm - pm) / pm
    if (not more_failures and paired and wins >= 0.9 * len(paired)
            and sign * (pm - cm) > p3 - p1):
        return "improved", wins
    if (p3 - p1) / pm > metric["bound"]:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return ("no worse" if all_better else "unresolved"), wins
    return ("regressed" if worse_by > metric["bound"] else "no worse"), wins


def compare(parent_dir, change_dir):
    spec = load_spec()
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    regressed = False
    print("%-14s %-12s %-30s %-30s %-6s %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_runs.get(workload, {}), change_runs.get(workload, {})
        if not parent or not change:
            print("%-14s (missing runs: parent %d, change %d)" % (workload, len(parent), len(change)))
            continue
        rates = []
        for side in (parent, change):
            attempted = sum(r["attempted"] for r in side.values())
            rates.append(sum(r["failed"] for r in side.values()) / attempted)
        seeds = sorted(set(parent) & set(change))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent.values()]
            cv = [r["metrics"][name]["value"] for r in change.values()]
            paired = [(parent[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                      for s in seeds]
            result, wins = verdict(metric, pv, cv, paired, rates[1] > rates[0])
            regressed |= result == "regressed"
            print("%-14s %-12s %-30s %-30s %-6s %s" % (
                workload, name, summary(pv), summary(cv), "%d/%d" % (wins, len(paired)), result))
        print("%-14s %-12s %-30s %-30s" % (workload, "error_rate", "%.4g" % rates[0], "%.4g" % rates[1]))
    return 1 if regressed else 0


def collect(parent_tree, change_tree, out, seeds, workloads):
    spec = load_spec()
    names = workloads or [w["name"] for w in spec["workloads"]]
    sides = [("parent", Path(parent_tree)), ("change", Path(change_tree))]
    for seed in range(1, seeds + 1):
        for workload in names:
            order = sides if seed % 2 else sides[::-1]
            for side, tree in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                       str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
                       "--out", str((Path(out) / side).resolve())]
                print("%s seed %d %s" % (side, seed, workload), file=sys.stderr)
                subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def main():
    parser = argparse.ArgumentParser(description="parent/change comparison")
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect")
    p_collect.add_argument("parent_tree")
    p_collect.add_argument("change_tree")
    p_collect.add_argument("out")
    p_collect.add_argument("--seeds", type=int, default=10)
    p_collect.add_argument("--workload", action="append")
    p_verdict = sub.add_parser("verdict")
    p_verdict.add_argument("parent_dir")
    p_verdict.add_argument("change_dir")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args.parent_tree, args.change_tree, args.out, args.seeds, args.workload)
        return 0
    return compare(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
