"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py [--seeds N] [--traced-seeds M] [--workload W ...]
                                [--out DIR]

For seeds 1..N (default 1) runs perfbench/run.py --trace 0, and for
seeds 1..M (default N) --trace 1, on each workload, with the run length
from BENCHMARK.json, keeping the
records in DIR/runs (default .perfbench-results).  Prints each
end-to-end metric (median and quartiles over the seeds), error_rate and
each per-layer metric by name with its unit, then writes:

  DIR/layer_mix.md   per-layer self-time shares of each workload's traced
                     runs: the measured layer mix later changes cite;
  DIR/summary.json   the same numbers with the environment (commit,
                     Python, nproc), in the form of perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run(workload, seed, trace, seconds, runs_dir):
    path = runs_dir / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(runs_dir)]
    print("running %s seed %d trace %d" % (workload, seed, trace), file=sys.stderr)
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(path.read_text())


def environment():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main():
    parser = argparse.ArgumentParser(description="print every metric of every workload")
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--traced-seeds", type=int)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-results")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs_dir = args.out / "runs"
    summary = {"environment": environment(), "run_seconds": spec["run_seconds"],
               "seeds": list(range(1, args.seeds + 1)),
               "traced_seeds": list(range(1, (args.traced_seeds or args.seeds) + 1)),
               "workloads": {}}
    for workload in names:
        seconds = spec["run_seconds"]
        plain = [run(workload, s, 0, seconds, runs_dir) for s in summary["seeds"]]
        traced = [run(workload, s, 1, seconds, runs_dir) for s in summary["traced_seeds"]]
        attempted = sum(r["attempted"] for r in plain + traced)
        failed = sum(r["failed"] for r in plain + traced)
        entry = {"end_to_end": {}, "error_rate": failed / attempted, "per_layer": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            entry["end_to_end"][metric["name"]] = dict(quartiles(values), unit=metric["unit"])
        for metric in spec["per_layer"]:
            values = [r["metrics"][metric["name"]]["value"] for r in traced]
            entry["per_layer"][metric["name"]] = {"value": statistics.median(values),
                                                  "unit": metric["unit"]}
        entry["layer_mix"] = {layer: entry["per_layer"][layer + ".share"]["value"]
                              for layer in LAYERS}
        summary["workloads"][workload] = entry

        print("== %s (%d seeds untraced, %d traced)" % (workload, len(plain), len(traced)))
        for name, m in entry["end_to_end"].items():
            print("  %-26s %12.6g %-8s [q1 %.6g, q3 %.6g]" % (name, m["median"], m["unit"],
                                                              m["q1"], m["q3"]))
        print("  %-26s %12.6g %-8s (%d of %d operations failed)" % (
            "error_rate", entry["error_rate"], "fraction", failed, attempted))
        for name, m in entry["per_layer"].items():
            print("  %-26s %12.6g %s" % (name, m["value"], m["unit"]))

    lines = ["| workload | " + " | ".join(LAYERS) + " |",
             "| --- |" + " --- |" * len(LAYERS)]
    for workload, entry in summary["workloads"].items():
        lines.append("| %s | " % workload + " | ".join(
            "%.1f%%" % (100 * entry["layer_mix"][layer]) for layer in LAYERS) + " |")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "layer_mix.md").write_text(
        "Self-time share of each layer in the traced runs (%s, Python %s, nproc %s).\n\n"
        % (summary["environment"]["commit"][:12], summary["environment"]["python"],
           summary["environment"]["nproc"]) + "\n".join(lines) + "\n")
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("\n".join(lines))
    print("wrote %s and %s" % (args.out / "layer_mix.md", args.out / "summary.json"),
          file=sys.stderr)


if __name__ == "__main__":
    main()
