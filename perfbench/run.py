"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a planeparts checkout.  Each batch runs in a fresh
interpreter (perfbench/worker.py), one after another, with no threads and
no concurrent processes.  Every batch of a run gets the same
seed-generated inputs.  Batches come in pairs, started until the next
pair would end after S seconds, with at least MIN_PAIRS pairs.  No
batch runs past RUN_LIMIT_S after the start; a pair that cannot finish
by then is dropped and the finished ones are reported, so a program
many times slower still gets figures.

--trace 0 pairs a batch on src/planeparts with the same batch on
perfbench/frozen/planeparts, the program at FROZEN_COMMIT, when the
benchmark was defined.  The copy is kept in the benchmark's directory
because the benchmark must run in a tree without git history; a run
refuses to start if its digest is not FROZEN_SHA256.  The speed of the machine this runs on drifts by up to
1.7x within minutes, which no run length here averages out; both
members of a pair see the same drift, so their ratio does not.  It
prints the end-to-end metrics:

  wall_s       first call into planeparts to the return of the last,
               output checks excluded: the median over pairs of
               current / frozen, times FROZEN_WALL_S, the frozen
               program's median at the baseline.  So it reads as seconds
               at the machine speed of perfbench/baseline.json.
  setup_s      process spawn to the first timed call (interpreter start,
               imports, input generation, references), scaled the same
               way by FROZEN_SETUP_S.
  peak_rss_mb  median ru_maxrss of the current program's batches.

--trace 1 pairs an untraced batch with a traced one, both on src/, and
prints the per-layer metrics of the traced ones (see tracing.py), plus
setup.import_s and trace.overhead_s (traced minus untraced wall time).

Before it, a stdout line gives the number of pairs the medians rest on.
The last stdout line is one JSON object with correct, attempted, failed
and metrics.  An operation fails when it raises or its output does not
match its reference; error_rate = failed / attempted.  --out DIR also
writes the run's per-batch record there, raw times included, for
compare.py and report.py, and with --trace 1 the spans of the last
traced batch.
"""

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("series_sparse", "series_dense", "oracle", "battery")
MIN_PAIRS = 3
RUN_LIMIT_S = 165  # no batch runs past this, whatever --seconds says
FROZEN_DIR = HERE / "frozen" / "planeparts"
FROZEN_COMMIT = "aa136b8bd3837fd86159faf00824012bd54e38cd"  # src/planeparts there
FROZEN_SHA256 = "49118ec00ee9065288adde1617d720701fe5a2a99f29c9ebbd5098afda698096"
# About the frozen program's median batch wall and set-up times when the
# benchmark was defined (2-vCPU KVM guest, Xeon, Python 3.11.7).  They only
# fix the scale of wall_s and setup_s.
FROZEN_WALL_S = {"series_sparse": 1.72, "series_dense": 1.48, "oracle": 2.3,
                 "battery": 3.06}
FROZEN_SETUP_S = {"series_sparse": 0.146, "series_dense": 0.128, "oracle": 0.128,
                  "battery": 0.168}


def frozen_digest():
    digest = hashlib.sha256()
    for path in sorted(FROZEN_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def end_to_end_metrics(workload, current, frozen):
    def paired(key):
        return statistics.median(c[key] / f[key] for c, f in zip(current, frozen))

    return {
        "wall_s": (paired("wall_s") * FROZEN_WALL_S[workload], "s"),
        "setup_s": (paired("setup_s") * FROZEN_SETUP_S[workload], "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in current), "MB"),
    }


def per_layer_metrics(plain, traced):
    def med(get):
        return statistics.median(get(b) for b in traced)

    wall = med(lambda b: b["wall_s"])
    metrics = {}
    for layer in LAYERS:
        self_s = med(lambda b: b["trace"]["self_s"][layer])
        metrics[layer + ".self_s"] = (self_s, "s")
        metrics[layer + ".calls"] = (med(lambda b: b["trace"]["calls"][layer]), "count")
        metrics[layer + ".share"] = (self_s / wall, "fraction")
    metrics["series.factors"] = (med(lambda b: b["trace"]["factors"]), "count")
    metrics["series.out_bits"] = (med(lambda b: b["trace"]["out_bits"]), "bit")
    for layer in ("partitions", "schur"):
        metrics[layer + ".cache_entries"] = (
            med(lambda b: b["trace"]["caches"][layer]["entries"]), "count")
        metrics[layer + ".cache_hit_ratio"] = (
            med(lambda b: b["trace"]["caches"][layer]["hit_ratio"]), "fraction")
    for group in traced[0]["schur_groups_s"]:
        metrics["schur.%s_s" % group] = (med(lambda b: b["schur_groups_s"][group]), "s")
    metrics["setup.import_s"] = (statistics.median(b["import_s"] for b in plain), "s")
    plain_wall = statistics.median(b["wall_s"] for b in plain)
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    return metrics


def run_batch(workload, seed, flags, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)] + flags
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("batch exited with code %d" % proc.returncode)
    batch = json.loads(proc.stdout.splitlines()[-1])
    batch["process_s"] = time.monotonic() - spawned
    return batch


def measure(workload, seed, seconds, second_flags):
    """Pairs of (current, second) batches; second_flags picks the second kind."""
    start = time.monotonic()
    current, second = [], []
    while True:
        elapsed = time.monotonic() - start
        if len(second) == len(current) >= 1:
            pair_s = 2 * statistics.median(b["process_s"] for b in current + second)
            if elapsed + pair_s > (seconds if len(current) >= MIN_PAIRS else RUN_LIMIT_S):
                break
        # Pair k runs current first when k is even and second first when k
        # is odd, so that a drift during the run favours neither side.
        if len(current) == len(second):
            use_second = len(current) % 2 == 1
        else:
            use_second = len(second) < len(current)
        flags = second_flags if use_second else []
        try:
            batch = run_batch(workload, seed, flags, RUN_LIMIT_S - elapsed)
        except subprocess.TimeoutExpired:
            if min(len(current), len(second)) == 0:
                raise
            break
        (second if use_second else current).append(batch)
    pairs = min(len(current), len(second))  # drop a pair cut by RUN_LIMIT_S
    return current[:pairs], second[:pairs]


def main(argv=None):
    parser = argparse.ArgumentParser(description="planeparts benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the per-batch record")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that the running batch is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))

    if not (ROOT / "src" / "planeparts" / "__init__.py").is_file():
        sys.exit("no planeparts source under %s; run from the root of a checkout" % ROOT)
    if frozen_digest() != FROZEN_SHA256:
        sys.exit("%s is not src/planeparts at %s; restore it from git" % (FROZEN_DIR, FROZEN_COMMIT))
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    second_flags = ["--frozen"]
    if args.trace:
        second_flags = ["--trace"]
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        if args.trace:
            second_flags += ["--spans", str((args.out / (name + ".spans")).resolve())]
    try:
        current, second = measure(args.workload, args.seed, args.seconds, second_flags)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.exit("benchmark batch failed: %s" % exc)

    batches = current + second
    tested = batches if args.trace else current  # the frozen program is not under test
    attempted = sum(b["attempted"] for b in tested)
    failed = sum(b["failed"] for b in tested)
    if args.trace:
        metrics = per_layer_metrics(current, second)
    else:
        metrics = end_to_end_metrics(args.workload, current, second)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, pairs=len(current), batches=batches)
        (args.out / (name + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    for batch in tested:
        for failure in batch["failures"]:
            print("FAILED %s: %s" % (failure["op"], failure["error"]), file=sys.stderr)
    print("pairs: %d (current vs %s)" % (len(current), "traced" if args.trace else "frozen"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
