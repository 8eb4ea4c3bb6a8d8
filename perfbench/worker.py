"""One batch of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED [--frozen] [--trace] [--fault K]

SPAWNED is time.monotonic() in the parent just before it started this
process, so set-up time includes interpreter start.  A fresh interpreter
per batch means the lru_caches in planeparts start empty, as they do for
every user invocation.  With --fault K, operation K's output is corrupted
before its check (the failure-path self-test uses this).  With --frozen
the batch runs on perfbench/frozen/planeparts, the program as it was when
the benchmark was defined, instead of src/planeparts.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--frozen", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fault", type=int, default=None)
    parser.add_argument("--spans", type=Path, help="with --trace, write the spans here")
    args = parser.parse_args()

    source_dir = HERE / "frozen" if args.frozen else ROOT / "src"
    import_start = time.perf_counter()
    sys.path.insert(0, str(source_dir))
    import planeparts

    import_s = time.perf_counter() - import_start
    source = Path(planeparts.__file__).resolve()
    if source_dir not in source.parents:
        sys.exit("planeparts was imported from %s, not from %s" % (source, source_dir))

    import workloads

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(planeparts)
    call = tracer.span if tracer else (lambda fn: fn())

    clock = time.perf_counter
    setup_s = time.monotonic() - args.spawned
    wall_s = 0.0
    failures = []
    groups = dict.fromkeys(sorted(set(workloads.SCHUR_GROUPS.values())), 0.0)
    factors = out_bits = 0
    for idx, op in enumerate(ops):
        start = clock()
        try:
            out = call(op.run)
        except Exception:
            wall_s += clock() - start
            failures.append({"op": op.label, "error": traceback.format_exc(limit=3)})
            continue
        elapsed = clock() - start
        wall_s += elapsed
        if isinstance(out, planeparts.IdentityReport):
            groups[workloads.SCHUR_GROUPS[out.name]] += elapsed
        if tracer and op.factors:
            factors += op.factors
            out_bits += sum(c.bit_length() for c in out[0])
        try:
            error = None if op.check(out, idx == args.fault) else "output differs from its reference"
        except Exception:
            error = traceback.format_exc(limit=3)
        if error:
            failures.append({"op": op.label, "error": error})

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "frozen": args.frozen,
        "traced": args.trace,
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "schur_groups_s": groups,
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"].update(factors=factors, out_bits=out_bits)
        if args.spans:
            with open(args.spans, "w") as fh:
                fh.write("# layer start_s end_s parent_index\n")
                fh.writelines("%s %.9f %.9f %d\n" % span for span in tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
