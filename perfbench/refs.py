"""Write the reference digests of the series workloads' pools.

    python3 perfbench/refs.py [--force]

For every (family, profile, order) that series_sparse or series_dense
can draw, stores sha256 over the decimal coefficients in
perfbench/references.json, with the commit they were computed at.  Run
it once, at a commit whose outputs are trusted; the benchmark then
checks every later commit against these digests.  Each (family,
profile) is expanded once at the pool's largest order and every smaller
order is digested from that prefix, since a truncated product's first
N + 1 coefficients do not depend on the truncation.  Existing references
are never overwritten unless --force is given.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import planeparts  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--force", action="store_true", help="replace existing references")
    args = parser.parse_args()
    if workloads.REFERENCES.exists() and not args.force:
        sys.exit("%s exists; pass --force to replace it" % workloads.REFERENCES)

    wanted = {}
    for family, text, order in workloads.reference_pool():
        wanted.setdefault((family, text), []).append(order)
    digests = {}
    for (family, text), orders in sorted(wanted.items()):
        top = max(orders)
        if text:
            gf = getattr(planeparts, family + "_gf")(planeparts.parse_profile(text), top)
        else:
            gf = planeparts.classical_gf(family, top)
        for order in orders:
            key = workloads.reference_key(family, text, order)
            digests[key] = workloads.digest(gf.coeffs[: order + 1])
        print("%s %s" % (family, text or "-"), file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    partial = workloads.REFERENCES.with_suffix(".tmp")
    with open(partial, "w") as fh:
        json.dump({"commit": commit or "unknown", "digests": digests}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    os.replace(partial, workloads.REFERENCES)


if __name__ == "__main__":
    main()
