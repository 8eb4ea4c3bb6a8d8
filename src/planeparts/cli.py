"""Command-line front end.

Subcommands: gf (product generating functions), count (brute-force
counting oracles), asym (growth parameters and estimates), verify (the
summation-identity battery), table (exact counts beside estimates).

Coefficients are printed as decimal strings in json and csv output so
that values beyond 2^53 survive the trip; asym prints psi values and
estimates past the float range as mantissa-and-exponent strings.  Exit
codes: 0 on success, 1 when a verification case fails, 2 on usage errors,
3 on an internal error (any other exception, reported on stderr; running
out of memory is reported as one constant line).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

from . import asymptotics, counting, schur, series
from .profiles import (
    multiset_w1,
    multiset_w2,
    multiset_w3,
    multiset_w4,
    multiset_w5,
    parse_profile,
)


class Family(NamedTuple):
    """The routes of one family; None where the family has no such route.

    The lambdas look their targets up when called, so a function rebound
    in its module (by a tracer or a profiler) is the one that runs.
    """

    gf: Callable  # (profile, order) -> TruncatedSeries
    multisets: Optional[Callable] = None  # profile -> the multisets gf --format json prints
    count: Optional[Callable] = None  # (profile, order) -> TruncatedSeries
    params: Optional[Callable] = None  # profile -> AsymptoticParams


FAMILIES = {
    "dspp": Family(
        lambda delta, order: series.dspp_gf(delta, order),
        lambda delta: (multiset_w1(delta), multiset_w2(delta)),
        lambda delta, order: counting.count_dspp(delta, order),
        lambda delta: asymptotics.dspp_params(delta),
    ),
    "cp": Family(
        lambda delta, order: series.cp_gf(delta, order),
        lambda delta: (multiset_w3(delta),),
        lambda delta, order: counting.count_cp(delta, order),
    ),
    "scp": Family(
        lambda delta, order: series.scp_gf(delta, order),
        lambda delta: (multiset_w4(delta), multiset_w5(delta)),
        lambda delta, order: counting.count_scp(delta, order),
        lambda delta: asymptotics.scp_params(delta),
    ),
    "pp": Family(lambda delta, order: series.classical_gf("pp", order)),
    "shiftpp": Family(lambda delta, order: series.classical_gf("shiftpp", order)),
    "sympp": Family(lambda delta, order: series.classical_gf("sympp", order)),
}
GF_FAMILIES = tuple(FAMILIES)
COUNT_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.count)
ASYM_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.params)


def _emit_vector(meta, values, fmt, out):
    if fmt == "json":
        payload = dict(meta)
        payload["coefficients"] = [str(v) for v in values]
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif fmt == "csv":
        out.write("index,coefficient\n")
        for n, v in enumerate(values):
            out.write("%d,%s\n" % (n, v))
    else:
        out.write(",".join(str(v) for v in values) + "\n")


def cmd_gf(args, out):
    delta = parse_profile(args.profile)
    family = FAMILIES[args.family]
    values = family.gf(delta, args.order).coeffs
    meta = {"command": "gf", "family": args.family, "order": args.order}
    if family.multisets is not None:
        meta["profile"] = delta.text
        meta["multisets"] = [em.to_json() for em in family.multisets(delta)]
    _emit_vector(meta, values, args.format, out)
    return 0


def cmd_count(args, out):
    delta = parse_profile(args.profile)
    values = FAMILIES[args.family].count(delta, args.order).coeffs
    meta = {"command": "count", "family": args.family, "profile": delta.text, "order": args.order}
    _emit_vector(meta, values, args.format, out)
    return 0


def _exp_text(log_x):
    """exp(log_x) as the decimal string 'm.mmmmmmmmmmmme+E' or 'm.mmmmmmmmmmmme-E'."""
    log10 = log_x / math.log(10)
    exponent = math.floor(log10)
    mantissa = round(10 ** (log10 - exponent), 12)
    if mantissa >= 10:
        mantissa, exponent = mantissa / 10, exponent + 1
    return "%.12fe%+d" % (mantissa, exponent)


def _psi_values(params, n):
    """psi_n and its integer part; past the normal float range psi_n is a
    string from _exp_text, and so is its integer part above that range."""
    try:
        psi = asymptotics.psi_eval(params, n)
        if asymptotics.is_normal(psi):
            return psi, asymptotics.psi_table_value(params, n)
    except OverflowError:
        pass
    try:
        text = _exp_text(asymptotics.log_psi(params, n))
    except OverflowError:
        raise ValueError("n = %d is too large: log psi_n is past the float range" % n) from None
    return text, text if "e+" in text else 0


def cmd_asym(args, out):
    if args.m is not None:
        if args.family != "dspp":
            raise ValueError("--m selects the staircase profile and applies to dspp only")
        if args.m < 2:
            raise ValueError("--m must be >= 2")
        delta = parse_profile("-" * (args.m - 1))
    else:
        delta = parse_profile(args.profile)
    params = FAMILIES[args.family].params(delta)
    v = params.v if asymptotics.is_normal(params.v) else _exp_text(params.log_v)
    payload = {
        "command": "asym",
        "family": args.family,
        "profile": delta.text,
        "params": {"v": v, "r": params.r, "b": params.b, "p": params.p},
    }
    if args.n:
        values = {str(n): _psi_values(params, n) for n in args.n}
        payload["psi"] = {n: psi for n, (psi, _) in values.items()}
        payload["estimates"] = {n: estimate for n, (_, estimate) in values.items()}
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def cmd_verify(args, out):
    reports = schur.run_battery(
        max_len=args.max_len, order=args.order, inject_fault=args.inject_fault
    )
    failures = 0
    for report in reports:
        out.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
        if not report.passed:
            failures += 1
    out.write(
        json.dumps({"command": "verify", "cases": len(reports), "failures": failures}, sort_keys=True)
        + "\n"
    )
    return 1 if failures else 0


TABLE_ROWS = (("dspp", "++"), ("scp", "--"))


def _table_estimate(params, n):
    try:
        return asymptotics.psi_table_value(params, n)
    except OverflowError:
        raise ValueError("n = %d is too large: psi_n is past the float range" % n) from None


def cmd_table(args, out):
    ns = args.n or [5, 10, 15, 20]
    if any(n < 1 for n in ns):
        raise ValueError("table entries need n >= 1")
    order = max(ns)
    # the estimates first: an n past the float range is refused before
    # any product is expanded
    estimates = [
        [_table_estimate(FAMILIES[family].params(parse_profile(text)), n) for n in ns]
        for family, text in TABLE_ROWS
    ]
    rows = []
    for (family, profile_text), estimate in zip(TABLE_ROWS, estimates):
        gf = FAMILIES[family].gf(parse_profile(profile_text), order)
        rows.append(
            {
                "family": family,
                "profile": profile_text,
                "n": list(ns),
                "exact": [str(gf[n]) for n in ns],
                "estimate": estimate,
            }
        )
    if args.format == "json":
        out.write(json.dumps({"command": "table", "rows": rows}, sort_keys=True) + "\n")
    elif args.format == "csv":
        out.write("family,profile,n,exact,estimate\n")
        for row in rows:
            for i, n in enumerate(row["n"]):
                out.write(
                    "%s,%s,%d,%s,%d\n"
                    % (row["family"], row["profile"], n, row["exact"][i], row["estimate"][i])
                )
    else:
        header = ["%-6s %-8s %-9s" % ("family", "profile", "")] + ["%10s" % ("n=%d" % n) for n in ns]
        out.write("".join(header) + "\n")
        for row in rows:
            exact = ["%10s" % v for v in row["exact"]]
            est = ["%10d" % v for v in row["estimate"]]
            out.write("%-6s %-8s %-9s" % (row["family"], row["profile"], "exact") + "".join(exact) + "\n")
            out.write("%-6s %-8s %-9s" % (row["family"], row["profile"], "estimate") + "".join(est) + "\n")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: each parse_args returns a
    fresh Namespace, and no command mutates a default it reads from it."""
    parser = argparse.ArgumentParser(
        prog="planeparts",
        description="Exact enumeration, product expansions, identity checks and "
        "asymptotics for staircase-region plane partition families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gf = sub.add_parser("gf", help="expand a product generating function")
    p_gf.add_argument("--family", required=True, choices=GF_FAMILIES)
    p_gf.add_argument("--profile", default="", help="profile as a '+-' string (quoted '' = empty)")
    p_gf.add_argument("--order", type=int, required=True)
    p_gf.add_argument("--format", default="text", choices=("json", "csv", "text"))
    p_gf.set_defaults(func=cmd_gf)

    p_count = sub.add_parser("count", help="count objects by brute-force transfer")
    p_count.add_argument("--family", required=True, choices=COUNT_FAMILIES)
    p_count.add_argument("--profile", default="")
    p_count.add_argument("--order", type=int, required=True)
    p_count.add_argument("--format", default="text", choices=("json", "csv", "text"))
    p_count.set_defaults(func=cmd_count)

    p_asym = sub.add_parser("asym", help="growth parameters and estimates")
    p_asym.add_argument("--family", required=True, choices=ASYM_FAMILIES)
    p_asym.add_argument("--profile", default="")
    p_asym.add_argument("--m", type=int, default=None, help="width m: use the staircase profile of length m-1")
    p_asym.add_argument("--n", type=int, nargs="*", default=[])
    p_asym.set_defaults(func=cmd_asym)

    p_verify = sub.add_parser("verify", help="run the summation-identity battery")
    p_verify.add_argument("--max-len", type=int, default=3, dest="max_len")
    p_verify.add_argument("--order", type=int, default=8)
    p_verify.add_argument("--inject-fault", type=int, default=None, help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="exact counts beside growth estimates")
    p_table.add_argument("--n", type=int, nargs="*", default=[])
    p_table.add_argument("--format", default="text", choices=("json", "csv", "text"))
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse silently drops a value that is exactly '--' (the
    # end-of-options marker), which is also a valid profile; rewrite it
    # to the equivalent comma form before parsing.
    argv = ["--profile=-1,-1" if tok == "--profile=--" else tok for tok in argv]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the traceback (and that of any exception it was raised while
        # handling) holds the frames, and through them the data that
        # filled memory: drop both before anything else is allocated
        exc.__traceback__ = exc.__context__ = None
        print("internal error: out of memory", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 is reserved for a failed verification
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
