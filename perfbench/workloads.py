"""The four workloads: seed -> operations, each with its exactness check.

An operation is one user-level request: run() calls into planeparts and
returns its output; check(output, fault) compares the output with a
route that does not go through the timed code.  With fault set, check
first corrupts the output by one unit, the way the failure-path
self-test needs.

Pools are narrow on purpose.  A seed changes which profiles, orders and
alphabets run and in what order, but every batch draws the same number
of operations from each cost class (family, profile length, order), so
that two seeds cost about the same and the spread across seeds stays
well inside the bounds in BENCHMARK.json.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import planeparts
from planeparts import cli, schur
from planeparts.profiles import all_profiles, profiles_up_to

REFERENCES = Path(__file__).resolve().parent / "references.json"

SPARSE_FAMILIES = ("dspp", "cp", "scp")
SPARSE_LENGTHS = (2, 3, 4, 5)
SPARSE_ORDERS = (1400, 1450, 1500, 1550)
DENSE_ORDERS = {
    "pp": (236, 238, 240, 242, 244),
    "shiftpp": (354, 357, 360, 363, 366),
    "sympp": (708, 714, 720, 726, 732),
}
ORACLE_ORDERS = {"dspp": (17, 18, 19), "cp": (13, 14, 15), "scp": (19, 20, 21)}
BATTERY_ORDERS = (9, 10)
# Drawn summation checks per (profile length, kind, endpoints) and order:
# that many use single-letter alphabets (the horizontal-strip branch),
# that many put a two-letter alphabet on one diagonal (_skew_coeffs).
BATTERY_SINGLE_CHECKS = 3
BATTERY_PAIR_CHECKS = 1
BATTERY_SINGLE = (1, 2, 3)
BATTERY_PAIRS = ((1, 1), (1, 2), (2, 3))
# a_N / psi_N tends to 1 like N^(-1/2), so sqrt(N) |log(a_N / psi_N)| stays
# bounded; over the whole pool its largest value is 3.56 (scp -----, N=1400-2050).
PSI_SCALED_TOLERANCE = 5.0

SCHUR_GROUPS = {
    "complete": "complete",
    "cylindric": "cylindric",
    "open": "open",
    "lemma_s1": "lemma",
    "lemma_s2": "lemma",
    "p93A": "macdonald",
    "p93B": "macdonald",
    "p94A": "macdonald",
}


class Op:
    """factors: the number of 1/(1-z^e) factors with e <= N a series op expands."""

    __slots__ = ("label", "run", "check", "factors")

    def __init__(self, label, run, check, factors=0):
        self.label = label
        self.run = run
        self.check = check
        self.factors = factors


def spec_factors(spec, order):
    return sum(m * ((order - y) // x + 1) for x, y, m in spec.factors if y <= order)


def classical_factors(kind, order):
    """Factor count of the classical products, from their exponent sets."""
    if kind == "pp":  # exponent k with multiplicity k
        return order * (order + 1) // 2
    if kind == "shiftpp":  # every k, then i + j over 1 <= i < j
        return order + sum(order - 2 * i for i in range(1, (order - 1) // 2 + 1))
    half = order // 2  # sympp: odd 2k - 1, then 2(i + j - 1) over 1 <= i < j
    return (order + 1) // 2 + sum(half + 1 - 2 * i for i in range(1, half // 2 + 1))


def digest(coeffs):
    """sha256 over the decimal coefficients, comma-joined."""
    return hashlib.sha256(",".join(str(c) for c in coeffs).encode()).hexdigest()


def reference_key(family, profile_text, order):
    return "%s|%s|%d" % (family, profile_text, order)


def reference_pool():
    """Every (family, profile text, order) a series workload can draw."""
    keys = []
    for family in SPARSE_FAMILIES:
        for length in SPARSE_LENGTHS:
            for delta in all_profiles(length):
                keys.extend((family, delta.text, n) for n in SPARSE_ORDERS)
    for kind, orders in DENSE_ORDERS.items():
        keys.extend((kind, "", n) for n in orders)
    return keys


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)["digests"]


def _bump(coeffs, fault):
    coeffs = tuple(coeffs)
    return (coeffs[0] + 1,) + coeffs[1:] if fault else coeffs


def _digest_check(refs, key):
    expected = refs.get(key)
    if expected is None:
        raise KeyError("no reference digest for %s; run perfbench/refs.py" % key)

    def check(out, fault):
        return digest(_bump(out[0], fault)) == expected

    return check


def _params_agree(a, b):
    return all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12) for x, y in zip(
        (a.v, a.r, a.b, a.p), (b.v, b.r, b.b, b.p)))


def _sparse_op(refs, family, delta, order):
    gf = getattr(planeparts, family + "_gf")
    expected = _digest_check(refs, reference_key(family, delta.text, order))
    spec = getattr(planeparts, family + "_product_spec")
    label = "%s %s N=%d" % (family, delta.text, order)
    factors = spec_factors(spec(delta), order)
    if family == "cp":
        return Op(label, lambda: (gf(delta, order).coeffs,), expected, factors)
    closed = getattr(planeparts, family + "_params")

    def run():
        coeffs = gf(delta, order).coeffs
        params = closed(delta)
        ribbon = planeparts.ribbon_params(spec(delta))
        return coeffs, params, ribbon, planeparts.psi_eval(params, order)

    def check(out, fault):
        coeffs, params, ribbon, psi = out
        return (expected(out, fault) and _params_agree(params, ribbon)
                and math.sqrt(order) * abs(math.log(coeffs[order]) - math.log(psi))
                < PSI_SCALED_TOLERANCE)

    return Op(label, run, check, factors)


def series_sparse(rng, refs):
    ops = []
    for family in SPARSE_FAMILIES:
        orders = rng.sample(SPARSE_ORDERS, len(SPARSE_ORDERS))
        for length, order in zip(SPARSE_LENGTHS, orders):
            ops.append(_sparse_op(refs, family, rng.choice(all_profiles(length)), order))
    rng.shuffle(ops)
    return ops


def series_dense(rng, refs):
    ops = []
    for kind, orders in DENSE_ORDERS.items():
        order = rng.choice(orders)
        ops.append(Op("%s N=%d" % (kind, order),
                      lambda k=kind, n=order: (planeparts.classical_gf(k, n).coeffs,),
                      _digest_check(refs, reference_key(kind, "", order)),
                      classical_factors(kind, order)))
    rng.shuffle(ops)
    return ops


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("planeparts %s exited with %d" % (" ".join(argv), code))
    return buf.getvalue()


def _oracle_op(family, delta, order):
    args = ["--family", family, "--profile=" + delta.text, "--order", str(order), "--format", "json"]

    def run():
        return _cli_json(["count"] + args), _cli_json(["gf"] + args)

    def check(out, fault):
        counted, product = (json.loads(text)["coefficients"] for text in out)
        counted = [str(c) for c in _bump((int(c) for c in counted), fault)]
        return len(counted) == order + 1 and counted == product

    return Op("%s %s n=%d" % (family, delta.text, order), run, check)


def oracle(rng, refs):
    ops = []
    profiles = profiles_up_to(3, 1)
    for family, orders in ORACLE_ORDERS.items():
        shuffled = rng.sample(profiles, len(profiles))
        for i, delta in enumerate(shuffled):
            ops.append(_oracle_op(family, delta, orders[i % len(orders)]))
    rng.shuffle(ops)
    return ops


def _report_op(label, case):
    def check(report, fault):
        lhs = _bump(report.lhs, fault)
        return report.passed and lhs == tuple(report.rhs)

    return Op(label, case, check)


def _balanced(rng, values, count):
    """count values, each of values used equally often (up to one), in seed order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _summation_cases(rng, length, kind, endpoints, order, with_pair, count):
    profiles = _balanced(rng, all_profiles(length), count)
    columns = [_balanced(rng, BATTERY_SINGLE, count) for _ in range(length)]
    pair_at = _balanced(rng, range(length), count)
    ops = []
    for j, delta in enumerate(profiles):
        exps = [column[j] for column in columns]
        if with_pair:
            exps[pair_at[j]] = BATTERY_PAIRS[j % len(BATTERY_PAIRS)]
        label = "%s %s %s n=%d" % (kind, delta.text, exps, order)
        ops.append(_report_op(label, lambda d=delta, e=tuple(exps): planeparts.verify_summation(
            kind, d, e, endpoints=endpoints, order=order)))
    return ops


def battery(rng, refs):
    """Every fixed case of schur.battery_cases (two-sided chains, lemmas,
    p93A/p93B/p94A), half of them at each order, plus seed-drawn
    summation checks over profiles of length 1-4, stratified so that each
    seed runs the same number of checks per length, kind, order and
    alphabet shape."""
    fixed = {order: schur.battery_cases(max_len=0, order=order) for order in BATTERY_ORDERS}
    ops = []
    for i in range(len(fixed[BATTERY_ORDERS[0]])):
        # Alternating in twos spreads both orders over every kind of case,
        # the same way for every seed, which keeps peak RSS seed-independent.
        order = BATTERY_ORDERS[i // 2 % 2]
        ops.append(_report_op("fixed #%d n=%d" % (i, order), fixed[order][i]))
    for order in BATTERY_ORDERS:
        for length in (1, 2, 3, 4):
            for kind, endpoints in (("complete", None), ("cylindric", None),
                                    ("open", schur.OPEN_ENDPOINTS[0]),
                                    ("open", schur.OPEN_ENDPOINTS[1])):
                for with_pair, count in ((False, BATTERY_SINGLE_CHECKS),
                                         (True, BATTERY_PAIR_CHECKS)):
                    ops.extend(_summation_cases(rng, length, kind, endpoints, order,
                                                with_pair, count))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "series_sparse": series_sparse,
    "series_dense": series_dense,
    "oracle": oracle,
    "battery": battery,
}


def build(workload, seed):
    refs = load_references() if workload.startswith("series") else {}
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)), refs)
