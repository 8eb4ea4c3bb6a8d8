from itertools import permutations

import pytest

from planeparts import schur
from planeparts.partitions import partitions_up_to
from planeparts.profiles import parse_profile
from planeparts.schur import (
    battery_cases,
    run_battery,
    skew_schur_z,
    verify_alternating_summation,
    verify_lemma_s1,
    verify_lemma_s2,
    verify_macdonald,
    verify_summation,
)
from planeparts.series import TruncatedSeries, dspp_gf

PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_skew_schur_basic_values():
    assert skew_schur_z((3, 1), (3, 1), (), 4) == TruncatedSeries.one(4)
    # two variables on a single row of two cells: three fillings
    assert skew_schur_z((2,), (), (1, 1), 4).coeffs == (0, 0, 3, 0, 0)
    # a column is not a horizontal strip of one variable
    assert skew_schur_z((1, 1), (), (1,), 4).coeffs == (0, 0, 0, 0, 0)
    # not contained -> zero series
    assert skew_schur_z((1,), (2,), (1, 2), 4).coeffs == (0, 0, 0, 0, 0)


def test_skew_schur_column_two_variables():
    # s_{(1,1)} in two variables is the single monomial x1 x2
    assert skew_schur_z((1, 1), (), (1, 2), 8).coeffs[3] == 1
    assert sum(skew_schur_z((1, 1), (), (1, 2), 8).coeffs) == 1


def test_skew_schur_alphabet_symmetry():
    for alpha in set(permutations((1, 2, 3))):
        assert skew_schur_z((3, 1), (1,), alpha, 10) == skew_schur_z((3, 1), (1,), (1, 2, 3), 10)
    for alpha in set(permutations((1, 1, 2))):
        assert skew_schur_z((2, 2), (), alpha, 10) == skew_schur_z((2, 2), (), (1, 1, 2), 10)


def test_skew_schur_coproduct():
    # splitting the alphabet sums over intermediate partitions
    order = 9
    lam, mu = (3, 2), (1,)
    left = skew_schur_z(lam, mu, (1, 2, 2), order)
    total = [0] * (order + 1)
    for gamma in partitions_up_to(sum(lam)):
        if len(gamma) > len(lam) or any(g > l for g, l in zip(gamma, lam)):
            continue
        a = skew_schur_z(lam, gamma, (1,), order).coeffs
        b = skew_schur_z(gamma, mu, (2, 2), order).coeffs
        for i in range(order + 1):
            for j in range(order + 1 - i):
                total[i + j] += a[i] * b[j]
    assert left.coeffs == tuple(total)


def test_skew_schur_single_row_count():
    # single row (n) with k variables of exponent 1: multiset coefficient
    s = skew_schur_z((3,), (), (1, 1, 1), 12)
    assert s.coeffs[3] == 10  # choose 3 from 3 types with repetition


def test_verify_summation_examples():
    r = verify_summation("complete", parse_profile("+-"), (1, 1), order=8)
    assert r.passed and r.name == "complete"
    r = verify_summation("cylindric", parse_profile("+-"), (1, 1), order=8)
    assert r.passed
    r = verify_summation("open", parse_profile("+"), (1,), endpoints=((), (1,)), order=6)
    assert r.passed
    assert r.lhs == (0, 1, 0, 0, 0, 0, 0)


def test_verify_summation_defaults_and_errors():
    r = verify_summation("complete", parse_profile("-+"), order=6)
    assert r.passed
    with pytest.raises(ValueError):
        verify_summation("complete", parse_profile(""), order=6)
    with pytest.raises(ValueError):
        verify_summation("complete", parse_profile("+"), (1, 2), order=6)
    with pytest.raises(ValueError):
        verify_summation("sideways", parse_profile("+"), (1,), order=6)


def test_cylindric_specialization_recovers_cp_weights():
    # the closed-chain sum with every diagonal carrying z passes as an
    # identity; dropping the final diagonal's weight instead (the
    # cylindric-partition size) reproduces the cylindric product exactly
    from planeparts.counting import count_cp
    from planeparts.series import cp_gf

    r = verify_summation("cylindric", parse_profile("+-"), (1, 1), order=8)
    assert r.passed
    delta = parse_profile("+-")
    assert count_cp(delta, 8) == cp_gf(delta, 8)


def test_pair_alphabet_summation():
    r = verify_summation("complete", parse_profile("+-"), ((1, 2), (1,)), order=8)
    assert r.passed
    r = verify_summation("cylindric", parse_profile("-+"), ((2,), (1, 1)), order=7)
    assert r.passed
    # the open right side multiplies its walk by the psi kernel
    r = verify_summation(
        "open", parse_profile("+-"), ((1, 2), (1,)), endpoints=((2,), (1, 1)), order=8
    )
    assert r.passed and any(r.lhs)


def test_alternating_two_sided_steps():
    # one step may remove with X and add with Y at once
    r = verify_alternating_summation("complete", (((1,),)), (((1,),)), order=8)
    assert r.passed
    r = verify_alternating_summation(
        "complete", ((1,), (2,)), ((2,), (1,)), order=8
    )
    assert r.passed
    r = verify_alternating_summation(
        "cylindric", ((1,), ()), ((), (1,)), order=8
    )
    assert r.passed
    r = verify_alternating_summation(
        "open", ((1,), (2,)), ((2,), (1,)), endpoints=((1,), (1,)), order=8
    )
    assert r.passed


def test_lemma_s1():
    r = verify_lemma_s1((), order=10)
    assert r.passed and r.lhs == tuple(PARTITION_NUMBERS[:9]) + (30, 42)
    assert verify_lemma_s1((1,), order=10).passed
    assert verify_lemma_s1((1, 2), order=8).passed


def test_lemma_s2():
    r = verify_lemma_s2((), (), order=8)
    assert r.passed and r.lhs == PARTITION_NUMBERS[:9]
    assert verify_lemma_s2((1,), (1,), order=8).passed
    assert verify_lemma_s2((2,), (1,), order=8).passed


def test_macdonald_identities():
    assert verify_macdonald("p94A", x_alpha=(1,), y_alpha=(1,), order=8).passed
    assert verify_macdonald("p93B", x_alpha=(1,), nu=(), order=8).passed
    assert verify_macdonald(
        "p93A", x_alpha=(1,), y_alpha=(2,), lam=(1,), mu=(1,), order=8
    ).passed
    # right sides that multiply their walk by the kernel, with two letters
    r = verify_macdonald("p93A", x_alpha=(1, 2), y_alpha=(1,), lam=(2,), mu=(1, 1), order=8)
    assert r.passed and any(r.rhs)
    r = verify_macdonald("p93B", x_alpha=(1, 2), nu=(2, 1), order=8)
    assert r.passed and any(r.rhs)
    with pytest.raises(ValueError):
        verify_macdonald("p95X", order=4)


def test_report_shape():
    r = verify_summation("complete", parse_profile("+"), (1,), order=5)
    blob = r.to_json()
    assert blob["passed"] is True
    assert blob["first_mismatch"] is None
    assert blob["params"]["profile"] == "+"
    assert len(blob["lhs"]) == 6
    assert all(isinstance(c, str) for c in blob["lhs"])


def test_complete_sum_grows_like_products():
    # complete sum over the all-up width-2 profile with unit exponents is a
    # perfectly concrete series; freeze its start against the transfer DP
    r = verify_summation("complete", parse_profile("+"), (1,), order=6)
    assert r.passed
    # weights z^{|lam^1|} * z^{|lam^1|-|lam^0|}: hand count at order 2 gives 3
    assert r.lhs[:3] == (1, 1, 3)


def test_verifier_truncation_consistency():
    # recomputing at a higher order and truncating gives the same prefix
    long = verify_summation("complete", parse_profile("+-"), (1, 2), order=10)
    short = verify_summation("complete", parse_profile("+-"), (1, 2), order=6)
    assert long.lhs[:7] == short.lhs and long.rhs[:7] == short.rhs
    long = verify_lemma_s1((1, 2), order=10)
    short = verify_lemma_s1((1, 2), order=7)
    assert long.lhs[:8] == short.lhs and long.rhs[:8] == short.rhs


def test_battery_small_and_fault_injection():
    reports = run_battery(max_len=1, order=5)
    assert reports and all(r.passed for r in reports)
    tampered = run_battery(max_len=1, order=5, inject_fault=0)
    assert sum(1 for r in tampered if not r.passed) == 1
    assert tampered[0].first_mismatch == 0


def test_battery_cases_call_the_verifiers_bound_at_run_time(monkeypatch):
    # cases built before a verifier is rebound in schur must run the rebound one
    cases = battery_cases(1, 2)
    targets = ("verify_summation", "verify_alternating_summation", "verify_lemma_s1",
               "verify_lemma_s2", "verify_macdonald")
    ran = []
    for name in targets:
        monkeypatch.setattr(schur, name, lambda *args, _name=name, **kwargs: ran.append(_name))
    for case in cases:
        case()
    assert len(ran) == len(cases) and set(ran) == set(targets)


def test_battery_refuses_too_many_cases_before_listing_them(monkeypatch):
    # length h lists 2^h profiles times 2^h exponent choices, four checks
    # each; past MAX_BATTERY_CASES the battery refuses before it builds a
    # single profile, however large max_len is
    fixed = len(battery_cases(0))
    for max_len in range(4):
        assert len(battery_cases(max_len)) == fixed + sum(4 ** (h + 1) for h in range(1, max_len + 1))
    monkeypatch.setattr(schur, "MAX_BATTERY_CASES", 16 + 64 + 256)
    assert len(battery_cases(3)) == fixed + 336
    monkeypatch.setattr(schur, "all_profiles", None)
    for max_len in (4, 30, 10**18):
        with pytest.raises(ValueError, match="max_len %d lists more than the 336 " % max_len):
            battery_cases(max_len)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="100000 identity checks"):
        battery_cases(8)


def test_battery_depth_scales():
    shallow = run_battery(max_len=1, order=5)
    deeper = run_battery(max_len=2, order=5)
    assert len(deeper) > len(shallow)


def test_complete_sum_matches_doubled_shifted_weight():
    # consistency across modules: the complete formula's right side with
    # every diagonal carrying z matches the raw product route used by the
    # generating function machinery for the same profile at low order
    delta = parse_profile("++")
    r = verify_summation("complete", delta, (1, 1), order=8)
    assert r.passed
    # not equal to dspp_gf (different weights), but both start at 1
    assert r.lhs[0] == 1 and dspp_gf(delta, 8)[0] == 1
