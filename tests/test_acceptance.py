"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

from planeparts.asymptotics import (
    combine_params,
    dspp_params,
    dspp_prefactor,
    dspp_ribbon_params,
    growth_rate,
    prefactor,
    psi_table_value,
    ribbon_params,
    scp_n_exponent_fraction,
    scp_params,
    scp_ribbon_params,
)
from planeparts.counting import count_cp, count_dspp, count_dspp_fillings, count_scp
from planeparts.partitions import Partition
from planeparts.profiles import (
    filling_to_diagonals,
    diagonals_to_filling,
    multiset_w1,
    multiset_w2,
    multiset_w4,
    multiset_w5,
    _positions,
    parse_profile,
    profiles_up_to,
    region_cells,
)
from planeparts.schur import run_battery
from planeparts.series import (
    ProductSpec,
    _classical_exponents,
    _raw_exponents,
    _spec_exponents,
    classical_gf,
    cp_gf,
    dspp_gf,
    dspp_gf_unsimplified,
    dspp_product_spec,
    scp_gf,
    scp_gf_unsimplified,
    scp_product_spec,
)
from test_series import geometric_reference

ALPHA = 2 ** (-11 / 6) * math.sqrt(3) * math.pi ** (-1.5) * math.gamma(2 / 3) ** 2 * math.gamma(1 / 6)


def report(number, label, ok, started, budget):
    elapsed = time.time() - started
    print("%s criterion %d: %s (%.2fs)" % ("PASS" if ok else "FAIL", number, label, elapsed))
    assert ok, "criterion %d failed: %s" % (number, label)
    assert elapsed < budget, "criterion %d exceeded its %.0fs budget" % (number, budget)


def test_criterion_1_table_reproduction():
    t0 = time.time()
    dsppa = parse_profile("++")
    scpa = parse_profile("--")
    marks = (5, 10, 15, 20)
    expect_dspp = (9, 64, 314, 1244)
    expect_scp = (4, 17, 56, 161)
    g = dspp_gf(dsppa, 20)
    c = count_dspp(dsppa, 20)
    ok = all(g[n] == e and c[n] == e for n, e in zip(marks, expect_dspp))
    g = scp_gf(scpa, 20)
    c = count_scp(scpa, 20)
    ok = ok and all(g[n] == e and c[n] == e for n, e in zip(marks, expect_scp))
    report(1, "exact table values for the two showcase profiles", ok, t0, 10)


def test_criterion_2_oracle_product_equivalence():
    t0 = time.time()
    ok = True
    for delta in profiles_up_to(3, 1):
        ok = ok and count_dspp(delta, 14) == dspp_gf(delta, 14)
        ok = ok and count_cp(delta, 12) == cp_gf(delta, 12)
        ok = ok and count_scp(delta, 12) == scp_gf(delta, 12)
    report(2, "oracle equals product for all 14 profiles of length 1-3", ok, t0, 120)


def test_criterion_3_simplification_equivalence():
    t0 = time.time()
    ok = True
    for delta in profiles_up_to(3):
        ok = ok and dspp_gf_unsimplified(delta, 12) == dspp_gf(delta, 12)
        ok = ok and scp_gf_unsimplified(delta, 12) == scp_gf(delta, 12)
    report(3, "raw and simplified product forms agree at order 12", ok, t0, 60)


def test_simplification_exponent_maps_at_scale():
    # the raw and simplified forms compile to the same truncated exponent
    # map, so the simplification can be checked far past any expandable order
    order = 10**4
    for delta in profiles_up_to(3):
        for symmetric, spec in ((False, dspp_product_spec), (True, scp_product_spec)):
            raw = _raw_exponents(*_positions(delta, symmetric), order)
            assert raw == _spec_exponents(spec(delta), order), (delta.text, symmetric)


def test_classical_series_at_scale():
    # the classical maps have ~N^2 factors; the kernel's prefix must equal
    # one geometric pass per factor
    budget = 10
    t0 = time.time()
    for kind, order in (("pp", 2000), ("shiftpp", 1500), ("sympp", 2000)):
        coeffs = classical_gf(kind, order).coeffs
        assert coeffs[:301] == tuple(geometric_reference(_classical_exponents(kind, 300), 300)), kind
    elapsed = time.time() - t0
    print("classical series at N = 1500-2000 (%.2fs)" % elapsed)
    assert elapsed < budget, "classical series at scale exceeded the %ds budget" % budget


def test_criterion_4_summation_identity_battery():
    t0 = time.time()
    reports = run_battery(max_len=3, order=8)
    ok = len(reports) > 0 and all(r.passed for r in reports)
    report(4, "summation-identity battery (%d cases)" % len(reports), ok, t0, 120)


def test_criterion_5_filling_diagonal_bijection():
    t0 = time.time()
    ok = True
    for delta in profiles_up_to(2, 1):
        ok = ok and count_dspp_fillings(delta, 8) == count_dspp(delta, 8)
    fig3 = parse_profile("+--+-+-+")
    diagonals = [
        Partition(p)
        for p in [(4, 1), (5, 4), (5, 2), (3,), (4, 1), (2,), (2, 2), (2, 1), (5, 2, 1)]
    ]
    values = diagonals_to_filling(fig3, diagonals, 12)
    ok = ok and sum(values.values()) == 46
    ok = ok and filling_to_diagonals(region_cells(fig3, 12), values, fig3) == diagonals
    report(5, "filling enumeration matches diagonal sequences; fixture round-trips", ok, t0, 60)


def test_criterion_6_asymptotic_constants():
    t0 = time.time()
    ok = abs(dspp_prefactor(parse_profile("++")) - math.sqrt(7) / 24) / (math.sqrt(7) / 24) < 1e-10
    rate = growth_rate(dspp_params(parse_profile("++")))
    ok = ok and abs(rate - math.pi * math.sqrt(7) / 3) / (math.pi * math.sqrt(7) / 3) < 1e-12
    ratio = dspp_prefactor(parse_profile("+-")) / (math.sqrt(2) * math.sqrt(7) / 24)
    ok = ok and abs(ratio - ALPHA) < 1e-4 and round(ratio, 4) == round(ALPHA, 4)
    ok = ok and scp_n_exponent_fraction(parse_profile("--")) == Fraction(17, 20)
    ok = ok and scp_n_exponent_fraction(parse_profile("+-")) == Fraction(21, 20)
    ok = ok and scp_n_exponent_fraction(parse_profile("++")) == Fraction(23, 20)
    for delta in profiles_up_to(4, 1):
        a, b = dspp_params(delta), dspp_ribbon_params(delta)
        ok = ok and abs(a.v - b.v) / b.v < 1e-10 and abs(a.r - b.r) / b.r < 1e-10
        ok = ok and abs(a.b - b.b) < 1e-10
        a, b = scp_params(delta), scp_ribbon_params(delta)
        ok = ok and abs(a.v - b.v) / b.v < 1e-10 and abs(a.r - b.r) / b.r < 1e-10
        ok = ok and abs(a.b - b.b) < 1e-10
    report(6, "closed-form constants and route agreement", ok, t0, 30)


def test_criterion_7_psi_table():
    t0 = time.time()
    dsppa = dspp_params(parse_profile("++"))
    scpa = scp_params(parse_profile("--"))
    ok = [psi_table_value(dsppa, n) for n in (5, 10, 15, 20)] == [10, 70, 336, 1325]
    ok = ok and [psi_table_value(scpa, n) for n in (5, 10, 15, 20)] == [4, 18, 59, 169]
    report(7, "rounded growth estimates match the reference rows", ok, t0, 30)


def test_criterion_8_structural_invariants():
    t0 = time.time()
    ok = True
    for delta in profiles_up_to(6):
        m = len(delta) + 1
        w1 = multiset_w1(delta)
        w2 = multiset_w2(delta)
        ok = ok and w1.total_count() == m and w2.total_count() == (m - 1) * (m - 2) // 2
        count_sum = Fraction(w1.total_count(), m) + Fraction(w2.total_count(), 2 * m)
        ok = ok and count_sum == Fraction(m * m + m + 2, 4 * m)
        t_sum = sum(Fraction(t, m) for t in w1.elements()) + sum(
            Fraction(t, 2 * m) for t in w2.elements()
        )
        ok = ok and t_sum == Fraction(m * m - m + 4, 4)
        w4 = multiset_w4(delta)
        w5 = multiset_w5(delta)
        q = 2 * m - 1
        ok = ok and w4.total_count() == m and w5.total_count() == (m - 1) * (m - 2) // 2
        sym_sum = Fraction(w4.total_count(), q) + Fraction(w5.total_count(), 2 * q)
        ok = ok and sym_sum == Fraction(m * m + m + 2, 4 * q)
    report(8, "exact rational multiset identities through length 6", ok, t0, 30)


def test_criterion_9_combine_matches_merged():
    t0 = time.time()
    rng = random.Random(175)
    ok = True
    checked = 0
    while checked < 50:
        fac1 = tuple(
            (rng.randint(1, 7), rng.randint(1, 10), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        )
        fac2 = tuple(
            (rng.randint(1, 7), rng.randint(1, 10), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        )
        s1, s2 = ProductSpec(fac1), ProductSpec(fac2)
        if s1.overall_gcd() != 1 or s2.overall_gcd() != 1:
            continue
        combined = combine_params(ribbon_params(s1), ribbon_params(s2))
        merged = ribbon_params(s1.merged_with(s2))
        ok = ok and abs(combined.v - merged.v) / merged.v < 1e-10
        ok = ok and abs(combined.r - merged.r) / merged.r < 1e-10
        ok = ok and abs(combined.b - merged.b) < 1e-10
        checked += 1
    report(9, "pairwise combination matches merged factor sums (50 pairs)", ok, t0, 30)
