import math
import random
from fractions import Fraction

import pytest

from planeparts.asymptotics import (
    AsymptoticParams,
    _log_dspp_prefactor,
    _log_dspp_width_constant,
    combine_params,
    dspp_params,
    dspp_prefactor,
    dspp_ribbon_params,
    dspp_width_constant,
    growth_rate,
    log_psi,
    n_exponent,
    prefactor,
    psi_eval,
    psi_table_value,
    ribbon_b_fraction,
    ribbon_params,
    scp_b_fraction,
    scp_n_exponent_fraction,
    scp_params,
    scp_ribbon_params,
)
from planeparts.profiles import parse_profile, profiles_up_to
from planeparts.series import ProductSpec, dspp_gf, dspp_product_spec, expand_product, scp_gf

ALPHA = 2 ** (-11 / 6) * math.sqrt(3) * math.pi ** (-1.5) * math.gamma(2 / 3) ** 2 * math.gamma(1 / 6)


def rel_err(a, b):
    return abs(a - b) / abs(b)


def test_psi_eval_direct_substitution():
    p = AsymptoticParams(log_v=0.0, r=1.0, b=0.7, p=0.5)
    expect = math.sqrt(0.25 / (2 * math.pi)) * math.e
    assert rel_err(psi_eval(p, 1), expect) < 1e-14
    with pytest.raises(ValueError):
        psi_eval(p, 0)
    params = dspp_params(parse_profile("++"))
    for n in (1, 20, 1000, 60000, 68000):  # exp alone overflows past n ~ 65650
        assert rel_err(log_psi(params, n), math.log(psi_eval(params, n))) < 1e-12
    assert math.isfinite(log_psi(params, 10**6))
    with pytest.raises(OverflowError):
        psi_eval(params, 10**6)


def test_log_psi_refuses_n_below_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        log_psi(dspp_params(parse_profile("+")), 0)


def test_params_validation():
    with pytest.raises(ValueError):
        AsymptoticParams(0.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        AsymptoticParams(0.0, 1.0, 0.0, 1.0)


def test_combine_params():
    a = AsymptoticParams(math.log(2.0), 1.0, 0.0, 0.5)
    b = AsymptoticParams(math.log(3.0), 2.0, 1.0, 0.5)
    c = combine_params(a, b)
    assert (c.log_v, c.r, c.b, c.p) == (math.log(2.0) + math.log(3.0), 3.0, 1.0, 0.5)
    assert rel_err(c.v, 6.0) < 1e-15
    assert combine_params(b, a) == c
    with pytest.raises(ValueError):
        combine_params(a, AsymptoticParams(0.0, 1.0, 0.0, 0.25))


def test_ribbon_partition_function():
    # plain partitions: prefactor 1/(4 sqrt 3), rate pi sqrt(2/3)
    params = ribbon_params(ProductSpec(((1, 1, 1),)))
    assert rel_err(prefactor(params), 1 / (4 * math.sqrt(3))) < 1e-12
    assert rel_err(growth_rate(params), math.pi * math.sqrt(2 / 3)) < 1e-12
    assert ribbon_b_fraction(ProductSpec(((1, 1, 1),))) == Fraction(1, 4)
    # estimate/exact ratio drifts toward 1
    exact = expand_product(ProductSpec(((1, 1, 1),)), 100)
    r50 = psi_eval(params, 50) / exact[50]
    r100 = psi_eval(params, 100) / exact[100]
    assert 1.0 < r100 < r50 < 1.1


def test_ribbon_gcd_requirement():
    with pytest.raises(ValueError) as err:
        ribbon_params(ProductSpec(((2, 2, 1), (4, 2, 3))))
    assert "gcd" in str(err.value)
    with pytest.raises(ValueError):
        ribbon_params(ProductSpec(()))


def test_ribbon_multiplicity_counts_twice():
    single = ProductSpec(((1, 1, 1), (3, 2, 1)))
    doubled = ProductSpec(((1, 1, 1), (3, 2, 2)))
    ps = ribbon_params(single)
    pd = ribbon_params(doubled)
    extra = math.lgamma(2 / 3) - 0.5 * math.log(3 * math.pi) + (2 / 3) * math.log(1.5)
    assert rel_err(pd.v, ps.v * math.exp(extra)) < 1e-12
    assert rel_err(pd.r - ps.r, 2 * math.pi**2 / 9) < 1e-12
    assert ribbon_b_fraction(doubled) - ribbon_b_fraction(single) == Fraction(2, 6) - Fraction(1, 4)


def test_dspp_prefactors_match_worked_constants():
    assert rel_err(dspp_prefactor(parse_profile("++")), math.sqrt(7) / 24) < 1e-12
    assert rel_err(
        dspp_prefactor(parse_profile("+-")), math.sqrt(2) * ALPHA * math.sqrt(7) / 24
    ) < 1e-12
    assert rel_err(
        dspp_prefactor(parse_profile("-+")), math.sqrt(2) / ALPHA * math.sqrt(7) / 24
    ) < 1e-12
    for text in ("++", "+-", "-+", "--"):
        params = dspp_params(parse_profile(text))
        assert rel_err(growth_rate(params), math.pi * math.sqrt(7) / 3) < 1e-12


def test_dspp_rate_depends_only_on_width():
    for length in (1, 2, 3, 4):
        m = length + 1
        expect = (m * m + m + 2) * math.pi**2 / (6 * m)
        for delta in profiles_up_to(length, length):
            params = dspp_params(delta)
            assert rel_err(params.r, expect) < 1e-12
            assert params.b == 0.25


def test_dspp_closed_form_equals_ribbon_route():
    for delta in profiles_up_to(4, 1):
        a = dspp_params(delta)
        b = dspp_ribbon_params(delta)
        assert rel_err(a.v, b.v) < 1e-10
        assert rel_err(a.r, b.r) < 1e-10
        assert abs(a.b - b.b) < 1e-10
        assert ribbon_b_fraction(dspp_product_spec(delta)) == Fraction(1, 4)


def test_width_constant():
    assert rel_err(dspp_width_constant(3), math.sqrt(7) / 24) < 1e-12
    assert rel_err(dspp_width_constant(2), 1 / (4 * math.sqrt(3))) < 1e-10
    for m in (2, 3, 4, 5, 6):
        staircase = parse_profile("-" * (m - 1))
        assert rel_err(dspp_width_constant(m), dspp_prefactor(staircase)) < 1e-10
    with pytest.raises(ValueError):
        dspp_width_constant(1)
    # past the float range both constants read 0.0, and their logs agree
    for m in (84, 90, 2000):
        staircase = parse_profile("-" * (m - 1))
        assert dspp_width_constant(m) == dspp_prefactor(staircase) == 0.0
        log_c = _log_dspp_width_constant(m)
        assert rel_err(log_c, _log_dspp_prefactor(staircase)) < 1e-12, m
        assert log_c < -700


def test_scp_exponents_exact():
    assert scp_n_exponent_fraction(parse_profile("--")) == Fraction(17, 20)
    assert scp_n_exponent_fraction(parse_profile("+-")) == Fraction(21, 20)
    assert scp_n_exponent_fraction(parse_profile("++")) == Fraction(23, 20)
    assert scp_n_exponent_fraction(parse_profile("-+")) == Fraction(19, 20)


def test_scp_closed_constant_matches_display():
    # the width-3 all-down case in fully closed form
    expect = (
        math.gamma(1 / 5)
        * math.gamma(2 / 5)
        * math.gamma(3 / 5)
        * 2 ** (-19 / 5)
        * 5 ** (-3 / 20)
        * math.pi ** (-9 / 5)
        * (7 / 3) ** (7 / 20)
    )
    assert rel_err(prefactor(scp_params(parse_profile("--"))), expect) < 1e-12
    assert rel_err(prefactor(scp_params(parse_profile("--"))), 0.146) < 5e-3
    assert rel_err(growth_rate(scp_params(parse_profile("--"))), 2.14) < 5e-3


def test_scp_other_closed_constants_match_displays():
    g = math.gamma
    expect_updown = (
        g(1 / 5) * g(3 / 5) * g(4 / 5)
        * 2 ** (-22 / 5) * 5 ** (1 / 20) * math.pi ** (-7 / 5) * (7 / 3) ** (11 / 20)
    )
    expect_upup = (
        g(2 / 5) * g(3 / 5) * g(4 / 5)
        * 2 ** (-21 / 5) * 5 ** (3 / 20) * math.pi ** (-6 / 5) * (7 / 3) ** (13 / 20)
    )
    assert rel_err(prefactor(scp_params(parse_profile("+-"))), expect_updown) < 1e-12
    assert rel_err(prefactor(scp_params(parse_profile("++"))), expect_upup) < 1e-12


def truncate3(x):
    return math.floor(x * 1000) / 1000


def test_caption_decimals():
    # the displayed three-decimal constants are truncations
    assert truncate3(dspp_prefactor(parse_profile("++"))) == 0.110
    assert truncate3(dspp_prefactor(parse_profile("+-"))) == 0.138
    assert truncate3(dspp_prefactor(parse_profile("-+"))) == 0.174
    assert truncate3(prefactor(scp_params(parse_profile("--")))) == 0.146
    assert truncate3(prefactor(scp_params(parse_profile("+-")))) == 0.131
    assert truncate3(prefactor(scp_params(parse_profile("++")))) == 0.116
    rate = growth_rate(dspp_params(parse_profile("++")))
    assert math.floor(rate * 100) / 100 == 2.77
    rate = growth_rate(scp_params(parse_profile("--")))
    assert math.floor(rate * 100) / 100 == 2.14


def test_scp_rate_width_only_b_profile_dependent():
    for length in (1, 2, 3):
        m = length + 1
        expect_r = (m * m + m + 2) * math.pi**2 / (6 * (2 * m - 1))
        bs = set()
        for delta in profiles_up_to(length, length):
            params = scp_params(delta)
            assert rel_err(params.r, expect_r) < 1e-12
            bs.add(scp_b_fraction(delta))
        assert len(bs) > 1  # b genuinely varies with the profile


def test_scp_closed_form_equals_ribbon_route():
    for delta in profiles_up_to(4, 1):
        a = scp_params(delta)
        b = scp_ribbon_params(delta)
        assert rel_err(a.v, b.v) < 1e-10
        assert rel_err(a.r, b.r) < 1e-10
        assert abs(a.b - b.b) < 1e-10
        assert float(scp_b_fraction(delta)) == a.b


def test_psi_table_rows():
    dsppa = dspp_params(parse_profile("++"))
    assert [psi_table_value(dsppa, n) for n in (5, 10, 15, 20)] == [10, 70, 336, 1325]
    scpa = scp_params(parse_profile("--"))
    assert [psi_table_value(scpa, n) for n in (5, 10, 15, 20)] == [4, 18, 59, 169]
    assert n_exponent(dsppa) == 1.0
    assert rel_err(n_exponent(scpa), 0.85) < 1e-12


def test_combine_matches_merged_ribbon():
    rng = random.Random(20260811)
    checked = 0
    while checked < 50:
        fac1 = [
            (rng.randint(1, 6), rng.randint(1, 9), rng.randint(1, 2))
            for _ in range(rng.randint(1, 4))
        ]
        fac2 = [
            (rng.randint(1, 6), rng.randint(1, 9), rng.randint(1, 2))
            for _ in range(rng.randint(1, 4))
        ]
        s1 = ProductSpec(tuple(fac1))
        s2 = ProductSpec(tuple(fac2))
        if s1.overall_gcd() != 1 or s2.overall_gcd() != 1:
            continue
        combined = combine_params(ribbon_params(s1), ribbon_params(s2))
        merged = ribbon_params(s1.merged_with(s2))
        assert rel_err(combined.v, merged.v) < 1e-10
        assert rel_err(combined.r, merged.r) < 1e-10
        assert abs(combined.b - merged.b) < 1e-10
        assert combined.p == merged.p == 0.5
        checked += 1


def test_empirical_convergence_doubled_shifted():
    params = dspp_params(parse_profile("++"))
    exact = dspp_gf(parse_profile("++"), 20)
    ratio = psi_eval(params, 20) / exact[20]
    assert 1.0 <= ratio <= 1.1


def test_second_order_constant_settles():
    # kappa_n = sqrt(n) (a_n / psi_n - 1) tends to a constant per profile,
    # the second term of the expansion; it must have settled by n = 1000
    kappas = {}
    for family, gf, params in (("dspp", dspp_gf, dspp_params), ("scp", scp_gf, scp_params)):
        for delta in profiles_up_to(2, min_length=1):
            coeffs = gf(delta, 3000).coeffs
            k1000, k3000 = (
                math.sqrt(n) * math.expm1(math.log(coeffs[n]) - log_psi(params(delta), n))
                for n in (1000, 3000)
            )
            assert abs(k1000 - k3000) < 0.05 and abs(k3000) <= 1, (family, delta.text, k1000, k3000)
            kappas[family, delta.text] = k3000
    # dspp "+" is the partition function p(n): its second term is the
    # Hardy-Ramanujan -(sqrt(3/2)/pi + pi/(24 sqrt(6))) = -0.4433
    hardy_ramanujan = -(math.sqrt(1.5) / math.pi + math.pi / (24 * math.sqrt(6)))
    assert abs(kappas["dspp", "+"] - hardy_ramanujan) < 0.01
