import gc
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from planeparts import series
from planeparts.profiles import _positions, parse_profile, profiles_up_to, reverse_negate
from planeparts.series import (
    CLASSICAL_KINDS,
    ProductSpec,
    TruncatedSeries,
    _classical_exponents,
    _expand,
    _phi,
    _psi,
    _raw_exponents,
    _spec_exponents,
    _spread,
    classical_gf,
    cp_gf,
    cp_product_spec,
    dspp_gf,
    dspp_gf_unsimplified,
    dspp_product_spec,
    expand_product,
    scp_gf,
    scp_gf_unsimplified,
    scp_product_spec,
)

PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135)


def geometric_reference(exponents, order):
    """Reference the kernel cannot share: one geometric pass per factor 1/(1 - z^e)."""
    coeffs = [1] + [0] * order
    for e in exponents:
        for _ in range(exponents[e] if e <= order else 0):
            for i in range(e, order + 1):
                coeffs[i] += coeffs[i - e]
    return coeffs


@lru_cache(maxsize=None)
def restricted_count(n, parts):
    """Independent oracle: partitions of n into parts from the given multiset."""
    parts = tuple(parts)
    if n == 0:
        return 1
    if not parts or n < 0:
        return 0
    head, tail = parts[0], parts[1:]
    total = 0
    k = 0
    while k * head <= n:
        total += restricted_count(n - k * head, tail)
        k += 1
    return total


def brute_plane_partition_count(n):
    """Independent oracle: monotone fillings of an n-by-n grid with total n."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    values = {}
    count = 0

    def rec(idx, total):
        nonlocal count
        if total == n:
            count += 1
            return
        if idx == len(cells):
            return
        i, j = cells[idx]
        cap = n - total
        if i > 0:
            cap = min(cap, values[(i - 1, j)])
        if j > 0:
            cap = min(cap, values[(i, j - 1)])
        for v in range(cap + 1):
            values[(i, j)] = v
            rec(idx + 1, total + v)
        del values[(i, j)]

    rec(0, 0)
    return count


def test_series_construction_and_identity():
    one = TruncatedSeries.one(4)
    assert one.coeffs == (1, 0, 0, 0, 0)
    s = TruncatedSeries(2, (1, 2, 3))
    assert s == TruncatedSeries(2, [1, 2, 3]) and hash(s) == hash(TruncatedSeries(2, (1, 2, 3)))
    assert s != TruncatedSeries(3, (1, 2, 3, 0)) and TruncatedSeries.one(2) != s
    with pytest.raises(ValueError):
        TruncatedSeries(2, (1, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())
    with pytest.raises(ValueError):
        TruncatedSeries(1, (1, -1))


def test_series_immutable():
    s = TruncatedSeries.one(2)
    with pytest.raises(AttributeError):
        s.order = 5


def test_expand_product_examples():
    spec = ProductSpec(((1, 1, 1),))
    assert expand_product(spec, 5).coeffs == PARTITION_NUMBERS[:6]
    assert expand_product(ProductSpec(()), 4) == TruncatedSeries.one(4)
    scpa = ProductSpec(((5, 1, 1), (5, 3, 1), (5, 5, 1), (10, 4, 1)))
    assert expand_product(scpa, 5)[5] == 4


def test_expand_product_nonnegative_and_normalized():
    spec = ProductSpec(((2, 1, 1), (2, 1, 1), (3, 2, 2)))
    assert spec.factors == ((2, 1, 2), (3, 2, 2))
    series = expand_product(spec, 12)
    assert series[0] == 1
    assert all(c >= 0 for c in series.coeffs)
    with pytest.raises(ValueError):
        ProductSpec(((0, 1, 1),))
    with pytest.raises(ValueError):
        ProductSpec(((1, 0, 1),))


def test_phi_series_examples():
    assert _expand(_phi([4], 8), 8) == [1 if n % 4 == 0 else 0 for n in range(9)]
    assert _expand(_phi([], 5), 5) == [1, 0, 0, 0, 0, 0]
    assert _expand(_phi([1, 2], 3), 3) == [1, 1, 2, 3]
    phi = _expand(_phi([1, 2], 8), 8)
    for n in range(9):
        assert phi[n] == restricted_count(n, (1, 2, 3))


def test_psi_series_examples():
    assert _expand(_psi([2], [3], 10), 10) == [1 if n % 5 == 0 else 0 for n in range(11)]
    assert _expand(_psi([], [1], 5), 5) == [1, 0, 0, 0, 0, 0]
    assert _expand(_psi([1], [], 5), 5) == [1, 0, 0, 0, 0, 0]
    assert _expand(_psi([1], [1, 2], 4), 4) == [1, 0, 1, 1, 1]
    psi = _expand(_psi([1], [1, 2], 8), 8)
    for n in range(9):
        assert psi[n] == restricted_count(n, (2, 3))


def pair_loop_phi(exponents, order):
    """Reference: phi's map by a literal loop over singles and index pairs i < j."""
    exps = Counter(e for e in exponents if e <= order)
    for i, x in enumerate(exponents):
        for y in exponents[i + 1 :]:
            if x + y <= order:
                exps[x + y] += 1
    return exps


def pair_loop_raw(width, items, order):
    """Reference: the raw product's exponent map by literal loops over
    position pairs, for the boundary pairs and every phi factor."""
    exps = Counter()
    for x, (p, ep) in enumerate(items):
        for q, eq in items[x + 1 :]:
            if ep == 1 and eq == -1 and q - p <= order:
                exps[q - p] += 1
    neg = [p for p, e in items if e == -1]
    pos = [p for p, e in items if e == 1]
    exps.update(pair_loop_phi([p for p in neg if p <= order], order))
    for k in range(1, order // width + 2):  # width * k - p <= order needs k <= this
        shifted = [width * k + p for p in neg] + [width * k - p for p in pos]
        exps.update(pair_loop_phi([e for e in shifted if e <= order], order))
        if width * k <= order:
            exps[width * k] += 1
    return exps


def test_packed_maps_equal_pair_loops():
    rng = random.Random(19)
    profiles = list(profiles_up_to(8)) + [
        tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 200))) for _ in range(200)
    ]
    for delta in profiles:
        for symmetric in (False, True):
            for order in (0, 1, 7, 60):
                raw = _raw_exponents(*_positions(delta, symmetric), order)
                assert raw == pair_loop_raw(*_positions(delta, symmetric), order), (delta, order)
    rng = random.Random(10)
    for _ in range(600):
        order = rng.choice((0, 1, 2, 5, 17, 60, 200))
        top = rng.choice((1, 3, 12, 80, 400))
        a = [rng.randint(1, top) for _ in range(rng.randint(0, 15))]
        assert _phi(a, order) == pair_loop_phi(a, order), (a, order)
        step = rng.randint(1, 7)
        exps = Counter({e: rng.randint(1, 5) for e in a})
        spread = Counter()
        for k in range(order + 1):
            for e, m in exps.items():
                if e + k * step <= order:
                    spread[e + k * step] += m
        assert _spread(exps, step, order) == spread, (exps, step, order)


def test_classical_maps_closed_forms():
    # shiftpp: 1 single and floor((s-1)/2) pairs i < j with i + j = s;
    # sympp: 1 single at odd s, and floor(t/2) odd pairs i < j summing to 2t
    order = 5000
    shift = _classical_exponents("shiftpp", order)
    assert dict(shift) == {s: 1 + (s - 1) // 2 for s in range(1, order + 1)}
    sym = {s: 1 for s in range(1, order + 1, 2)}
    sym.update({2 * t: t // 2 for t in range(2, order // 2 + 1)})
    assert dict(_classical_exponents("sympp", order)) == sym


def test_dspp_gf_values():
    # paper-table column: c_5 = 9 for the width-3 all-up profile
    g = dspp_gf(parse_profile("++"), 20)
    assert g[5] == 9 and g[10] == 64 and g[15] == 314 and g[20] == 1244
    # low-order coefficients against the restricted-parts oracle:
    # ordinary parts plus a second copy of parts congruent to 3 mod 6
    parts = tuple(range(1, 13)) + (3, 9)
    for n in range(13):
        assert g[n] == restricted_count(n, parts), n
    assert dspp_gf(parse_profile(""), 5).coeffs == PARTITION_NUMBERS[:6]
    assert dspp_gf(parse_profile("+-"), 1).coeffs == (1, 1)


def test_dspp_gf_reverse_negate_invariance():
    for delta in profiles_up_to(4):
        assert dspp_gf(delta, 10) == dspp_gf(reverse_negate(delta), 10)
    # no such symmetry for the symmetric cylindric family: its weight
    # singles out one end of the half-sequence
    assert scp_gf(parse_profile("+"), 4) != scp_gf(parse_profile("-"), 4)


def test_dspp_staircase_profile_product_form():
    # for the all-down profile of length m-1 the product is the plain
    # partition product times pair factors i+j to modulus 2m
    for m in range(2, 6):
        delta = parse_profile("-" * (m - 1))
        factors = [(1, 1, 1)]
        factors += [(2 * m, i + j, 1) for i in range(1, m - 1) for j in range(i + 1, m)]
        assert dspp_gf(delta, 14) == expand_product(ProductSpec(tuple(factors)), 14), m


def test_cp_gf_values():
    assert cp_gf(parse_profile("+-"), 4).coeffs == (1, 1, 2, 3, 5)
    assert cp_gf(parse_profile("++"), 4).coeffs == (1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        cp_gf(parse_profile(""), 4)


def test_scp_gf_values():
    g = scp_gf(parse_profile("--"), 20)
    assert g[5] == 4 and g[10] == 17 and g[15] == 56 and g[20] == 161
    # explicit product for the up-down profile: parts 3,4,5 mod 5 and 2 mod 10
    h = scp_gf(parse_profile("+-"), 5)
    explicit = expand_product(ProductSpec(((5, 3, 1), (5, 4, 1), (5, 5, 1), (10, 2, 1))), 5)
    assert h == explicit
    # the empty profile degenerates to the plain partition product
    assert scp_gf(parse_profile(""), 6).coeffs == PARTITION_NUMBERS[:7]


def test_unsimplified_forms_agree():
    for delta in profiles_up_to(3):
        assert dspp_gf_unsimplified(delta, 12) == dspp_gf(delta, 12), delta
        assert scp_gf_unsimplified(delta, 12) == scp_gf(delta, 12), delta


def test_classical_gf():
    pp = classical_gf("pp", 5)
    assert pp.coeffs == (1, 1, 3, 6, 13, 24)
    for n in range(5):
        assert pp[n] == brute_plane_partition_count(n), n
    assert classical_gf("shiftpp", 0) == TruncatedSeries.one(0)
    assert classical_gf("sympp", 3).coeffs == (1, 1, 1, 2)
    # shifted plane partitions: parts 1.. plus pair parts i+j (i<j)
    sh = classical_gf("shiftpp", 6)
    parts = tuple(range(1, 7)) + (3, 4, 5, 5, 6, 6)  # i+j <= 6 pairs: 1+2..2+4
    for n in range(7):
        assert sh[n] == restricted_count(n, parts), n
    with pytest.raises(ValueError):
        classical_gf("nope", 3)


def test_truncation_consistency():
    for delta in profiles_up_to(2):
        full = dspp_gf(delta, 16)
        assert full.coeffs[:10] == dspp_gf(delta, 9).coeffs
    full = classical_gf("pp", 12)
    assert full.coeffs[:8] == classical_gf("pp", 7).coeffs
    full = scp_gf(parse_profile("-+"), 15)
    assert full.coeffs[:9] == scp_gf(parse_profile("-+"), 8).coeffs


def test_product_spec_merge_and_gcd():
    a = ProductSpec(((2, 2, 1),))
    b = ProductSpec(((4, 2, 1),))
    assert a.overall_gcd() == 2
    merged = a.merged_with(b)
    assert merged.factors == ((2, 2, 1), (4, 2, 1))
    assert merged.overall_gcd() == 2
    assert ProductSpec(((2, 2, 1), (3, 1, 1))).overall_gcd() == 1


def test_family_specs_match_multisets():
    spec = dspp_product_spec(parse_profile("++"))
    assert spec.factors == ((3, 1, 1), (3, 2, 1), (3, 3, 1), (6, 3, 1))
    # the other two width-3 displays: a squared factor and a shifted one
    spec = dspp_product_spec(parse_profile("+-"))
    assert spec.factors == ((3, 2, 2), (3, 3, 1), (6, 1, 1))
    spec = dspp_product_spec(parse_profile("-+"))
    assert spec.factors == ((3, 1, 2), (3, 3, 1), (6, 5, 1))
    spec = cp_product_spec(parse_profile("+-"))
    assert spec.factors == ((2, 1, 1), (2, 2, 1))
    spec = scp_product_spec(parse_profile("--"))
    assert spec.factors == ((5, 1, 1), (5, 3, 1), (5, 5, 1), (10, 4, 1))
    spec = scp_product_spec(parse_profile("+-"))
    assert spec.factors == ((5, 3, 1), (5, 4, 1), (5, 5, 1), (10, 2, 1))
    spec = scp_product_spec(parse_profile("++"))
    assert spec.factors == ((5, 2, 1), (5, 4, 1), (5, 5, 1), (10, 6, 1))


def test_expansion_strategies_agree():
    for kind in CLASSICAL_KINDS:
        for order in list(range(61)) + [300]:
            exps = _classical_exponents(kind, order)
            assert _expand(exps, order) == geometric_reference(exps, order), (kind, order)
    for delta in profiles_up_to(3):
        specs = [dspp_product_spec(delta), scp_product_spec(delta)]
        if len(delta) >= 1:
            specs.append(cp_product_spec(delta))
        for spec in specs:
            exps = _spec_exponents(spec, 200)
            assert _expand(exps, 200) == geometric_reference(exps, 200), (delta.text, spec)
        for symmetric in (False, True):
            exps = _raw_exponents(*_positions(delta, symmetric), 60)
            assert _expand(exps, 60) == geometric_reference(exps, 60), (delta.text, symmetric)
    for order in (0, 1, 7):
        assert _expand({}, order) == [1] + [0] * order
        assert _expand({order + 1: 3, order + 5: 1}, order) == [1] + [0] * order


def test_expand_runs_leaves_and_blocks(monkeypatch):
    # at N = 300 the recursion packs blocks on three levels above leaves
    # of at most _LEAF terms; both must run and agree with the reference
    ranges = []
    solve = series._solve
    monkeypatch.setattr(
        series, "_solve", lambda a, acc, c, lo, hi: ranges.append(hi - lo) or solve(a, acc, c, lo, hi)
    )
    exps = _spec_exponents(dspp_product_spec(parse_profile("++-+-")), 300)
    assert _expand(exps, 300) == geometric_reference(exps, 300)
    assert max(ranges) == 301 and min(ranges) <= series._LEAF
    # (1 - z)^(-m) has coefficients C(m + n - 1, n): wide slots, every one of them full
    m = 10**6
    assert _expand({1: m}, 250) == [comb(m + n - 1, n) for n in range(251)]


def convolution(xs, ys):
    """Schoolbook product of two coefficient lists."""
    out = [0] * max(len(xs) + len(ys) - 1, 0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def test_packed_product_equals_convolution():
    def product(xs, ys, start=0, stop=None):
        stop = len(xs) + len(ys) - 1 if stop is None else stop
        return series._packed_product(xs, ys, start, stop)

    rng = random.Random(17)
    for lx in range(10):
        for ly in range(10):
            xs = [rng.choice((0, rng.getrandbits(rng.randrange(1, 70)))) for _ in range(lx)]
            ys = [rng.choice((0, rng.getrandbits(rng.randrange(1, 70)))) for _ in range(ly)]
            full = convolution(xs, ys)
            assert product(xs, ys) == full, (xs, ys)
            assert product([0] * lx, ys) == [0] * len(full)
            # requested ranges past slot 0, odd and even starts, as _solve asks
            for start in range(1, len(full) + 1, 3):
                assert product(xs, ys, start, len(full)) == full[start:]
                assert product(xs, ys, start, (start + len(full)) // 2) == full[start : (start + len(full)) // 2]
            if lx <= ly:  # an empty operand gives zero slots
                assert product(xs, ys, lx, ly) == (full + [0] * ly)[lx:ly]
            # a square of one list squares one int; an equal copy takes the general path
            assert product(xs, xs) == product(xs, list(xs)) == convolution(xs, xs)
            # every entry at its maximum: the middle slot sums reach the width bound,
            # which falls just past a byte boundary for these bit counts
            for bx in (1, 3, 8, 13):
                by = (1 - bx - min(lx, ly).bit_length()) % 8 + 8
                xs, ys = [2**bx - 1] * lx, [2**by - 1] * ly
                assert product(xs, ys) == convolution(xs, ys), (lx, ly, bx, by)
                assert product(xs, xs) == convolution(xs, xs)


def test_deep_block_levels_match_plain_recurrence(monkeypatch):
    # at order 1200 the blocks nest five levels deep; with _LEAF past the
    # order, the plain recurrence alone computes every coefficient
    order = 1200
    maps = [
        _spec_exponents(dspp_product_spec(parse_profile("+-+")), order),
        _spec_exponents(cp_product_spec(parse_profile("+-+-")), order),
        _spec_exponents(scp_product_spec(parse_profile("++-")), order),
        _classical_exponents("pp", order),
    ]
    blocked = [_expand(exps, order) for exps in maps]
    monkeypatch.setattr(series, "_LEAF", order + 1)
    assert [_expand(exps, order) for exps in maps] == blocked


def test_expand_leaves_no_reference_cycle():
    # a self-calling closure would be a cycle that keeps the coefficient
    # lists alive until the cyclic collector runs; the kernel frees them
    # by reference counting alone
    exps = _spec_exponents(dspp_product_spec(parse_profile("+-+")), 300)
    gc.collect()
    gc.disable()
    try:
        _expand(exps, 300)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_euler_division_is_checked():
    # (1 - z)^(-1/2) has non-integer coefficients: the recurrence must
    # refuse them instead of truncating the quotient
    with pytest.raises(ArithmeticError):
        _expand({1: Fraction(1, 2)}, 3)
