import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from planeparts.partitions import Partition
from planeparts.profiles import (
    ExponentMultiset,
    Profile,
    _positions,
    all_profiles,
    diagonal_start_rows,
    diagonals_to_filling,
    epsilon,
    filling_to_diagonals,
    multiset_w1,
    multiset_w2,
    multiset_w3,
    multiset_w4,
    multiset_w5,
    pair_sums,
    parse_profile,
    profiles_up_to,
    region_cells,
    reverse_negate,
    run_lengths,
    sums,
)

FIG3 = parse_profile("+--+-+-+")
FIG3_DIAGONALS = [
    Partition(p)
    for p in [(4, 1), (5, 4), (5, 2), (3,), (4, 1), (2,), (2, 2), (2, 1), (5, 2, 1)]
]


def test_parse_profile():
    assert parse_profile("++") == (1, 1)
    assert parse_profile("+-") == (1, -1)
    assert parse_profile("-1,1") == (-1, 1)
    assert parse_profile("") == ()
    assert parse_profile("1") == (1,)
    assert parse_profile("+1, -1") == (1, -1)
    with pytest.raises(ValueError) as err:
        parse_profile("-1,2")
    assert "position 1" in str(err.value)
    # the first character that neither notation accepts, not the first
    # that the '+-' notation rejects
    for text, message in (("+x-", "'x' at position 1"), ("+,x", "'x' at position 2"),
                          ("1,-1,x", "'x' at position 5")):
        with pytest.raises(ValueError) as err:
            parse_profile(text)
        assert message in str(err.value)
    with pytest.raises(ValueError):
        Profile((1, 0))


def test_profile_text_roundtrip():
    for delta in profiles_up_to(4):
        assert parse_profile(delta.text) == delta


def test_epsilon():
    assert epsilon(parse_profile("++")) == -3
    assert epsilon(parse_profile("--")) == 3
    assert epsilon(parse_profile("+-")) == 1
    assert epsilon(parse_profile("")) == 0


def test_w1_w2_examples():
    assert multiset_w1(parse_profile("++")).elements() == (1, 2, 3)
    assert multiset_w2(parse_profile("++")).elements() == (3,)
    assert multiset_w1(parse_profile("+-")).elements() == (2, 2, 3)
    assert multiset_w2(parse_profile("+-")).elements() == (1,)
    assert multiset_w1(parse_profile("-+")).elements() == (1, 1, 3)
    assert multiset_w2(parse_profile("-+")).elements() == (5,)
    assert multiset_w1(parse_profile("")).elements() == (1,)
    assert multiset_w2(parse_profile("")).elements() == ()
    assert multiset_w1(parse_profile("++")).base == 3
    assert multiset_w2(parse_profile("++")).base == 6


def test_w3_examples():
    assert multiset_w3(parse_profile("+-")).elements() == (1, 2)
    assert multiset_w3(parse_profile("++")).elements() == (2,)
    assert multiset_w3(parse_profile("++-")).elements() == (1, 2, 3)
    assert multiset_w3(parse_profile("+-")).base == 2
    with pytest.raises(ValueError):
        multiset_w3(parse_profile(""))


def test_w4_w5_examples():
    assert multiset_w4(parse_profile("--")).elements() == (1, 3, 5)
    assert multiset_w5(parse_profile("--")).elements() == (4,)
    assert multiset_w4(parse_profile("+-")).elements() == (3, 4, 5)
    assert multiset_w5(parse_profile("+-")).elements() == (2,)
    assert multiset_w4(parse_profile("++")).elements() == (2, 4, 5)
    assert multiset_w5(parse_profile("++")).elements() == (6,)
    assert multiset_w4(parse_profile("--")).base == 5
    assert multiset_w5(parse_profile("--")).base == 10


def test_multiset_duplicates_tracked():
    em = multiset_w1(parse_profile("+-"))
    assert dict(em.residues)[2] == 2


def test_multiset_json_shape():
    em = multiset_w1(parse_profile("+-"))
    blob = json.dumps(em.to_json(), sort_keys=True)
    assert json.loads(blob) == {"base": 3, "residues": {"2": 2, "3": 1}}


def test_w_multiset_cardinalities():
    for delta in profiles_up_to(6):
        m = len(delta) + 1
        assert multiset_w1(delta).total_count() == m
        assert multiset_w2(delta).total_count() == (m - 1) * (m - 2) // 2
        assert multiset_w4(delta).total_count() == m
        assert multiset_w5(delta).total_count() == (m - 1) * (m - 2) // 2


def test_w_multiset_rational_sums():
    for delta in profiles_up_to(6):
        m = len(delta) + 1
        w1 = multiset_w1(delta).elements()
        w2 = multiset_w2(delta).elements()
        count_sum = sum(Fraction(1, m) for _ in w1) + sum(Fraction(1, 2 * m) for _ in w2)
        assert count_sum == Fraction(m * m + m + 2, 4 * m), delta
        t_sum = sum(Fraction(t, m) for t in w1) + sum(Fraction(t, 2 * m) for t in w2)
        assert t_sum == Fraction(m * m - m + 4, 4), delta
        w4 = multiset_w4(delta).elements()
        w5 = multiset_w5(delta).elements()
        q = 2 * m - 1
        count_sum_sym = sum(Fraction(1, q) for _ in w4) + sum(Fraction(1, 2 * q) for _ in w5)
        assert count_sum_sym == Fraction(m * m + m + 2, 4 * q), delta


def test_w1_w2_symmetric_under_reverse_negate():
    for delta in profiles_up_to(5):
        rev = reverse_negate(delta)
        assert multiset_w1(delta) == multiset_w1(rev)
        assert multiset_w2(delta) == multiset_w2(rev)


def test_w4_w5_not_reverse_negate_symmetric():
    # the symmetric-cylinder weight counts the two ends of the
    # half-sequence differently, so reversing the half-profile changes
    # the multisets: the single-index branches shift by one
    assert multiset_w4(parse_profile("+")).elements() == (2, 3)
    assert multiset_w4(parse_profile("-")).elements() == (1, 3)
    assert multiset_w5(parse_profile("++")).elements() == (6,)
    assert multiset_w5(parse_profile("--")).elements() == (4,)


def pair_loop_w2(delta, symmetric):
    """Reference: (base, residues) of w2 (w5 when symmetric) by a literal
    loop over position pairs p < q."""
    width, items = _positions(delta, symmetric)
    elems = Counter()
    for x, (p, ep) in enumerate(items):
        for q, eq in items[x + 1 :]:
            if ep == eq == -1:
                elems[p + q] += 1
            elif ep == eq == 1:
                elems[2 * width - p - q] += 1
            elif ep < eq:
                elems[2 * width + p - q] += 1
            else:
                elems[q - p] += 1
    return 2 * width, tuple(sorted(elems.items()))


def pair_loop_w3(delta):
    """Reference: (base, residues) of w3 by a literal loop over index pairs i < j."""
    h = len(delta)
    elems = Counter([h])
    for i in range(1, h + 1):
        for j in range(i + 1, h + 1):
            if delta[i - 1] > delta[j - 1]:
                elems[j - i] += 1
            elif delta[i - 1] < delta[j - 1]:
                elems[h + i - j] += 1
    return h, tuple(sorted(elems.items()))


def reference_profiles():
    """Every profile of length <= 8 and 200 seeded random ones of length <= 200."""
    rng = random.Random(19)
    return list(profiles_up_to(8)) + [
        Profile(rng.choice((1, -1)) for _ in range(rng.randint(0, 200))) for _ in range(200)
    ]


def test_pair_multisets_equal_pair_loops():
    for delta in reference_profiles():
        for w, symmetric in ((multiset_w2, False), (multiset_w5, True)):
            em = w(delta)
            assert (em.base, em.residues) == pair_loop_w2(delta, symmetric), delta
        if delta:
            em = multiset_w3(delta)
            assert (em.base, em.residues) == pair_loop_w3(delta), delta


def test_packed_sums_equal_double_loops():
    rng = random.Random(20)
    cases = [([], [], 5), ([3], [], 5), ([], [3], 5), ([3], [3], 5), ([3], [3], 6),
             ([0], [0], 0), ([4, 4, 4], [4, 4], 7), ([4, 4, 4], [4, 4], 8)]
    for _ in range(400):
        hi = rng.choice((1, 2, 6, 40, 200))
        xs = [rng.randint(0, hi) for _ in range(rng.randint(0, 12))]
        ys = [rng.randint(0, hi) for _ in range(rng.randint(0, 12))]
        cases.append((xs, ys, rng.choice((0, 1, 3, 12, 60, 450))))
    for xs, ys, top in cases:
        cross = Counter(x + y for x in xs for y in ys if x + y <= top)
        assert dict(sums(xs, ys, top)) == cross, (xs, ys, top)
        square = Counter(x + y for x in xs for y in xs if x + y <= top)
        assert dict(sums(xs, xs, top)) == square, (xs, top)
        pairs = Counter(xs[i] + xs[j] for i in range(len(xs)) for j in range(i + 1, len(xs))
                        if xs[i] + xs[j] <= top)
        assert dict(pair_sums(xs, top)) == pairs, (xs, top)


def test_exponent_multiset_validation():
    with pytest.raises(ValueError):
        ExponentMultiset(3, ((0, 1),))
    with pytest.raises(ValueError):
        ExponentMultiset(0, ((1, 1),))
    with pytest.raises(ValueError):
        ExponentMultiset(3, ((1, 0),))


def test_run_lengths():
    assert run_lengths(parse_profile("")) == ([0], [0])
    assert run_lengths(parse_profile("-")) == ([0], [1])
    assert run_lengths(parse_profile("+")) == ([1], [0])
    assert run_lengths(FIG3) == ([1, 1, 1, 1], [2, 1, 1, 0])


def test_region_empty_profile_is_main_diagonal():
    cells = region_cells(parse_profile(""), 5)
    assert cells == frozenset((i, i) for i in range(1, 6))
    with pytest.raises(ValueError):
        region_cells(parse_profile(""), 0)


def test_region_single_minus_is_width_two_strip():
    cells = region_cells(parse_profile("-"), 5)
    expect = {(c, d) for c in range(1, 6) for d in range(1, 6) if 0 <= d - c <= 1}
    assert cells == frozenset(expect)


def test_region_minus_plus_notch():
    cells = region_cells(parse_profile("-+"), 6)
    assert (1, 1) not in cells
    assert (2, 1) in cells and (2, 2) in cells and (1, 2) in cells
    assert all(-1 <= d - c <= 1 for c, d in cells)


def test_region_fig3_cell_count():
    # frozen from evaluating the three exclusion sets; the roundtrip below
    # pins the geometry independently
    assert len(region_cells(FIG3, 12)) == 79


def test_region_matches_diagonal_starts():
    for delta in profiles_up_to(4):
        window = 9
        cells = region_cells(delta, window)
        starts = diagonal_start_rows(delta)
        shift = delta.count_plus()
        expect = set()
        for k, start in enumerate(starts):
            c = start
            while c <= window and c + k - shift <= window:
                if c + k - shift >= 1:
                    expect.add((c, c + k - shift))
                c += 1
        assert cells == frozenset(expect), delta


def test_fig3_reading_roundtrip():
    values = diagonals_to_filling(FIG3, FIG3_DIAGONALS, 12)
    assert sum(values.values()) == 46
    cells = region_cells(FIG3, 12)
    assert filling_to_diagonals(cells, values, FIG3) == FIG3_DIAGONALS


def test_reading_all_zero_and_single_cell():
    delta = parse_profile("+-")
    cells = region_cells(delta, 6)
    assert filling_to_diagonals(cells, {}, delta) == [Partition()] * 3
    corner = min(cells)
    diags = filling_to_diagonals(cells, {corner: 1}, delta)
    assert sum(p.size for p in diags) == 1
    assert sum(1 for p in diags if p == (1,)) == 1


def test_reading_rejects_monotonicity_violation():
    delta = parse_profile("-")
    cells = region_cells(delta, 4)
    with pytest.raises(ValueError) as err:
        filling_to_diagonals(cells, {(1, 1): 1, (1, 2): 2}, delta)
    assert "(1,1)" in str(err.value) and "(1,2)" in str(err.value)


def test_reading_rejects_cell_outside_region():
    delta = parse_profile("-")
    cells = region_cells(delta, 4)
    with pytest.raises(ValueError):
        filling_to_diagonals(cells, {(4, 1): 1}, delta)


def test_reading_interlaces_per_profile():
    from planeparts.partitions import is_horizontal_strip

    for delta in profiles_up_to(3, 1):
        cells = region_cells(delta, 8)
        # saturate the region inside a triangle so the reading is nontrivial
        values = {(c, d): max(0, 5 - c - d + 2) for (c, d) in cells}
        values = {cell: v for cell, v in values.items() if v}
        diags = filling_to_diagonals(cells, values, delta)
        for i, step in enumerate(delta, start=1):
            lo, hi = diags[i - 1], diags[i]
            if step == 1:
                assert is_horizontal_strip(hi, lo), (delta, i)
            else:
                assert is_horizontal_strip(lo, hi), (delta, i)
        assert sum(p.size for p in diags) == sum(values.values())


def test_roundtrip_reconstruction_small_sequences():
    # place partitions on diagonals, read back, compare
    delta = parse_profile("-+-")
    seqs = [
        [Partition(), Partition(), Partition((1,)), Partition((1,))],
        [Partition((3, 2)), Partition((2, 2)), Partition((3, 2)), Partition((2, 1))],
    ]
    for diags in seqs:
        values = diagonals_to_filling(delta, diags, 10)
        cells = region_cells(delta, 10)
        assert filling_to_diagonals(cells, values, delta) == diags


def test_all_profiles_counts():
    assert len(all_profiles(0)) == 1
    assert len(all_profiles(3)) == 8
    assert len(profiles_up_to(3, 1)) == 14
