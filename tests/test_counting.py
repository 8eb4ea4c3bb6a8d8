import contextlib
import io
import json
from itertools import product

import pytest

from planeparts import counting, series
from planeparts.cli import main
from planeparts.counting import (
    count_cp,
    count_dspp,
    count_dspp_fillings,
    count_scp,
)
from planeparts.partitions import (
    _ahead,
    _first_step,
    _live_starts,
    _number,
    _partition_counts,
    _strip_step,
    _trace,
    _walk,
    _width,
    is_horizontal_strip,
    partitions_of,
    partitions_up_to,
)
from planeparts.profiles import parse_profile, profiles_up_to, reverse_negate
from planeparts.series import cp_gf, dspp_gf, scp_gf

PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def chains(delta, order):
    """Independent oracle: list every interlacing sequence outright."""
    states = partitions_up_to(order)
    seqs = [(lam,) for lam in states]
    for step in delta:
        nxt = []
        for seq in seqs:
            for lam in states:
                ok = (
                    is_horizontal_strip(lam, seq[-1])
                    if step == 1
                    else is_horizontal_strip(seq[-1], lam)
                )
                if ok:
                    nxt.append(seq + (lam,))
        seqs = nxt
    return seqs


def naive_count_dspp(delta, order):
    out = [0] * (order + 1)
    for seq in chains(delta, order):
        total = sum(p.size for p in seq)
        if total <= order:
            out[total] += 1
    return tuple(out)


def naive_count_cp(delta, order):
    out = [0] * (order + 1)
    for seq in chains(delta, order):
        if seq[0] != seq[-1]:
            continue
        total = sum(p.size for p in seq[:-1])
        if total <= order:
            out[total] += 1
    return tuple(out)


def naive_count_scp(delta, order):
    out = [0] * (order + 1)
    for seq in chains(delta, order):
        total = seq[0].size + 2 * sum(p.size for p in seq[1:])
        if total <= order:
            out[total] += 1
    return tuple(out)


def test_counting_takes_only_the_result_type_from_series():
    # the oracles stay independent of the product route they are checked against
    from_series = {name for name, value in vars(counting).items()
                   if value is series or getattr(value, "__module__", None) == series.__name__}
    assert from_series == {"TruncatedSeries"}


def test_count_dspp_paper_values():
    v = count_dspp(parse_profile("++"), 20)
    assert v[5] == 9 and v[10] == 64 and v[15] == 314 and v[20] == 1244


def test_count_dspp_small_cases():
    assert count_dspp(parse_profile(""), 10).coeffs == PARTITION_NUMBERS
    assert count_dspp(parse_profile("+"), 2)[2] == 2  # (empty,(2)) and ((1),(1))


def test_count_dspp_matches_naive_enumeration():
    for delta in profiles_up_to(2):
        assert count_dspp(delta, 5).coeffs == naive_count_dspp(delta, 5), delta


def test_count_cp_matches_naive_enumeration():
    for delta in profiles_up_to(2, 1):
        assert count_cp(delta, 5).coeffs == naive_count_cp(delta, 5), delta


def test_count_scp_matches_naive_enumeration():
    for delta in profiles_up_to(2):
        assert count_scp(delta, 6).coeffs == naive_count_scp(delta, 6), delta


def test_count_cp_examples():
    assert count_cp(parse_profile("+-"), 6) == cp_gf(parse_profile("+-"), 6)
    assert count_cp(parse_profile("++"), 6) == cp_gf(parse_profile("++"), 6)
    for delta in profiles_up_to(3, 1):
        assert count_cp(delta, 0)[0] == 1
    with pytest.raises(ValueError):
        count_cp(parse_profile(""), 4)


def test_count_scp_paper_values():
    v = count_scp(parse_profile("--"), 20)
    assert v[5] == 4 and v[10] == 17 and v[15] == 56 and v[20] == 161


def test_count_scp_empty_profile_agrees_with_product():
    # single free partition weighted by its size; the product side
    # degenerates to the plain partition product, and they agree
    assert count_scp(parse_profile(""), 6).coeffs == PARTITION_NUMBERS[:7]
    assert count_scp(parse_profile(""), 6) == scp_gf(parse_profile(""), 6)


def test_oracle_equals_product_per_family():
    for delta in profiles_up_to(3, 1):
        assert count_dspp(delta, 10) == dspp_gf(delta, 10), delta
        assert count_cp(delta, 10) == cp_gf(delta, 10), delta
        assert count_scp(delta, 10) == scp_gf(delta, 10), delta


def rotations(delta):
    """delta and reverse_negate(delta), each started at every index."""
    return [word[r:] + word[:r] for word in (delta, reverse_negate(delta)) for r in range(len(delta))]


def test_every_orientation_counts_alike():
    # reading a chain backwards turns a delta-chain into a
    # reverse_negate(delta)-chain, which keeps a dspp count, and starting
    # a closed chain at another index keeps a cp count: walked through
    # partitions directly, so that counting's choice among them rests on
    # a checked symmetry
    order = 14
    for delta in profiles_up_to(4, 1):
        walks = [_walk(_live_starts(steps, order), steps, order)
                 for steps in (counting._steps(word, 1) for word in (delta, reverse_negate(delta)))]
        assert walks[0] == walks[1], delta
        traces = [_trace(counting._closed_steps(word), order) for word in rotations(delta)]
        assert traces == [traces[0]] * len(traces), delta
    # an open count ranks each chain by the states its first step builds,
    # counted: as many as one walked strip step from the live starts makes
    for delta in profiles_up_to(6, 1):
        for m in (1, 2):
            steps = counting._steps(delta, m)
            width = _width(order, len(steps))
            starts = _live_starts(steps, order)
            dist = {i: 1 << s * width for i, s in zip(_number(starts), starts.values())}
            walked = _strip_step([dist], steps[0][0], order, 0, m, width, _ahead(steps)[0])[0]
            assert _first_step(steps, order, count=True) == len(walked), (delta, m)
        # cp ranks each rotation by one first step, which must have the
        # chain's own live starts
        if len(delta) >= 2:
            firsts = counting._first_steps(delta)
            for r, step in enumerate(firsts):
                chain = counting._closed_steps(delta[r:] + delta[:r])
                assert _live_starts([step], order) == _live_starts(chain, order), (delta, r)


def spy(monkeypatch, name):
    """The steps of each call of counting's name, recorded as it runs."""
    calls, real = [], getattr(counting, name)

    def recording(*args):  # _open_walk(steps, order), _trace(steps, order)
        calls.append(args[-2])
        return real(*args)

    monkeypatch.setattr(counting, name, recording)
    return calls


def test_counts_take_the_orientation_whose_first_step_builds_fewest_states(monkeypatch):
    walks, traces = spy(monkeypatch, "_open_walk"), spy(monkeypatch, "_trace")
    # "+-+" starts up with p = 0, "-+-" down with p = 1: their first steps
    # build 253 states against 30 at 18, and 762 against 67 at 24, though
    # "+-+" has the fewer live starts there, 97 against 113 and 272
    # against 281
    plus, minus = counting._steps(parse_profile("+-+"), 1), counting._steps(parse_profile("-+-"), 1)
    assert [_first_step(plus, 18, count=True), _first_step(minus, 18, count=True)] == [253, 30]
    assert [_live_starts(plus, 18, count=True), _live_starts(minus, 18, count=True)] == [97, 113]
    for order in (18, 24, 30):
        walks.clear()
        count_dspp(parse_profile("+-+"), order)
        assert walks == [minus], order
    # ties go to delta itself; "+--+-" and its reverse_negate "+-++-" both
    # start up with p = 0, and at 5 "++" (up, p = 1) and "--" (down,
    # p = 0) both build 4 states
    for text, order in (("+-", 30), ("+--+-", 30), ("++", 5), ("--", 5)):
        walks.clear()
        count_dspp(parse_profile(text), order)
        assert walks == [counting._steps(parse_profile(text), 1)], text
    delta = parse_profile("--+")
    count_cp(delta, 20)
    fewest = min(len(_live_starts(counting._closed_steps(word), 20)) for word in rotations(delta))
    assert traces[0] in [counting._closed_steps(word) for word in rotations(delta)]
    assert len(_live_starts(traces[0], 20)) == fewest < len(_live_starts(counting._closed_steps(delta), 20))
    # "++-++--" ties with its rotation "++--++-", both up with p = 1
    delta = parse_profile("++-++--")
    count_cp(delta, 20)
    assert traces[1] == counting._closed_steps(delta)
    # neither map keeps scp's weight: it walks delta's own steps
    walks.clear()
    for delta in profiles_up_to(3, 1):
        count_scp(delta, 12)
    assert walks == [counting._steps(delta, 2) for delta in profiles_up_to(3, 1)]
    # the CLI reports the profile it was given, not the one walked
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["count", "--family", "dspp", "--profile=+-+", "--order", "30", "--format", "json"]) == 0
    assert json.loads(out.getvalue())["profile"] == "+-+"
    assert walks[-1] == counting._steps(parse_profile("-+-"), 1)


def test_fillings_match_sequence_counts():
    for delta in profiles_up_to(2, 1):
        assert count_dspp_fillings(delta, 6) == count_dspp(delta, 6), delta
    assert count_dspp_fillings(parse_profile("-"), 4) == count_dspp(parse_profile("-"), 4)


def test_fillings_zero_size_always_one():
    for delta in profiles_up_to(2, 1):
        assert count_dspp_fillings(delta, 0)[0] == 1


def test_one_up_step_counts_partitions_at_depth():
    # an interlacing pair mu ≺ lam merges into one partition of size
    # |mu| + |lam| (lam_1, mu_1, lam_2, mu_2, ...), so dspp "+" is p(n);
    # with both ends in closed form, order 47 is cheap
    assert count_dspp(parse_profile("+"), 47).coeffs == _partition_counts(47)


def test_longer_profiles_still_agree_with_products():
    import random

    rng = random.Random(4)
    for _ in range(6):
        length = rng.choice((4, 5))
        delta = parse_profile("".join(rng.choice("+-") for _ in range(length)))
        assert count_dspp(delta, 10) == dspp_gf(delta, 10), delta
        assert count_cp(delta, 8) == cp_gf(delta, 8), delta
        assert count_scp(delta, 10) == scp_gf(delta, 10), delta


def test_random_profiles_agree_with_products_at_deep_orders():
    import random

    rng = random.Random(12)
    for _ in range(6):
        length = rng.randint(1, 4)
        delta = parse_profile("".join(rng.choice("+-") for _ in range(length)))
        assert count_dspp(delta, 26) == dspp_gf(delta, 26), delta
        assert count_scp(delta, 30) == scp_gf(delta, 30), delta
        assert count_cp(delta, 18) == cp_gf(delta, 18), delta


def test_fillings_refusals():
    with pytest.raises(ValueError):
        count_dspp_fillings(parse_profile("+-"), 9)
    with pytest.raises(ValueError):
        count_dspp_fillings(parse_profile(""), 4)
    # a negative order gets the expansion kernel's message
    with pytest.raises(ValueError, match=r"^order must be nonnegative, got -1$"):
        count_dspp_fillings(parse_profile("+-"), -1)


def test_stepless_chains_count_partitions_and_the_guard_keeps_its_tops(monkeypatch):
    # a chain with no step is lam^0 alone, at z^|lam^0|: the empty dspp and
    # scp profiles and cp of length 1 count the partitions of each size,
    # and never walk
    def walked(*args, **kwargs):
        raise AssertionError("a chain with no step was walked")

    monkeypatch.setattr(counting, "_open_walk", walked)
    monkeypatch.setattr(counting, "_trace", walked)
    for order in (0, 1, 12, 30):
        expect = tuple(len(partitions_of(n)) for n in range(order + 1))
        for got in (count_dspp((), order), count_scp((), order), count_cp((1,), order),
                    count_cp((-1,), order)):
            assert got.coeffs == expect, order
    monkeypatch.undo()
    # the guard charges the vectors alone: chains with no step run to 51
    # (cp of length 1, whose closing step counts, to 47), and the walks
    # keep their largest accepted orders
    cp_steps = counting._steps((1,), 1) + [(False, 0, 0)]
    for steps, top in (([], 51), ([(True, 0, 0)], 47), (counting._steps((1, 1), 1), 46),
                       (counting._steps((1,), 1), 47), (cp_steps, 46)):
        assert counting._guard(steps, top) == steps
        with pytest.raises(ValueError):
            counting._guard(steps, top + 1)
