import gc
import random

import pytest

from planeparts import partitions
from planeparts.counting import _steps, count_dspp
from planeparts.partitions import (
    EMPTY,
    Partition,
    _ahead,
    _grow,
    _live_starts,
    _number,
    _pack,
    _strip_step,
    _strips,
    _trace,
    _unpack,
    _walk,
    _width,
    is_horizontal_strip,
    partitions_of,
    partitions_up_to,
)
from planeparts.schur import _letters, _zigzag, skew_schur_z


def brute_partitions(n, cap=None):
    """Independent oracle: all weakly decreasing positive tuples summing to n."""
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(cap, n), 0, -1):
        for rest in brute_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def strips(mu, up, lo, hi):
    """_strips' size buckets joined into one tuple, smallest size first."""
    return tuple(lam for bucket in _strips(mu, up, lo, hi) for lam in bucket)


def test_partition_validation():
    assert Partition((3, 1)) == (3, 1)
    assert Partition() == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_rendering_and_size():
    assert str(Partition((5, 2, 1))) == "[5,2,1]"
    assert str(EMPTY) == "[]"
    assert Partition((5, 2, 1)).size == 8
    assert EMPTY.size == 0


def test_horizontal_strip_examples():
    assert is_horizontal_strip((5, 4), (4, 1))
    assert is_horizontal_strip((), ())
    assert not is_horizontal_strip((1, 1), ())
    # not contained -> False, not an error
    assert not is_horizontal_strip((2,), (3,))
    assert not is_horizontal_strip((2,), (1, 1))


def conjugate(lam, width):
    return [sum(1 for part in lam if part >= j) for j in range(1, width + 1)]


def test_horizontal_strip_equals_column_definition():
    # mu inside lam, and lam/mu has at most one cell per column: the
    # conjugates differ by 0 or 1 in every column
    every = partitions_up_to(9)
    for lam in every:
        for mu in every:
            inside = len(mu) <= len(lam) and all(m <= l for l, m in zip(lam, mu))
            columns = map(lambda l, m: l - m, conjugate(lam, 9), conjugate(mu, 9))
            expect = inside and all(d in (0, 1) for d in columns)
            assert is_horizontal_strip(lam, mu) == expect, (lam, mu)


def test_horizontal_strip_reflexive_and_antisymmetric():
    for lam in partitions_up_to(6):
        assert is_horizontal_strip(lam, lam)
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            if is_horizontal_strip(lam, mu) and is_horizontal_strip(mu, lam):
                assert lam == mu


def test_strip_implies_containment():
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(6):
            if is_horizontal_strip(lam, mu):
                assert mu.size <= lam.size
                assert len(mu) <= len(lam)
                assert all(mu[i] <= lam[i] for i in range(len(mu)))


def test_partitions_up_to_small():
    assert list(partitions_up_to(0)) == [()]
    assert list(partitions_up_to(2)) == [(), (1,), (2,), (1, 1)]


def test_partitions_of_matches_brute_force():
    for n in range(9):
        got = list(partitions_of(n))
        expect = brute_partitions(n)
        assert [tuple(p) for p in got] == expect
    assert len(brute_partitions(5)) == 7
    assert sum(1 for p in partitions_up_to(5) if p.size == 5) == 7


def test_partitions_up_to_each_exactly_once():
    seen = partitions_up_to(8)
    assert len(seen) == len(set(seen))


def test_successors_examples():
    assert set(strips((), True, 0, 2)) == {(), (1,), (2,)}
    assert set(strips((1,), True, 0, 3)) == {(1,), (2,), (3,), (1, 1), (2, 1)}
    assert set(strips((2, 2), True, 0, 4)) == {(2, 2)}


def test_successors_equal_filter_oracle():
    for mu in partitions_up_to(5):
        for bound in range(mu.size, 8):
            got = set(strips(mu, True, 0, bound))
            expect = {
                lam for lam in partitions_up_to(bound) if is_horizontal_strip(lam, mu)
            }
            assert got == expect, (mu, bound)


def test_successors_no_duplicates():
    for mu in partitions_up_to(5):
        got = strips(mu, True, 0, 8)
        assert len(got) == len(set(got))


def test_predecessors_equal_filter_oracle():
    for mu in partitions_up_to(7):
        got = set(strips(mu, False, 0, mu.size))
        expect = {nu for nu in partitions_up_to(mu.size) if is_horizontal_strip(mu, nu)}
        assert got == expect, mu


def test_strips_equal_filter_oracle():
    # both directions, every window lo <= hi up to size 9, each partner once
    top = 9
    for mu in partitions_up_to(6):
        for up in (True, False):
            partners = [
                lam
                for lam in partitions_up_to(top)
                if (is_horizontal_strip(lam, mu) if up else is_horizontal_strip(mu, lam))
            ]
            for lo in range(top + 1):
                for hi in range(lo, top + 1):
                    got = strips(mu, up, lo, hi)
                    assert len(got) == len(set(got)), (mu, up, lo, hi)
                    expect = {lam for lam in partners if lo <= lam.size <= hi}
                    assert set(got) == expect, (mu, up, lo, hi)



def empty_registry(monkeypatch):
    """Swap in an empty registry; monkeypatch puts the process's back."""
    for name, value in (("_ids", {}), ("_parts", []), ("_sizes", []), ("_firsts", []),
                        ("_tables", ([], []))):
        monkeypatch.setattr(partitions, name, value)


def test_partner_tables_are_graded_slices(monkeypatch):
    # each (mu, direction) table, grown by the hi values a step asks for in
    # any order, holds the ids of _strips' partners by size, once each,
    # and every partner value is numbered once across the tables
    rng = random.Random(5)
    for arrange in (sorted, lambda his: sorted(his, reverse=True),
                    lambda his: rng.sample(his, len(his))):
        empty_registry(monkeypatch)
        for mu in partitions_up_to(6):
            i = _number([mu])[0]
            for up in (True, False):
                least = mu.size if up else mu.size - (mu[0] if mu else 0)
                top = mu.size + 6 if up else mu.size
                for hi in arrange(list(range(least, top + 1))):
                    # as _strip_step asks
                    table = partitions._tables[up][i]
                    if len(table) <= hi - least:
                        table = _grow(i, up, least, hi)
                    for lo in range(least, hi + 1):
                        got = strips(mu, up, lo, hi)
                        expect = [tuple(lam for lam in got if sum(lam) == s)
                                  for s in range(lo, hi + 1)]
                        window = [tuple(partitions._parts[j] for j in group)
                                  for group in table[lo - least : hi - least + 1]]
                        assert window == expect, (mu, up, lo, hi)
                assert partitions._tables[up][i] is table
                assert len(table) == top - least + 1, (mu, up)
                for k, group in enumerate(table):
                    sizes = {partitions._sizes[j] for j in group}
                    assert group and sizes == {least + k}, (mu, up, k)
                flat = [j for group in table for j in group]
                assert len(flat) == len(set(flat)), (mu, up)
        assert len(partitions._ids) == len(partitions._parts)
        assert all(partitions._ids[lam] == j for j, lam in enumerate(partitions._parts))


def test_registry_round_trips_ids_sizes_and_tables(monkeypatch):
    # every id names one partition, with its size and first part, and
    # entry k of its table in each direction holds exactly the ids of
    # _strips' partners of size least + k
    empty_registry(monkeypatch)
    starts = {lam: 0 for lam in partitions_up_to(5)}
    _walk(starts, _zigzag(((1, 2),), ((2, 1),)), 8)
    _walk({lam: lam.size for lam in partitions_up_to(4)}, _steps((1, -1, -1), 1), 12)
    parts = partitions._parts
    assert len(parts) > len(starts)
    grown = 0
    for i, lam in enumerate(parts):
        assert _number([lam]) == [i] and partitions._ids[lam] == i
        assert _number([Partition(tuple(lam))]) == [i]
        assert partitions._sizes[i] == sum(lam)
        assert partitions._firsts[i] == (lam[0] if lam else 0)
        for up in (True, False):
            least = sum(lam) if up else sum(lam) - (lam[0] if lam else 0)
            table = partitions._tables[up][i]
            grown += bool(table)
            for k, group in enumerate(table):
                assert list(group) == _number(strips(lam, up, least + k, least + k)), (lam, up, k)
    assert grown and len(parts) == len(partitions._ids)


def test_enumerators_build_valid_partitions():
    # partitions_of builds Partitions with tuple.__new__, skipping the
    # constructor's check, and _strips builds plain tuples, so what
    # either builds must pass it
    for lam in (lam for n in range(13) for lam in partitions_of(n)):
        assert type(lam) is Partition, lam
        assert Partition(tuple(lam)) == lam
        assert lam.size == sum(lam)
    for mu in partitions_up_to(6):
        for up in (True, False):
            for lam in strips(mu, up, 0, 12):
                assert type(lam) is tuple, lam
                assert Partition(lam) == lam
    assert not hasattr(Partition((2, 1)), "__dict__")


def test_strips_leave_no_garbage_cycles():
    # _strips' partners are freed by reference counting alone: with the
    # collector off, enumerating leaves nothing for it to find
    gc.collect()
    gc.disable()
    try:
        for mu in partitions_up_to(6):
            for up in (True, False):
                for lo, hi in ((0, 12), (sum(mu), sum(mu) + 3), (3, 5)):
                    _strips(mu, up, lo, hi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_partitions_built_once_per_size():
    assert partitions_of(7) is partitions_of(7)
    joined = partitions_up_to(7)
    assert joined == sum((partitions_of(k) for k in range(8)), ())
    assert all(a is b for a, b in zip(joined[-15:], partitions_of(7)))
    for bad in (-1, 2.5):
        with pytest.raises(ValueError):
            partitions_of(bad)

def reference_step(dist, up, order, a, m, candidates=None):
    """The strip step by brute force: every partition is a candidate,
    unless candidates(mu) names fewer."""
    largest = max(map(sum, dist), default=0) + order
    out = {}
    for mu, vec in dist.items():
        for lam in partitions_up_to(largest) if candidates is None else candidates(mu):
            if not (is_horizontal_strip(lam, mu) if up else is_horizontal_strip(mu, lam)):
                continue
            w = a * abs(sum(lam) - sum(mu)) + m * sum(lam)
            moved = [0] * w + list(vec[: max(order + 1 - w, 0)])
            if any(moved):
                acc = out.setdefault(lam, [0] * (order + 1))
                for d, c in enumerate(moved):
                    acc[d] += c
    return out


def test_strip_step_equals_reference_step():
    order = 7
    dist = {}
    for i, mu in enumerate(partitions_up_to(4)):
        # minimal degrees 0..order+1 (the last one an all-zero vector)
        mind = i % (order + 2)
        dist[mu] = [0] * mind + [1 + (d + i) % 3 for d in range(order + 1 - mind)]
    # every coefficient stays below 3 * 12 states, well inside 16 bits
    width = 16
    for a, m in ((0, 1), (0, 2), (1, 0), (2, 0), (3, 0)):
        for up in (True, False):
            packed = {i: _pack(vec, width) for i, vec in zip(_number(dist), dist.values())}
            got = _strip_step([packed], up, order, a, m, width)[0]
            got = {partitions._parts[i]: _unpack(v, width, order) for i, v in got.items()}
            assert got == reference_step(dist, up, order, a, m), (a, m, up)


def test_live_starts_are_the_movable_starts():
    # a start lam at z^|lam| is live iff its first step moves it
    width = 8
    for order in range(15):
        everything = partitions_up_to(order)
        for up in (True, False):
            for a, m in ((0, 1), (0, 2), (1, 0), (2, 0)):
                live = _live_starts([(up, a, m)], order)
                moved = [lam for lam in everything
                         if _strip_step([{_number([lam])[0]: 1 << lam.size * width}], up, order,
                                        a, m, width)[0]]
                assert set(live) == set(moved), (order, up, a, m)
                assert all(s == sum(lam) and Partition(lam) == lam
                           for lam, s in live.items())
                if m == 0:
                    # strip weights start from partitions_of's own objects,
                    # in partitions_up_to's order
                    assert len(live) == len(everything)
                    assert all(x is y for x, y in zip(live, everything)), (order, up, a)
            # the zero-weight closing step keeps every start
            assert list(_live_starts([(up, 0, 0)], order).items()) == [
                (lam, lam.size) for lam in everything]


def reference_trace(steps, order):
    """The trace by brute force: every beta takes every step, the last one
    too, and is read back at beta.  Every partition of size <= order is a
    candidate at every step: a step that costs something costs at least
    its size change, so no state of a chain weighing at most order is
    larger, and a closing step of zero weight must reach beta, however
    far below it the chain went."""
    out = [0] * (order + 1)
    every = partitions_up_to(order)
    for beta in every:
        sub = order - beta.size
        dist = {beta: [1] + [0] * sub}
        for up, a, m in steps:
            if dist:
                dist = reference_step(dist, up, sub, a, m, candidates=lambda mu: every)
        for d, c in enumerate(dist.get(beta, ())):
            out[beta.size + d] += c
    return out


def test_trace_equals_reference_trace():
    chains = (
        [],
        [(True, 1, 0)],
        [(False, 1, 0)],
        [(False, 1, 0), (True, 1, 0)],
        # strip-weighted, ending up and ending down
        [(False, 2, 0), (True, 1, 0), (False, 1, 0), (True, 3, 0)],
        [(True, 1, 0), (False, 3, 0), (True, 1, 0), (False, 2, 0)],
        # state-weighted, closing with no weight as a cylindric partition does
        [(True, 0, 1), (False, 0, 2), (True, 0, 0)],
        [(False, 0, 1), (True, 0, 1), (False, 0, 0)],
        [(True, 0, 2), (True, 0, 1), (False, 0, 1), (False, 0, 0)],
        # state-weighted closing step
        [(False, 0, 1), (True, 0, 1)],
    )
    for order in (6, 7):
        for steps in chains:
            assert _trace(steps, order) == reference_trace(steps, order), (order, steps)


def reference_walk(starts, steps, order):
    """The maps of a walk of reference steps from starts (state ->
    degree), the start map first.  Each step takes a state's partners
    from _strips, checked against the filter oracle above, since every
    partition up to twice the order would be too many candidates."""
    dist = {lam: ([0] * d + [1] + [0] * order)[: order + 1] for lam, d in starts.items()}
    out = [dist]

    def candidates(mu, up, vec):
        # every partner reference_step would keep: a move up pays at
        # least the cells it adds (a + m >= 1), within the budget left
        # above vec's least degree
        size = sum(mu)
        budget = order - next(d for d, c in enumerate(vec) if c)
        return strips(mu, up, 0, size + budget if up else size)

    for up, a, k in steps:
        dist = reference_step(dist, up, order, a, k,
                              lambda mu, up=up, dist=dist: candidates(mu, up, dist[mu]))
        out.append(dist)
    return out


def bumped(steps, m):
    """The chain with m more on its last step's m: its end state weighs
    z^(m*|lam|) more."""
    *body, (up, a, k) = steps
    return body + [(up, a, k + m)]


def packed_against_lists(starts, steps, order, m=0):
    """Walk starts (state -> degree) packed and as lists of reference
    steps, compare each end state, read as the walk's target, and the
    final sum weighted z^(m*|lam|), walked with m more on the last step,
    and return the largest coefficient the lists reached."""
    maps = reference_walk(starts, steps, order)
    dist = maps[-1]
    top = max(max(vec) for states in maps for vec in states.values())
    for lam, vec in dist.items():
        assert _walk(starts, steps, order, target=lam) == vec, lam
    total = [0] * (order + 1)
    for lam, vec in dist.items():
        for d in range(m * sum(lam), order + 1):
            total[d] += vec[d - m * sum(lam)]
    assert _walk(starts, bumped(steps, m), order) == total
    return max([top] + total)


def test_width_holds_the_worst_cases(monkeypatch):
    order = 10
    two = ((1, 2), (1, 2))
    chain = _zigzag(two, two)
    cases = [
        # the walks whose sides the kernels multiply afterwards: the open
        # right-hand side over two-letter alphabets, and p93B's with phi((1, 2))
        ({Partition((1,)): 0}, _zigzag(((1, 2, 1, 2),), ((1, 2, 1, 2),)), order),
        ({Partition((2, 1)): 0}, _letters(False, (1, 2)), order),
        # the longest battery chain, four diagonals of two letters each
        # (profile -+-+), as the complete left side: every start, weighted
        # z^|lam| by one more on the last step's m
        ({lam: 0 for lam in partitions_up_to(order)}, bumped(chain, 1), order),
    ]
    # the counting oracles' longest walks in the benchmark
    for m in (1, 2):
        cases.append(({lam: lam.size for lam in partitions_up_to(21)}, _steps((1, -1, 1), m), 21))
    # every walk of one case is given the same width, and it is read
    # off partitions._width as _walk asks for it
    widths = []

    def spied(*args):
        widths.append(_width(*args))
        return widths[-1]

    monkeypatch.setattr(partitions, "_width", spied)
    for starts, steps, n in cases:
        widths.clear()
        top = packed_against_lists(starts, steps, n)
        width = widths[0]
        assert widths == [width] * len(widths), (steps, widths)
        assert 0 < top < 1 << (width - 1), (steps, width, top)
    # the same chain closed, as the cylindric left side (order 8: the
    # brute-force trace takes ten times longer at order 10)
    got = _trace(chain, 8)
    assert got == reference_trace(chain, 8)
    assert max(got) < 1 << (_width(8, len(chain)) - 1)


def test_no_state_outgrows_the_size_of_its_width(monkeypatch):
    # _walk proves its slot width for size order + max(|lam| - d) over its
    # starts lam at z^d: an up step with a + m >= 1 pays at least the
    # cells it adds and a down step sheds cells, so a state outgrows its
    # start by at most order - d.  Random chains in mixed directions,
    # random start degrees, read summed and at a random target
    sizes, reached = [], []
    width, step = partitions._width, partitions._strip_step

    def spied_width(size, nsteps):
        sizes.append(size)
        return width(size, nsteps)

    def spied_step(*args):
        out = step(*args)
        reached.extend(partitions._sizes[i] for dist in out for i in dist)
        return out

    monkeypatch.setattr(partitions, "_width", spied_width)
    monkeypatch.setattr(partitions, "_strip_step", spied_step)
    rng = random.Random(24)
    weights = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1))
    tight = 0
    for _ in range(200):
        order = rng.randrange(12)
        steps = [(rng.random() < 0.5,) + rng.choice(weights) for _ in range(rng.randint(1, 5))]
        pool = partitions_up_to(min(order, 6))
        starts = {lam: rng.randrange(order - lam.size + 1)
                  for lam in rng.sample(pool, rng.randint(1, min(4, len(pool))))}
        size = rng.randrange(max(map(sum, starts)) + order + 1)
        target = rng.choice((None, rng.choice(partitions_of(size))))
        sizes.clear()
        reached.clear()
        _walk(starts, steps, order, target)
        assert len(sizes) == 1 and max(reached, default=0) <= sizes[0], (order, steps, starts)
        tight += max(reached, default=0) == sizes[0]
    # and the bound is met, not only kept
    assert tight


def test_random_chains_equal_the_references(monkeypatch):
    # random starts and chains of 1-4 steps in mixed directions, walked
    # and read at every state, summed, and closed as traces; each chain
    # gets an empty registry, so its first start holds id 0
    rng = random.Random(14)
    weights = ((0, 1), (0, 2), (1, 0), (2, 0))
    for _ in range(60):
        empty_registry(monkeypatch)
        order = rng.randrange(9)
        steps = [(rng.random() < 0.5,) + rng.choice(weights) for _ in range(rng.randint(1, 4))]
        pool = partitions_up_to(min(order, 5))
        starts = {lam: rng.randrange(order - lam.size + 1) if lam.size <= order else 0
                  for lam in rng.sample(pool, rng.randint(1, min(4, len(pool))))}
        packed_against_lists(starts, steps, order, m=rng.randrange(2))
        # a partition past every reachable size is never met, and reads as zeros
        far = Partition((order + 6,))
        assert _walk(starts, steps, order, target=far) == [0] * (order + 1)
        assert far not in partitions._ids
        closed = steps + [(rng.random() < 0.5, 0, 0)]
        assert _trace(closed, order) == reference_trace(closed, order), (order, closed)
    # skew_schur_z reads a lam no walk reached as the zero series
    empty_registry(monkeypatch)
    lam = Partition((9, 8))
    got = skew_schur_z(lam, (1,), (1, 2), 6)
    assert lam not in partitions._ids
    assert list(got.coeffs) == [0] * 7
    assert skew_schur_z((2, 1), (1,), (1, 2), 6) != got


def test_lookahead_reads_equal_the_references(monkeypatch):
    # random chains in mixed directions, weighing strips, states or both,
    # each read the three ways the callers read a walk: at one target
    # partition below or above the starts (target), summed weighted
    # z^|lam| by one more on the last step's m, and closed by a step of
    # any weight, zero weight
    # included (_trace).  Each read lets the walk drop the states that
    # cannot end there within the order (_ahead), and must lose nothing.
    rng = random.Random(16)
    weights = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1))
    for _ in range(80):
        empty_registry(monkeypatch)
        order = rng.randrange(1, 9)
        steps = [(rng.random() < 0.5,) + rng.choice(weights) for _ in range(rng.randint(1, 4))]
        pool = partitions_up_to(min(order, 5))
        starts = {lam: rng.randrange(order - lam.size + 1) if lam.size <= order else 0
                  for lam in rng.sample(pool, rng.randint(1, min(3, len(pool))))}
        ends = reference_walk(starts, steps, order)[-1]
        total = [0] * (order + 1)
        for lam, vec in ends.items():
            for d in range(sum(lam), order + 1):
                total[d] += vec[d - sum(lam)]
        assert _walk(starts, bumped(steps, 1), order) == total, (order, steps)
        # a reached end and a partition of any size up to the largest reachable
        size = rng.randrange(max(map(sum, starts)) + order + 1)
        targets = [rng.choice(partitions_of(size))] + ([rng.choice(sorted(ends))] if ends else [])
        for target in targets:
            got = _walk(starts, steps, order, target=target)
            assert got == ends.get(target, [0] * (order + 1)), (order, steps, starts, target)
        closed = steps + [(rng.random() < 0.5,) + rng.choice(weights + ((0, 0),) * 2)]
        assert _trace(closed, order) == reference_trace(closed, order), (order, closed)


def test_lookahead_keeps_only_states_that_can_end(monkeypatch):
    # count_dspp("++", 30): lam^0 at z^|lam^0| steps up to lam at z^|lam|,
    # and the second step charges |lam| again at the least, so the first
    # step keeps exactly the lam with |lam^0| + 2|lam| <= 30 for some
    # lam^0 ≺ lam, that is 3|lam| - lam_1 <= 30.  A window charging only
    # the move itself keeps every lam with 2|lam| - lam_1 <= 30: 2,035.
    # The first step is the closed form's map, read off _first_step.
    kept = []
    first = partitions._first_step

    def counted(*args):
        out = first(*args)
        kept.append(len(out))
        return out

    monkeypatch.setattr(partitions, "_first_step", counted)
    count_dspp((1, 1), 30)
    bound = sum(1 for lam in partitions_up_to(30) if 3 * lam.size - (lam[0] if lam else 0) <= 30)
    assert kept == [bound] and bound == 236
    weak = sum(1 for lam in partitions_up_to(30) if 2 * lam.size - (lam[0] if lam else 0) <= 30)
    assert weak == 2035


def test_live_starts_are_the_first_moves_with_the_lookahead():
    # a start lam at z^|lam| is live iff the chain's first _strip_step,
    # given _ahead's first bound as _walk passes it (no goal), keeps a
    # state; chains of 2-4 steps, so the rest of the chain charges the
    # new state's cells too
    rng = random.Random(18)
    weights = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (0, 0))
    width = 8
    seen = set()
    for _ in range(60):
        order = rng.randrange(15)
        steps = [(rng.random() < 0.5,) + rng.choice(weights) for _ in range(rng.randint(2, 4))]
        (up, a, m), ahead = steps[0], _ahead(steps)[0]
        moved = [lam for lam in partitions_up_to(order)
                 if _strip_step([{_number([lam])[0]: 1 << lam.size * width}], up, order,
                                a, m, width, ahead)[0]]
        live = _live_starts(steps, order)
        assert set(live) == set(moved), (order, steps)
        assert all(s == sum(lam) for lam, s in live.items())
        # the three ways a first step's window is read: up, down keeping
        # lam, and down dropping lam's first row (m + p > a), strip
        # weight included
        seen.add("up" if up else "keep" if a >= m + ahead[0] else "drop, a > 0" if a else "drop")
    assert seen == {"up", "keep", "drop", "drop, a > 0"}


def test_live_starts_charge_the_lookahead():
    # count_dspp("++", 45): a start lam^0 is live iff its cheapest chain,
    # lam^0 itself twice, fits: 3|lam^0| <= 45.  Charging only the first
    # step's own weight kept every |lam^0| <= 22, 4,508 starts
    steps = _steps((1, 1), 1)
    assert len(_live_starts(steps, 45)) == 684
    assert sum(1 for lam in partitions_up_to(15)) == 684
    assert sum(1 for lam in partitions_up_to(22)) == 4508


def test_live_starts_count_equals_the_map():
    # counted off _partition_counts or the windows' lengths, building no
    # partition, and equal to the map's size for random chains
    rng = random.Random(26)
    for _ in range(300):
        order = rng.randrange(31)
        steps = [(rng.random() < 0.5, rng.randrange(3), rng.randrange(3))
                 for _ in range(rng.randint(1, 4))]
        assert _live_starts(steps, order, count=True) == len(_live_starts(steps, order)), (order, steps)


def test_box_sums_the_partners():
    # the closed form against the partners _strips lists, up and down,
    # at z^q, read to several orders
    width = 16
    for q in (1, 2, 3):
        for order in (0, 5, 11):
            geos = partitions._geos(q, max(order, 7), width)
            for lam in partitions_up_to(7):
                for up in (True, False):
                    want = [0] * (order + 1)
                    for nu in strips(lam, up, 0, order // q + lam.size):
                        if q * sum(nu) <= order:
                            want[q * sum(nu)] += 1
                    got = _unpack(partitions._box(lam, up, q, order, width, geos), width, order)
                    assert got == want, (q, order, lam, up)


def test_first_step_is_one_strip_step_from_the_live_starts():
    # random first steps (up, 0, m), m in {1, 2}, charged p = 0..3 by the
    # steps after them, at orders up to 20: the closed form's map is the
    # map one _strip_step makes from every live start mu at z^|mu|
    rng = random.Random(261)
    width = _width(20, 5)
    for _ in range(80):
        order, up, m, p = rng.randrange(21), rng.random() < 0.5, rng.choice((1, 2)), rng.randrange(4)
        steps = [(up, 0, m)] + [(True, 0, 1)] * p + [(False, 0, 1)]
        assert _ahead(steps)[0][0] == p
        starts = _live_starts(steps, order)
        dist = {i: 1 << s * width for i, s in zip(_number(starts), starts.values())}
        walked = _strip_step([dist], up, order, 0, m, width, _ahead(steps)[0])[0]
        closed = partitions._first_step(steps, order, width)
        assert {i: _unpack(v, width, order) for i, v in closed.items()} == {
            i: _unpack(v, width, order) for i, v in walked.items()}, (order, steps)


def test_open_walks_equal_the_walked_reads():
    # random open chains with a = 0, as the counting oracles take them:
    # the closed-form ends read what _walk reads from the live starts
    rng = random.Random(262)
    for _ in range(80):
        order = rng.randrange(21)
        steps = [(rng.random() < 0.5, 0, rng.choice((1, 2))) for _ in range(rng.randint(1, 4))]
        assert partitions._open_walk(steps, order) == _walk(_live_starts(steps, order), steps, order), (
            order, steps)


def test_strip_step_moves_each_map_alone():
    # one call on several maps returns, in order, each map moved alone:
    # both directions, a strip and a state weight, with no goal and with
    # a goal and its lookahead.  Maps may hold the same start with other
    # vectors, and a partition reached from two maps stays in both,
    # with each map's own vector
    order, width = 6, 16
    ids = _number(partitions_up_to(3))
    maps = [{i: 1 << (i + j) % 3 * width for i in ids[j % 3 :: 2]} for j in (0, 1, 5)] + [{}]
    for up in (True, False):
        for a, m in ((0, 1), (1, 0)):
            chain = [(up, a, m), (not up, 1, 1)]
            for ahead, goal in (((0, None, None), None), (_ahead(chain)[0], 2)):
                got = _strip_step(maps, up, order, a, m, width, ahead, goal)
                alone = [_strip_step([dist], up, order, a, m, width, ahead, goal)[0]
                         for dist in maps]
                assert got == alone, (up, a, m, goal)
                assert got[-1] == {}
                shared = set(got[0]) & set(got[2])
                assert shared and any(got[0][i] != got[2][i] for i in shared), (up, a, m, goal)


def traced_steps(monkeypatch):
    """Record (goal, maps going in, states going in, states out) of every
    _strip_step call."""
    calls = []
    step = partitions._strip_step

    def recorded(dists, *args):
        out = step(dists, *args)
        calls.append((args[-1], len(dists), sum(map(len, dists)), sum(map(len, out))))
        return out

    monkeypatch.setattr(partitions, "_strip_step", recorded)
    return calls


def test_batched_traces_equal_the_references(monkeypatch):
    # random closed chains at orders 5-8, where every size from 2 up has
    # several betas, walked a size class at a time; each closing step,
    # both directions, with no weight, a state weight or a strip weight,
    # closes as many chains
    calls = traced_steps(monkeypatch)
    rng = random.Random(181)
    weights = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1))
    closings = [(up, a, m) for up in (True, False) for a, m in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))]
    for i in range(40):
        order = 5 + i % 4
        body = [(rng.random() < 0.5,) + rng.choice(weights) for _ in range(rng.randint(1, 3))]
        closed = body + [closings[i % len(closings)]]
        before = len(calls)
        assert _trace(closed, order) == reference_trace(closed, order), (order, closed)
        # one _strip_step per body step per size class of betas
        sizes = set(_live_starts(closed, order).values())
        assert len(calls) - before == len(body) * len(sizes), (order, closed)
    # and a call walks several betas at once, one map each
    assert max(maps for _, maps, _, _ in calls) > 3


def test_a_size_class_can_die_while_another_closes(monkeypatch):
    # the betas (5) and (4), (3, 1) are live for the first step down at
    # order 5, whose own window charges a start (k,) + nu at least
    # k + 2|nu|, but their walks cannot climb back to size 5 or 4 through
    # the closing up strip, which costs 2 a cell: both classes end at
    # their first step, while the small betas close
    calls = traced_steps(monkeypatch)
    chain = [(False, 0, 1), (True, 2, 0)]
    assert {(5,), (4,), (3, 1)} <= set(_live_starts(chain, 5))
    got = _trace(chain, 5)
    assert got == reference_trace(chain, 5) and any(got)
    dead = {goal for goal, _, ins, outs in calls if ins and not outs}
    closed = {goal for goal, _, ins, outs in calls if outs}
    assert {4, 5} <= dead and closed
