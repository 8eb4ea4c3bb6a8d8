"""Brute-force counting of the three families, straight from the definitions.

These counters never touch the product formulas: from series.py they take
only the result type, TruncatedSeries, that every route returns.  They walk
sequences of partitions interlacing according to the profile, with a
transfer dynamic program: the state is the current boundary partition and
the value is the vector of accumulated weights, truncated at the target
order.  Each profile entry e is one horizontal-strip step (e == 1, 0, m)
of partitions' transfer, the same steps the skew Schur checks in schur.py
take once per letter: the new partition lam carries weight z^{m*|lam|},
m = 1 (m = 2 past the first diagonal of an scp).  A cylindric partition
is a closed chain, lam^0 = lam^h, summed by partitions._trace; its last
diagonal is lam^0 again and carries no weight of its own, so its
closing step is (delta_h == 1, 0, 0).  States whose minimal accumulated
degree exceeds the order are dropped, and a new state lam is only
proposed while its own weight, plus the least that the profile's later
steps must charge for it, still fits, on up and on down steps alike:
every cell of lam costs each later m until a down step removes it
(partitions._ahead).  No chain starts from a lam^0 its first step
cannot move within the order, that least charge included.  An open
chain's two ends sum boxes of partners, not products (partitions._box).
partitions keeps each vector as one int with W-bit slots, W proven from
the chain's length and the order (partitions._width); this module sees
only lists.  The bytes of the vectors are estimated before a walk
starts, and an order whose estimate passes VECTOR_BUDGET is refused
with ValueError.  A chain with no step (the empty dspp or scp profile,
a cp profile of length 1) is not walked: it is lam^0 alone, at
z^|lam^0|, so it counts the partitions of each size
(partitions._partition_counts).

Two bijections let a count walk another chain: read backwards, a
delta-chain is a reverse_negate(delta)-chain, which keeps dspp's sum
|lam^i|; started elsewhere, a closed chain rotates delta, which keeps
cp's cyclic sum.  count_dspp and count_cp take the orientation (2 for
dspp, 2h for cp) with the fewest live starts, counted, not built, delta
on a tie: dspp "+-+" at 44 has 4,508, "-+-" 3,232.  scp weighs lam^0
once and later lam^i twice, which neither map keeps.

count_dspp_fillings is the one genuinely exponential oracle: it fills
the staircase region cell by cell and exists to pin the diagonal-reading
correspondence against the filling definition.
"""

from .partitions import _live_starts, _open_walk, _partition_counts, _trace, _width
from .profiles import Profile, region_cells, reverse_negate
from .series import TruncatedSeries

FILLING_ORDER_BOUND = 8
# The most bytes a counting walk may hold, estimated before it starts:
# P(order) * (order + 1) * W/8 for the packed state vectors (W from
# partitions._width), the only proven bound.  At the largest orders
# accepted, a count CLI process peaks (VmHWM) far lower: dspp "++" at 46
# (estimate 232 MB) at 17 MB, "+" at 47 (212 MB) at 18 MB, "+-+" at 45
# (237 MB), walked as "-+-", at 19 MB, and cp "+-" at 46 (232 MB) at
# 65 MB, its trace holding a whole size class of betas at once.  Chains
# with no step peak at 16 MB: the empty profile at 51, cp "+" at 47.
VECTOR_BUDGET = 256 << 20


def _parse(delta, order):
    """The profile, once a negative order is refused with the kernel's message."""
    if order < 0:
        raise ValueError("order must be nonnegative, got %d" % order)
    return Profile(delta)


def _steps(delta, m):
    """One strip step per profile entry; each new state lam weighs z^{m*|lam|}."""
    return [(e == 1, 0, m) for e in delta]


def _guard(steps, order):
    """Refuse a walk whose state vectors would pass VECTOR_BUDGET bytes.

    The estimate grows with the order, so it is taken at each order up
    to this one: a huge order is refused at the first order over the
    budget, without counting the partitions of its own size.
    """
    for n in range(order + 1):
        if sum(_partition_counts(n)) * (n + 1) * _width(n, len(steps)) // 8 > VECTOR_BUDGET:
            raise ValueError(
                "order %d needs more than the %d MB of state vectors the counting "
                "oracles allow for a profile of length %d" % (order, VECTOR_BUDGET >> 20, len(steps))
            )
    return steps


def _first_steps(word, m, closed=False):
    """Per start r of word's chain (r = 0 alone when open), one step
    (up, 0, m + p) with the chain's live starts: with a = 0, those read
    only its first letter and _ahead's p, m per up letter after it up to
    a down one or the end, a closing letter (m = 0) adding none.  One
    backward pass over the up runs gives every start's in O(h)."""
    h = len(word)
    runs, run = [0] * (h + 1), 0  # runs[i]: the up letters from word[i % h] on, cyclically when closed
    for i in range(2 * h - 1 if closed else h - 1, -1, -1):
        run = run + 1 if word[i % h] == 1 else 0
        if i <= h:
            runs[i] = run
    return [(word[r] == 1, 0, m * (1 + min(runs[r + 1], h - 1 - closed))) for r in range(h if closed else 1)]


def _fewest_starts(words, order, m, closed=False):
    """The word, or when closed the rotation of one, whose chain has the
    fewest live starts, counted, not built; the first on a tie."""
    firsts = [(word, r, step) for word in words for r, step in enumerate(_first_steps(word, m, closed))]
    counts = {step: _live_starts([step], order, count=True) for step in {step for _, _, step in firsts}}
    word, r, _ = min(firsts, key=lambda first: counts[first[2]])
    return word[r:] + word[:r]


def _open_chains(words, order, m):
    """lam^0 weighted z^{|lam^0|}, walked through the one of words with
    the fewest live starts, the first on a tie (partitions._open_walk);
    with no step, lam^0 alone, which counts the partitions of each size.
    Each starts at z^|lam^0| and a new state costs m*|lam| >= |lam|, so
    no state outgrows the order, the size the walk proves its slot width
    for, as _guard charges it."""
    if not _guard(words[0], order):  # the guard charges the chain's length alone
        return TruncatedSeries(order, _partition_counts(order))
    return TruncatedSeries(order, _open_walk(_steps(_fewest_starts(words, order, m), m), order))


def _closed_steps(delta):
    """A closed chain: m = 1 on every letter but the last, an unweighted closing step."""
    return _steps(delta[:-1], 1) + [(delta[-1] == 1, 0, 0)]


def count_dspp(delta, order):
    """Number of interlacing sequences (lam^0..lam^h) per profile, by total size."""
    delta = _parse(delta, order)
    return _open_chains((delta, reverse_negate(delta)), order, 1)


def count_cp(delta, order):
    """Number of cylindric partitions by size: closed sequences lam^0 = lam^h,
    sized without the last diagonal."""
    delta = _parse(delta, order)
    if len(delta) < 1:
        raise ValueError("cylindric profiles need length >= 1")
    if len(_guard(delta, order)) == 1:  # lam^0 closes with itself alone
        return TruncatedSeries(order, _partition_counts(order))
    word = _fewest_starts((delta, reverse_negate(delta)), order, 1, closed=True)
    return TruncatedSeries(order, _trace(_closed_steps(word), order))


def count_scp(delta, order):
    """Number of symmetric cylindric partitions by size: half-sequences
    interlacing per the profile, weighted z^{|lam^0| + 2 sum_{i>=1} |lam^i|}."""
    return _open_chains((_parse(delta, order),), order, 2)


def count_dspp_fillings(delta, order):
    """Count monotone fillings of the staircase region directly, by total size.

    Exponential; refuses orders above FILLING_ORDER_BOUND.  The empty
    profile is refused too: its region is a bare diagonal whose cells
    share no row or column, so the filling definition puts no constraint
    between them and the count is not finite.  The cells fill the window
    order + h + 1, which contains every cell a nonzero value can reach.
    """
    delta = _parse(delta, order)
    if order > FILLING_ORDER_BOUND:
        raise ValueError(
            "filling enumeration is exponential; order %d exceeds the bound %d"
            % (order, FILLING_ORDER_BOUND)
        )
    if len(delta) == 0:
        raise ValueError("filling enumeration needs a profile of length >= 1")

    cells = sorted(region_cells(delta, order + len(delta) + 1))
    counts = [0] * (order + 1)
    values = {}

    def rec(idx, total):
        if idx == len(cells) or total == order:
            counts[total] += 1
            return
        c, d = cells[idx]
        cap = order - total
        up = values.get((c - 1, d))
        if up is not None:
            cap = min(cap, up)
        left = values.get((c, d - 1))
        if left is not None:
            cap = min(cap, left)
        for v in range(cap + 1):
            values[(c, d)] = v
            rec(idx + 1, total + v)
        del values[(c, d)]

    rec(0, 0)
    return TruncatedSeries(order, counts)
