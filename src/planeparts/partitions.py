"""Integer partitions and the horizontal-strip (interlacing) relation.

Everything downstream works with sequences of partitions in which adjacent
terms differ by a horizontal strip, so this module fixes the partition
encoding once and for all: a weakly decreasing tuple of positive parts,
with no trailing zeros, so that equal partitions are equal tuples and can
key dictionaries directly.  Only the public constructor Partition(parts)
checks that encoding; partitions_of produces valid parts by
construction and builds its Partitions with tuple.__new__, which skips
the check.  A Partition has no instance dict, and partitions_of builds
each size's partitions once per process.  A plain tuple of the same
parts is equal to the Partition and hashes alike.

It also owns the one transfer built on that relation.  Inside it a
state is a small int: a process-wide registry numbers every partition
the transfer meets once (_number) and keeps, per id, the partition, its
size, its first part and its partner tables in both directions, so
every partner value is one shared object.  The partners, and the
down-starts of _live_starts, are plain tuples, which the garbage
collector untracks.  A chain is a list of (up, a, m) steps; _strip_step
moves a list of maps from state ids to truncated coefficient vectors
across one of them, each map as if alone, turning the order into a
window of sizes and reading the partners of each state in that window,
in either direction, off the state's partner table: its partners' ids
graded by size, one entry per size bucket of the one enumerator,
_strips, grown only as far as some step has asked (_grow).  The window
charges the move and the least the rest of the chain must still pay
from the new state (_ahead), so only states that can still end within
the order are made.  _walk numbers its starts and takes a chain's steps
in turn, told once how it will be read, and returns that read: the
vector at one target partition, or the sum over its end states.  A walk
is its starts, its chain and its read: every weight it applies is a
step's, and every bound it uses follows from those three, given that
each up step pays at least the cells it adds (a + m >= 1, which every
caller meets).  _trace sums a chain over its closed walks, lam^0 = lam^h,
each walk targeted at its own start; the starts of one size share that
target size, so they walk together, one transfer per size class with
one map per start, and each map closes against its own start.
_live_starts reads off the first step's window, with the lookahead's
charge, the starts that step can move at all: _trace's betas, and the
counting oracles' open starts.  The counting oracles and both sides of
every skew Schur identity only say which steps their chains take, with
partitions going in and lists coming out; ids never leave this module.

Inside the transfer a coefficient vector c_0..c_order is one int with
W-bit slots, sum_d c_d << d*W, so a move is one shift and one mask,
shared by all partners of one size.  W is fixed per walk from a proven
bound on its coefficients (_width) and never widened; _walk and _trace
unpack at the end, so callers see only lists.  The bound counts
partitions with _partition_counts, p(0..n) per size, which also gives
the counting oracles the chains with no step.
"""

from functools import lru_cache


class Partition(tuple):
    """A weakly decreasing tuple of positive integer parts.

    The empty partition is ``Partition()``.  Instances behave as plain
    tuples (hashable, comparable) and render as ``[5,2,1]`` / ``[]``.
    Partition(parts) raises ValueError on bad parts; partitions_of
    builds instances with tuple.__new__, unchecked, from parts valid by
    construction.  It is the public, validating type; the transfer's
    partners are plain tuples.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        t = tuple(parts)
        prev = None
        for p in t:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError("partition parts must be positive integers, got %r" % (p,))
            if prev is not None and p > prev:
                raise ValueError("partition parts must be weakly decreasing, got %r" % (t,))
            prev = p
        return super().__new__(cls, t)

    @property
    def size(self):
        """Sum of the parts."""
        return sum(self)

    def __str__(self):
        return "[%s]" % ",".join(str(p) for p in self)

    __repr__ = __str__


EMPTY = Partition()


def is_horizontal_strip(lam, mu):
    """True iff mu is contained in lam and lam/mu has at most one cell per column.

    Equivalent to the interlacing condition
    lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...  Returns False (rather than
    raising) when mu is not contained in lam.
    """
    if len(mu) > len(lam):
        return False
    for i, l in enumerate(lam):
        m = mu[i] if i < len(mu) else 0
        if m > l:
            return False
        if i + 1 < len(lam) and lam[i + 1] > m:
            return False
    return True


@lru_cache(maxsize=None)
def partitions_of(n):
    """The partitions of exactly n in descending lexicographic order.

    A tuple, built once per process: every caller of one size shares
    the same Partition objects.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer, got %r" % (n,))
    if n == 0:
        return (EMPTY,)
    out = []
    a = [n]
    while True:
        out.append(tuple.__new__(Partition, a))
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return tuple(out)
        a[j] -= 1
        rem = len(a) - j  # the removed unit plus all trailing ones
        a = a[: j + 1]
        cap = a[j]
        while rem > 0:
            c = min(cap, rem)
            a.append(c)
            rem -= c


def partitions_up_to(n):
    """All partitions of size 0..n, graded by size, descending lex within a size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return tuple(out)


def _strips(mu, up, lo, hi):
    """The lam with mu ≺ lam (up) or lam ≺ mu (down) and lo <= |lam| <= hi,
    as one list per size lo..hi of plain tuples.

    Interlacing bounds each part of lam by mu alone: up, part i lies in
    [mu_i, mu_{i-1}] (mu_0 read as hi, mu_{n+1} as 0); down, in
    [mu_{i+1}, mu_i].  So the sizes the later parts can still add form
    one interval, and one breadth-first pass extends each kept prefix by
    every value of the next part that can still bring |lam| into
    [lo, hi].  Each lam is listed once, in lexicographic order of its
    padded parts within a size.
    """
    if up:
        lows, highs = mu + (0,), (hi,) + mu
    else:
        lows, highs = mu[1:] + (0,), mu
    n = len(highs)
    # rest_lo[i], rest_hi[i]: the least and the most that parts i.. add
    rest_lo, rest_hi = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest_lo[i] = rest_lo[i + 1] + lows[i]
        rest_hi[i] = rest_hi[i + 1] + highs[i]
    # the kept prefixes, each with its sum; the ranges keep |lam| in the
    # window, and with no parts to choose (down from the empty
    # partition), only this test does
    level = [((), 0)] if max(lo, rest_lo[0]) <= min(hi, rest_hi[0]) else []
    for low, high, add_lo, add_hi in zip(lows, highs, rest_lo[1:], rest_hi[1:]):
        # only the last part's range reaches 0, which adds no part
        level = [
            (row + (v,) if v else row, spent + v)
            for row, spent in level
            for v in range(max(low, lo - spent - add_hi), min(high, hi - spent - add_lo) + 1)
        ]
    out = [[] for _ in range(lo, hi + 1)]
    for row, spent in level:
        out[spent - lo].append(row)
    return out


# ---------------------------------------------------------------------------
# the registry: every partition the transfer meets, numbered once

# partition -> id; per id, the partition, its size and its first part
# (0 for the empty partition)
_ids = {}
_parts = []
_sizes = []
_firsts = []
# per direction, down then up, per id: the partner table, () until a
# step asks for it
_tables = ([], [])


def _number(lams):
    """The ids of lams, a sequence of distinct partitions, numbering each
    one the registry has not met yet.  The partner tables hold these
    same int objects, and so every map keyed by them does."""
    fresh = [lam for lam in lams if lam not in _ids]
    n = len(_parts)
    _ids.update(zip(fresh, range(n, n + len(fresh))))
    _parts.extend(fresh)
    _sizes.extend(map(sum, fresh))
    _firsts.extend([lam[0] if lam else 0 for lam in fresh])
    for tables in _tables:
        tables.extend([()] * len(fresh))
    return list(map(_ids.__getitem__, lams))


def _grow(mu, up, least, hi):
    """The partner table of id mu in one direction, grown through size hi.

    Entry i is the tuple of the ids of mu's partners of size least + i,
    least being |mu| up and |mu| - mu_1 down.  Every size from least on
    (down, through |mu|) has a partner, so a window of sizes is a slice
    of the table, and each size bucket of _strips is one entry.  The
    table is extended only as far as some step has asked, and every step
    that meets mu again reuses it.
    """
    tables = _tables[up]
    table = tables[mu]
    found = _strips(_parts[mu], up, least + len(table), hi)
    table += tuple(tuple(_number(lams)) for lams in found)
    tables[mu] = table
    return table


# ---------------------------------------------------------------------------
# the transfer shared by the counting oracles and the identity sides


@lru_cache(maxsize=None)
def _partition_counts(n):
    """p(0), ..., p(n), the numbers of partitions of each size (built up
    part size by part size)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return tuple(p)


def _width(size, nsteps):
    """Slot bits, in whole bytes, that hold every coefficient of a walk.

    The walk takes nsteps steps from starts z^d, coefficients 1, and
    every state it reaches has size <= size.  A step lists each lam
    at most once per state mu, so it multiplies the largest coefficient
    by at most P(size), the number of partitions of size <= size.  A
    final sum over states is one factor more: an open walk's end sum,
    or for a trace, whose closing counts as a step, the sum over every
    beta.  So every value the walk holds is at most P(size)^(nsteps+1),
    and one bit more keeps a slot from ever filling.
    """
    bits = (sum(_partition_counts(size)) ** (nsteps + 1)).bit_length() + 1
    return -(-bits // 8) * 8


def _pack(vec, width):
    """One int holding the nonnegative values of vec in width-bit slots
    (whole bytes), lowest first."""
    nbytes = width // 8
    return int.from_bytes(b"".join([c.to_bytes(nbytes, "little") for c in vec]), "little")


def _unpack(v, width, order):
    """The order + 1 width-bit slots of v, lowest first."""
    nbytes = width // 8
    raw = v.to_bytes((order + 1) * nbytes, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def _packed_product(xs, ys, start, stop):
    """Slots start .. stop - 1 of the product of the polynomials with nonnegative
    coefficient lists xs and ys, by two-point Kronecker substitution (Harvey,
    J. Symbolic Comput. 2009): two big-int products of half-length operands.

    Slot s sums at most min(len(xs), len(ys)) products below 2^(bits of max x
    + bits of max y), so it is below 2^W at the whole-byte width W taken here.
    With b = W/2, a list whose even and odd entries pack at width W into E and
    O is E + (O << b) at +2^b and E - (O << b) at -2^b.  The products there
    give P+ + P- = 2 sum_i p_2i 2^(W i) and P+ - P- = 2^(b+1) sum_i p_2i+1
    2^(W i): both shifts are exact, and both halves are nonnegative and unpack
    by whole bytes, though P- may be negative.  When ys is xs, both products
    square one int object, which CPython does by its faster squaring path.
    """
    if not xs or not ys:
        return [0] * (stop - start)
    w = (max(xs).bit_length() + max(ys).bit_length() + min(len(xs), len(ys)).bit_length() + 7) // 8
    b = 4 * w
    def at(vs):  # the packed values at +2^b and at -2^b
        even, odd = _pack(vs[::2], 8 * w), _pack(vs[1::2], 8 * w) << b
        return even + odd, even - odd
    xp, xm = at(xs)
    yp, ym = (xp, xm) if ys is xs else at(ys)
    plus, minus = xp * yp, xm * ym
    nbytes, out = (len(xs) + len(ys)) // 2 * w, [0] * (stop - start)
    for k, half in (start % 2, (plus + minus) >> 1), (1 - start % 2, (plus - minus) >> (b + 1)):
        # out[k::2] are slots (start + k) // 2, ... of this half, w bytes each
        i, raw = (start + k) // 2 * w, half.to_bytes(nbytes, "little")
        offsets = range(i, i + (stop - start + 1 - k) // 2 * w, w)
        out[k::2] = [int.from_bytes(raw[j : j + w], "little") for j in offsets]
    return out


def _ahead(steps):
    """Per step of a chain, (p, u, d): what the steps after it must charge.

    A state of size t after step i pays at least max(p*t, u*(s-t)⁺ +
    d*(t-s)⁺) on the rest of the chain, when it must end at size s.
    Each of its t cells either stays to the end, paying every later m,
    or is removed by a later down strip j, paying the m of the steps
    before j and then a_j; p is the cheaper of those.  To end at s it
    must still gain s - t cells in up strips, each paying at least u,
    the least a of the later up steps, or shed t - s in down strips at d
    each; None when no such step is left, which no state off s survives.
    Both terms charge down strips, so they bound the rest by their max,
    not their sum.
    """
    out = []
    p, u, d = 0, None, None
    for up, a, m in reversed(steps):
        out.append((p, u, d))
        if up:
            p += m
            u = a if u is None else min(u, a)
        else:
            p = min(p + m, a)
            d = a if d is None else min(d, a)
    out.reverse()
    return out


def _strip_step(dists, up, order, a, m, width, ahead=(0, None, None), goal=None):
    """One single-letter horizontal-strip step of a transfer over partitions.

    dists is a list of maps, each from the id of a state mu to its
    packed vector, truncated at order; the moved maps are returned in
    the same order, each moved as if it were alone.  An open walk moves
    one map; _trace moves one per beta of a size class, and the window
    lines below serve them all.  Every mu moves to each lam with mu ≺
    lam (up) or lam ≺ mu (down), and the move multiplies by
    z^(a*|strip| + m*|lam|).  ahead is _ahead's bound on the rest of the
    chain for this step, and goal the size the chain must end at, if
    any.  The move's weight is linear in t = |lam| on each side of mu,
    and the bound on the rest is the max of three lines in t, so the
    moves whose weight and rest still fit the order have t in one
    window, cut by each line in closed form, and only they are made.
    The window is a slice of mu's partner table, and all partners of one
    size take the same shift, so v is shifted once per size.
    """
    # the weight is base + k*t, base = -a|mu| up and a|mu| down, and as
    # u, d >= 0 the rest is at least max(p*t, u*(s-t), d*(t-s)); a move
    # is made while base + c*t + e <= budget for every line (c, e) and
    # lo_at <= t <= hi_at
    k = a + m if up else m - a
    p, u, d = ahead
    lines = [(k + p, 0)]
    lo_at, hi_at = 0, None
    # a zero u or d adds a line that the p line already implies
    if goal is not None:
        if u is None:
            lo_at = goal
        elif u:
            lines.append((k - u, u * goal))
        if d is None:
            hi_at = goal
        elif d:
            lines.append((k + d, -d * goal))
    full = (1 << (order + 1) * width) - 1
    stride = k * width
    out = []
    sizes, firsts, tables = _sizes, _firsts, _tables[up]
    for dist in dists:
        ndist = {}
        out.append(ndist)
        get = ndist.get
        for mu, v in dist.items():
            if not v:
                continue
            budget = order - ((v & -v).bit_length() - 1) // width
            size = sizes[mu]
            if up:
                least = lo = size
                hi = size + budget
                base = -a * size
            else:
                # |lam| >= |mu| - mu_1 for every lam ≺ mu, where the table starts
                least = lo = size - firsts[mu]
                hi = size
                base = a * size
            room = budget - base
            for c, e in lines:
                if c > 0:
                    if (room - e) // c < hi:
                        hi = (room - e) // c
                elif c:
                    if -((room - e) // -c) > lo:
                        lo = -((room - e) // -c)
                elif room < e:
                    hi = -1
            if lo < lo_at:
                lo = lo_at
            if hi_at is not None and hi > hi_at:
                hi = hi_at
            if lo > hi:  # no move fits; asking would only grow the table
                continue
            table = tables[mu]
            if len(table) <= hi - least:
                table = _grow(mu, up, least, hi)
            shift = (base + k * lo) * width
            for group in table[lo - least : hi - least + 1]:
                w = (v << shift) & full
                for lam in group:
                    ndist[lam] = get(lam, 0) + w
                shift += stride
    return out


def _live_starts(steps, order):
    """The starts lam, at z^|lam|, that a chain's first step (up, a, m) can
    move, as a map lam -> |lam|.

    Read off _strip_step's window for that step with _ahead's first
    bound p and no goal, at budget order - |lam|: a move to lam' weighs
    a*|strip| + c*|lam'| at the least, c = m + p, each cell's own
    weight and the least the rest of the chain charges it.  Up,
    |lam'| >= |lam|, and so does down when a >= c, where the cheapest
    move keeps lam: |lam| <= order // (c+1), partitions_of's own
    objects in partitions_up_to's order.  Down with a < c, the cheapest
    move drops lam's first row: lam = (k,) + nu with k >= nu_1 and
    (a+1)k + (c+1)|nu| <= order.
    """
    (up, a, m), (p, _, _) = steps[0], _ahead(steps)[0]
    c = m + p
    top = order // (c + 1)
    if up or a >= c:
        return {lam: s for s in range(top + 1) for lam in partitions_of(s)}
    starts = {(): 0}
    for s in range(top + 1):
        for nu in partitions_of(s):
            for k in range(nu[0] if nu else 1, (order - (c + 1) * s) // (a + 1) + 1):
                starts[(k,) + nu] = k + s
    return starts


def _walk(starts, steps, order, target=None):
    """Take each (up, a, m) step of a chain in turn.

    starts maps each start state to its degree d; it starts at z^d, and
    the walk moves its one map of states through _strip_step.  The walk
    is linear in its starts, so a side that starts from a product (a
    kernel in schur) multiplies the read by it afterwards.  Every up
    step must have a + m >= 1: it then pays at least the cells it adds,
    no weight is negative, and down steps only shed cells, so a state
    outgrows its start lam at z^d by at most order - d, and every state
    has size <= order + max(|lam| - d), the size the slots are proven
    for.  The walk is told how it will be read, and returns that read:
    the vector of the partition target when one is given (zeros for a
    partition it never met), else the sum of the vectors of its end
    states; a weight on the end state, such as z^|lam^h|, is its last
    step's m.  Each step keeps only the states that can still end there
    within the order (_ahead).
    """
    width = _width(order + max(sum(lam) - d for lam, d in starts.items()), len(steps))
    full = (1 << (order + 1) * width) - 1
    dists = [{k: (1 << d * width) & full for k, d in zip(_number(starts), starts.values())}]
    goal = None if target is None else sum(target)
    for (up, a, m), ahead in zip(steps, _ahead(steps)):
        dists = _strip_step(dists, up, order, a, m, width, ahead, goal)
    dist = dists[0]
    if target is not None:
        return _unpack(dist.get(_ids.get(target), 0), width, order)
    return _unpack(sum(dist.values()), width, order)


def _trace(steps, order):
    """The sum over beta of z^|beta| times the weight of the chains from beta back to beta.

    Each beta starts at z^|beta| and walks all steps but the last.  The
    last step (up, a, m) is not taken: an end state mu closes if mu and
    beta interlace in its direction, and adds its vector shifted by
    a*|strip| + m*|beta|.  So a closing step may have zero weight,
    a == m == 0, which _strip_step cannot take; the empty chain is read
    as such a step alone, from beta to itself.  Each body step keeps only
    the states that can still close at beta within the order, the
    closing step counted among the steps ahead (_ahead).  Every state
    has size <= order, and one width serves every beta, so the closing
    vectors are summed packed.

    The betas of one size share that bound, so they walk together, one
    _strip_step per body step for the whole size class: each beta keeps
    its own map of states, and each map closes against its own beta.

    The betas are the chain's _live_starts: no other beta survives the
    first step, the closing one when there is no other (a lone closing
    step down with m > a weighs beta, so it keeps a few extra betas).
    """
    steps = steps or [(True, 0, 0)]
    *body, (up, a, m) = steps
    width = _width(order, len(steps))
    full = (1 << (order + 1) * width) - 1
    total = 0
    aheads = _ahead(steps)
    parts, sizes, test = _parts, _sizes, is_horizontal_strip
    classes = {}
    for beta, size in _live_starts(steps, order).items():
        classes.setdefault(size, []).append(beta)
    for size, betas in classes.items():
        start = 1 << size * width
        dists = [{i: start} for i in _number(betas)]
        for (b_up, b_a, b_m), ahead in zip(body, aheads):
            dists = _strip_step(dists, b_up, order, b_a, b_m, width, ahead, size)
        for beta, dist in zip(betas, dists):
            for i, v in dist.items():
                mu = parts[i]
                if test(beta, mu) if up else test(mu, beta):
                    total += (v << (a * abs(size - sizes[i]) + m * size) * width) & full
    return _unpack(total, width, order)
