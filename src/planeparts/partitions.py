"""Integer partitions and the horizontal-strip (interlacing) relation.

Everything downstream works with sequences of partitions in which adjacent
terms differ by a horizontal strip, so this module fixes the partition
encoding once and for all: a weakly decreasing tuple of positive parts,
with no trailing zeros, so that equal partitions are equal tuples and can
key dictionaries directly.

It also owns the one transfer built on that relation.  A chain is a
list of (up, a, m) steps; _strip_step moves a map from partitions to
truncated coefficient vectors across one of them, turning the order
into a window of sizes and asking the one enumerator, _strips, for the
partners of each state in that window, in either direction.  _walk
takes a chain's steps in turn, and _trace sums a chain over its closed
walks, lam^0 = lam^h.  The counting oracles and both sides of every
skew Schur identity only say which steps their chains take.
"""

from __future__ import annotations

from functools import lru_cache


class Partition(tuple):
    """A weakly decreasing tuple of positive integer parts.

    The empty partition is ``Partition()``.  Instances behave as plain
    tuples (hashable, comparable) and render as ``[5,2,1]`` / ``[]``.
    """

    def __new__(cls, parts=()):
        t = tuple(parts)
        prev = None
        for p in t:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError("partition parts must be positive integers, got %r" % (p,))
            if prev is not None and p > prev:
                raise ValueError("partition parts must be weakly decreasing, got %r" % (t,))
            prev = p
        self = super().__new__(cls, t)
        self._size = sum(t)
        return self

    @property
    def size(self):
        """Sum of the parts."""
        return self._size

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


def partitions_of(n):
    """Yield the partitions of exactly n in descending lexicographic order."""
    if n == 0:
        yield EMPTY
        return
    a = [n]
    while True:
        yield Partition(a)
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        a[j] -= 1
        rem = len(a) - j  # the removed unit plus all trailing ones
        a = a[: j + 1]
        cap = a[j]
        while rem > 0:
            c = min(cap, rem)
            a.append(c)
            rem -= c


@lru_cache(maxsize=None)
def partitions_up_to(n):
    """All partitions of size 0..n, graded by size, descending lex within a size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return tuple(out)


@lru_cache(maxsize=None)
def _strips(mu, up, lo, hi):
    """All lam with mu ≺ lam (up) or lam ≺ mu (down) and lo <= |lam| <= hi.

    Interlacing bounds each part of lam by mu alone: up, part i lies in
    [mu_i, mu_{i-1}] (mu_0 read as hi, mu_{n+1} as 0); down, in
    [mu_{i+1}, mu_i].  So the sizes the later parts can still add form
    one interval, and parts are chosen first to last, each value tried
    only while |lam| can still land in [lo, hi].  Each lam is returned
    once, in lexicographic order of its padded parts.
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
    out = []
    row = [0] * n

    def rec(i, spent):
        if i == n:
            out.append(Partition([p for p in row if p]))
            return
        for v in range(
            max(lows[i], lo - spent - rest_hi[i + 1]),
            min(highs[i], hi - spent - rest_lo[i + 1]) + 1,
        ):
            row[i] = v
            rec(i + 1, spent + v)

    # the ranges keep |lam| in the window; with no parts to choose
    # (down from the empty partition), only this test does
    if max(lo, rest_lo[0]) <= min(hi, rest_hi[0]):
        rec(0, 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# the transfer shared by the counting oracles and the identity sides


def _min_degree(vec):
    for d, c in enumerate(vec):
        if c:
            return d
    return None


def _shift_add(dst, src, shift, order):
    """dst += z^shift * src, truncated at order."""
    for d, c in enumerate(src[: max(order + 1 - shift, 0)], shift):
        if c:
            dst[d] += c


def _collect(dist, order, m=0):
    """The sum over all states lam of z^(m*|lam|) times their vectors."""
    out = [0] * (order + 1)
    for lam, vec in dist.items():
        _shift_add(out, vec, m * lam.size, order)
    return out


def _strip_step(dist, up, order, a, m, cap=None):
    """One single-letter horizontal-strip step of a transfer over partitions.

    dist maps each state mu to its coefficient vector, truncated at order.
    Every mu moves to each lam with mu ≺ lam (up) or lam ≺ mu (down), and
    the move multiplies by z^(a*|strip| + m*|lam|).  Up moves keep
    |lam| <= cap when a cap is given.  Callers weigh either the strip or
    the new state, never both: a == 0 or m == 0, and a + m >= 1.  The
    weight is then monotone in |lam|, so the moves whose weight fits the
    order are those with |lam| in one window, and only they are made.
    """
    ndist = {}
    for mu, vec in dist.items():
        mind = _min_degree(vec)
        if mind is None:
            continue
        budget = order - mind
        size = mu.size
        if up:
            # the weight is (a+m)|lam| - a|mu|
            lo, hi = size, (a * size + budget) // (a + m)
            if cap is not None:
                hi = min(hi, cap)
            base, k = -a * size, a + m
        else:
            # |lam| >= |mu| - mu_1 for every lam ≺ mu; clamping to it
            # lets equal windows share one _strips entry
            least = size - (mu[0] if mu else 0)
            if a:
                lo, hi = max(size - budget // a, least), size
            else:
                lo, hi = least, min(budget // m, size)
            base, k = a * size, m - a
        if lo > hi:  # no move fits; asking would only fill the cache
            continue
        for lam in _strips(mu, up, lo, hi):
            acc = ndist.get(lam)
            if acc is None:
                acc = ndist[lam] = [0] * (order + 1)
            _shift_add(acc, vec, base + k * lam.size, order)
    return ndist


def _walk(dist, steps, order, cap=None):
    """Take each (up, a, m) step of a chain in turn; up steps keep |lam| <= cap."""
    for up, a, m in steps:
        dist = _strip_step(dist, up, order, a, m, cap)
    return dist


def _trace(steps, order):
    """The sum over beta of z^|beta| times the weight of the chains from beta back to beta.

    Each beta walks all steps but the last, with vectors truncated at
    order - |beta|.  The last step (up, a, m) is not taken: an end state
    mu closes if mu and beta interlace in its direction, and adds its
    vector shifted by |beta| + a*|strip| + m*|beta|.  So a closing step
    may have zero weight, a == m == 0, which _strip_step cannot take; the
    empty chain closes through such a step from beta to itself.
    """
    *body, (up, a, m) = steps or [(True, 0, 0)]
    out = [0] * (order + 1)
    for beta in partitions_up_to(order):
        size = beta.size
        sub = order - size
        for mu, vec in _walk({beta: [1] + [0] * sub}, body, sub).items():
            if is_horizontal_strip(beta, mu) if up else is_horizontal_strip(mu, beta):
                _shift_add(out, vec, size + a * abs(size - mu.size) + m * size, order)
    return out
