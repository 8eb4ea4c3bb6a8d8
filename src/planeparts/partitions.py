"""Integer partitions and the horizontal-strip (interlacing) relation.

Everything downstream works with sequences of partitions in which adjacent
terms differ by a horizontal strip, so this module fixes the partition
encoding once and for all: a weakly decreasing tuple of positive parts,
with no trailing zeros, so that equal partitions are equal tuples and can
key dictionaries directly.

It also owns the one transfer step built on that relation, _strip_step:
a map from partitions to truncated coefficient vectors, moved across
one horizontal strip.  The counting oracles and both sides of every
skew Schur identity are chains of such steps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


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


def contains(lam, mu):
    """True iff the diagram of mu fits inside the diagram of lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


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
def _strip_extensions(mu, budget):
    """All lam with mu ≺ lam and |lam| <= |mu| + budget, budget >= 0."""
    n = len(mu)
    out = []
    row = [0] * n

    def rec(i, spent):
        if i == n:
            top = (budget - spent) if n == 0 else min(mu[n - 1], budget - spent)
            base = row[:n]
            out.append(Partition(base))
            for v in range(1, top + 1):
                out.append(Partition(base + [v]))
            return
        lo = mu[i]
        hi = lo + budget - spent
        if i > 0:
            hi = min(hi, mu[i - 1])
        for v in range(lo, hi + 1):
            row[i] = v
            rec(i + 1, spent + v - lo)

    rec(0, 0)
    return tuple(out)


def horizontal_strip_successors(mu, max_total):
    """All lam with mu ≺ lam and |lam| <= max_total, each exactly once."""
    mu = Partition(mu)
    if mu.size > max_total:
        return ()
    return _strip_extensions(mu, max_total - mu.size)


@lru_cache(maxsize=None)
def horizontal_strip_predecessors(mu):
    """All nu with nu ≺ mu (mu/nu a horizontal strip)."""
    mu = Partition(mu)
    n = len(mu)
    if n == 0:
        return (EMPTY,)
    ranges = [range(mu[i + 1] if i + 1 < n else 0, mu[i] + 1) for i in range(n)]
    out = []
    for combo in product(*ranges):
        out.append(Partition([p for p in combo if p]))
    return tuple(out)


# ---------------------------------------------------------------------------
# the transfer step shared by the counting oracles and the identity sides


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
    |lam| <= cap when a cap is given.  a + m >= 1 for up steps, so every
    size increase costs a power of z, and only moves whose weight still
    fits the order are made.
    """
    ndist = {}
    for mu, vec in dist.items():
        mind = _min_degree(vec)
        if mind is None:
            continue
        budget = order - mind
        size = mu.size
        if up:
            # the weight is (a+m)(|lam|-|mu|) + m|mu|
            grow = (budget - m * size) // (a + m)
            if cap is not None:
                grow = min(grow, cap - size)
            if grow < 0:
                continue
            candidates = _strip_extensions(mu, grow)
            base, k = -a * size, a + m
        else:
            candidates = horizontal_strip_predecessors(mu)
            base, k = a * size, m - a
        for lam in candidates:
            w = base + k * lam.size
            if w > budget:
                continue
            acc = ndist.get(lam)
            if acc is None:
                acc = ndist[lam] = [0] * (order + 1)
            _shift_add(acc, vec, w, order)
    return ndist
