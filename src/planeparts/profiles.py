"""Profiles, their staircase regions, and the derived exponent multisets.

A profile is a finite ±1 sequence delta.  It encodes three things at once:

* a skew region of the quarter plane (a diagonal strip with a staircase
  notch cut out near the origin), obtained from the run-length
  decomposition delta = 1^{a_0} (-1)^{b_1} 1^{a_1} ... 1^{a_{r-1}} (-1)^{b_r};
* the up/down pattern of the diagonal reading of a filling of that
  region: reading diagonals left to right gives partitions
  lam^0, ..., lam^h with lam^{i-1} ≺ lam^i when delta_i = +1 and
  lam^{i-1} ≻ lam^i when delta_i = -1;
* the exponent multisets w1..w5.  Each generating function in this
  package is a product of factors 1/(1 - z^(base*k + t)) with t running
  over such a multiset and k >= 0; w1/w2 drive the skew doubled shifted
  family, w3 the cylindric family, w4/w5 the symmetric cylindric family.
  w4/w5 are not separate formulas: they are w1/w2 computed at positions
  2i - 1 and width 2m - 1 instead of positions i and width m.  series
  compiles every such product to one truncated exponent map and expands
  it with one kernel.

Every pair-indexed multiset (w2, w3, w5; phi's pair sums and the raw
boundary pairs in series) is one packed product of value tallies: sums
over two lists, pair_sums over index pairs i < j, folded to residues by
ExponentMultiset.from_counts.  Memory is O(h), not h^2/2 pair values.

Conventions.  Cells are (row, column), both >= 1, matrix orientation.
Diagonal k (k = 0..h) is the set of region cells with
column - row = k - |delta|_1; its first cell sits in row
1 + #{i > k : delta_i = +1}.  For the pair-indexed multisets the profile
has length m - 1 and indices run over 1 <= i < j <= m - 1.
"""

from collections import Counter
from functools import lru_cache
from operator import itemgetter

from .partitions import Partition, _packed_product


class Profile(tuple):
    """A ±1 sequence; the empty profile is Profile()."""

    def __new__(cls, entries=()):
        t = tuple(entries)
        for e in t:
            if e not in (1, -1):
                raise ValueError("profile entries must be +1 or -1, got %r" % (e,))
        return super().__new__(cls, t)

    @property
    def text(self):
        """Render as a '+-' string; the empty profile renders as ''."""
        return "".join("+" if e == 1 else "-" for e in self)

    def __str__(self):
        return self.text

    def count_plus(self):
        return sum(1 for e in self if e == 1)


def parse_profile(text):
    """Parse a profile from '+-' notation or a comma-separated list of ±1.

    Examples: "++" -> (1, 1);  "-1,1" -> (-1, 1);  "" -> empty profile.
    Raises ValueError naming the offending position on malformed input.
    """
    t = text.strip()
    if t == "":
        return Profile()
    if all(ch in "+-" for ch in t):
        return Profile(1 if ch == "+" else -1 for ch in t)
    for pos, ch in enumerate(t):
        if ch not in "+-0123456789, \t":
            raise ValueError("unexpected character %r at position %d" % (ch, pos))
    entries = []
    for pos, token in enumerate(t.split(",")):
        tok = token.strip()
        if tok in ("1", "+1"):
            entries.append(1)
        elif tok == "-1":
            entries.append(-1)
        else:
            raise ValueError("cannot parse profile entry %r at position %d" % (token, pos))
    return Profile(entries)


def reverse_negate(delta):
    """The profile read backwards with all signs flipped."""
    return Profile(-e for e in reversed(tuple(delta)))


def epsilon(delta):
    """-sum_i delta_i * i over 1-based positions."""
    return -sum(e * i for i, e in enumerate(tuple(delta), start=1))


class ExponentMultiset(tuple):
    """A multiset of residues t, each standing for the factors 1/(1-z^(base*k+t)), k >= 0:
    the record (base, residues), residues a sorted tuple of (residue, multiplicity)."""

    __slots__ = ()
    base = property(itemgetter(0))
    residues = property(itemgetter(1))

    def __new__(cls, base, residues):
        if base < 1:
            raise ValueError("base modulus must be >= 1")
        for t, m in residues:
            if t < 1:
                raise ValueError("residues must be >= 1, got %r" % (t,))
            if m < 1:
                raise ValueError("multiplicities must be >= 1, got %r" % (m,))
        return super().__new__(cls, (base, residues))

    def __repr__(self):
        return "ExponentMultiset(base=%r, residues=%r)" % self

    @classmethod
    def from_counts(cls, base, counts):
        """Build from a {t: multiplicity} map, each t folded to its residue in 1..base."""
        folded = Counter()
        for t, m in counts.items():
            folded[(t - 1) % base + 1] += m
        return cls(base, tuple(sorted(folded.items())))

    def elements(self):
        """The residues with multiplicity, sorted."""
        out = []
        for t, m in self.residues:
            out.extend([t] * m)
        return tuple(out)

    def total_count(self):
        return sum(m for _, m in self.residues)

    def to_json(self):
        return {"base": self.base, "residues": {str(t): m for t, m in self.residues}}


def _tally(values, top):
    """(lo, n): n[i] is how many of the values <= top equal lo + i, over their span."""
    kept = [v for v in values if v <= top]
    if not kept:
        return 0, []
    lo = min(kept)
    n = [0] * (max(kept) - lo + 1)
    for v in kept:
        n[v - lo] += 1
    return lo, n


def sums(xs, ys, top):
    """{s: count} of the sums x + y <= top over the pairs of an x in xs and
    a y in ys: one packed product of the two tallies, a square when ys is xs."""
    if not xs or not ys:
        return Counter()
    xlo, xn = _tally(xs, top - min(ys))
    ylo, yn = (xlo, xn) if ys is xs else _tally(ys, top - min(xs))
    slots = _packed_product(xn, yn, 0, min(top - xlo - ylo + 1, len(xn) + len(yn) - 1))
    return Counter({xlo + ylo + i: c for i, c in enumerate(slots) if c})


def pair_sums(values, top):
    """{s: count} of the sums a_i + a_j <= top over index pairs i < j: with
    A = sum_e n_e z^e over the values <= top - lo, the coefficients of
    (A^2 - A(z^2)) / 2 through z^top, two equal values pairing in C(n_e, 2)
    ways; the square is one packed product, the diagonal taken out in place."""
    lo, n = _tally(values, top)
    low = n[: max(top - 2 * lo + 1, 0)]
    square = _packed_product(low, low, 0, min(top - 2 * lo + 1, 2 * len(low) - 1))
    for i, c in enumerate(low[: (len(square) + 1) // 2]):
        square[2 * i] -= c
    return Counter({2 * lo + i: c // 2 for i, c in enumerate(square) if c})


def _indexed(delta):
    return list(enumerate(tuple(delta), start=1))


def _positions(delta, symmetric):
    """(width, [(position, sign)]) of a profile of length h = m - 1.

    The skew doubled shifted family puts entry i at position i, width
    m = h + 1; the symmetric cylindric family puts it at 2i - 1, width
    2m - 1.  Both families share their multiset and raw-product code
    through this map.
    """
    delta = Profile(delta)
    if symmetric:
        return 2 * len(delta) + 1, [(2 * i - 1, e) for i, e in _indexed(delta)]
    return len(delta) + 1, _indexed(delta)


def _single_multiset(delta, symmetric):
    """Residues width and, per entry, p at a -1 or width - p at a +1 (base width)."""
    width, items = _positions(delta, symmetric)
    elems = Counter([width] + [p if e == -1 else width - p for p, e in items])
    return ExponentMultiset.from_counts(width, elems)


def _pair_multiset(delta, symmetric):
    """Residues t_p + t_q mod 2 * width over position pairs p < q (base 2 * width),
    with t = p at a -1 and 2 * width - p at a +1: p + q, 2 * width - p - q,
    2 * width + p - q (a -1 first) or q - p (a +1 first)."""
    width, items = _positions(delta, symmetric)
    t = [p if e == -1 else 2 * width - p for p, e in items]
    return ExponentMultiset.from_counts(2 * width, pair_sums(t, 4 * width))


def multiset_w1(delta):
    """First exponent multiset of the skew doubled shifted family (base m)."""
    return _single_multiset(delta, symmetric=False)


def multiset_w2(delta):
    """Second exponent multiset of the skew doubled shifted family (base 2m)."""
    return _pair_multiset(delta, symmetric=False)


def multiset_w3(delta):
    """Exponent multiset of the cylindric family (base h = profile length):
    h, and j + (h - i) mod h over a -1 at j and a +1 at i, which is j - i
    when the +1 comes first and h + j - i when the -1 does."""
    delta = Profile(delta)
    h = len(delta)
    if h < 1:
        raise ValueError("cylindric profiles need length >= 1")
    items = _indexed(delta)
    elems = sums([j for j, e in items if e == -1], [h - i for i, e in items if e == 1], 2 * h)
    return ExponentMultiset.from_counts(h, elems + Counter([h]))


def multiset_w4(delta):
    """First exponent multiset of the symmetric cylindric family (base 2m-1):
    w1 at positions 2i-1 and width 2m-1."""
    return _single_multiset(delta, symmetric=True)


def multiset_w5(delta):
    """Second exponent multiset of the symmetric cylindric family (base 2(2m-1)):
    w2 at positions 2i-1 and width 2m-1."""
    return _pair_multiset(delta, symmetric=True)


def run_lengths(delta):
    """Run-length decomposition delta = 1^{a_0} (-1)^{b_1} ... 1^{a_{r-1}} (-1)^{b_r}.

    Returns (a, b) as lists with len(a) == len(b) == r, a[0] >= 0,
    b[-1] >= 0 and all interior runs >= 1.  The empty profile decomposes
    as a = [0], b = [0].
    """
    delta = Profile(delta)
    runs = []
    for e in delta:
        if runs and runs[-1][0] == e:
            runs[-1][1] += 1
        else:
            runs.append([e, 1])
    a, b = [], []
    if runs and runs[0][0] == 1:
        a.append(runs[0][1])
        runs = runs[1:]
    else:
        a.append(0)
    for sign, length in runs:
        (b if sign == -1 else a).append(length)
    if len(b) < len(a):
        b.append(0)
    assert len(a) == len(b)
    return a, b


def region_cells(delta, window):
    """All cells of the profile's region with both coordinates <= window.

    The region is the quarter plane minus three exclusion zones computed
    from the run-length decomposition: the staircase notch near the
    origin, the half plane row - col > sum(a), and the half plane
    col - row > sum(b).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    a, b = run_lengths(delta)
    r = len(a)
    total_a = sum(a)
    total_b = sum(b)

    notch_depth = [0] * (window + 1)  # per row c: columns 1..notch_depth[c] are cut out
    for i in range(1, r):
        c_lo = sum(a[k] for k in range(i + 1, r))
        c_hi = sum(a[k] for k in range(i, r))
        d_hi = sum(b[:i])
        for c in range(max(1, c_lo), min(c_hi, window) + 1):
            notch_depth[c] = max(notch_depth[c], d_hi)

    cells = set()
    for c in range(1, window + 1):
        for d in range(1, window + 1):
            if c - d > total_a or d - c > total_b:
                continue
            if d <= notch_depth[c]:
                continue
            cells.add((c, d))
    return frozenset(cells)


def diagonal_start_rows(delta):
    """Row of the first cell of each diagonal k = 0..h."""
    delta = Profile(delta)
    h = len(delta)
    starts = []
    for k in range(h + 1):
        starts.append(1 + sum(1 for i in range(k, h) if delta[i] == 1))
    return starts


def filling_to_diagonals(cells, values, delta):
    """Read a monotone filling of a region along its diagonals, left to right.

    ``values`` maps cells to nonnegative integers; missing cells count as
    zero.  Raises ValueError naming the first offending cell pair when the
    filling fails to decrease weakly along a row or column of ``cells``.
    Returns the list of h+1 partitions.
    """
    delta = Profile(delta)
    for cell, v in values.items():
        if cell not in cells:
            raise ValueError("value assigned to cell %r outside the region" % (cell,))
        if not isinstance(v, int) or v < 0:
            raise ValueError("cell %r carries a non-integer or negative value" % (cell,))

    def val(cell):
        return values.get(cell, 0)

    for (c, d) in sorted(cells):
        for nxt in ((c, d + 1), (c + 1, d)):
            if nxt in cells and val((c, d)) < val(nxt):
                raise ValueError(
                    "filling increases from cell (%d,%d) to cell (%d,%d)" % (c, d, nxt[0], nxt[1])
                )

    h = len(delta)
    shift = delta.count_plus()
    by_diag = {k: [] for k in range(h + 1)}
    for (c, d) in cells:
        k = (d - c) + shift
        if k not in by_diag:
            raise ValueError("cell (%d,%d) lies outside the strip of the profile" % (c, d))
        by_diag[k].append((c, d))
    diagonals = []
    for k in range(h + 1):
        vals = [val(cell) for cell in sorted(by_diag[k])]
        while vals and vals[-1] == 0:
            vals.pop()
        try:
            diagonals.append(Partition(vals))
        except ValueError:
            # possible only when the region has no row/column coupling
            # (the empty profile's bare diagonal)
            raise ValueError("diagonal %d does not read as a partition" % k) from None
    return diagonals


def diagonals_to_filling(delta, diagonals, window):
    """Place partition k on diagonal k of the region; inverse of the reading.

    Raises ValueError when a part would land outside the window.
    """
    delta = Profile(delta)
    h = len(delta)
    if len(diagonals) != h + 1:
        raise ValueError("need %d diagonals, got %d" % (h + 1, len(diagonals)))
    starts = diagonal_start_rows(delta)
    shift = delta.count_plus()
    cells = region_cells(delta, window)
    values = {}
    for k, lam in enumerate(diagonals):
        for t, part in enumerate(tuple(lam)):
            c = starts[k] + t
            d = c + (k - shift)
            if (c, d) not in cells:
                raise ValueError("part %d of diagonal %d falls outside the window" % (t, k))
            values[(c, d)] = part
    return values


@lru_cache(maxsize=None)
def all_profiles(length):
    """All 2^length profiles of the given length, lexicographic with +1 first."""
    if length == 0:
        return (Profile(),)
    shorter = all_profiles(length - 1)
    out = []
    for head in (1, -1):
        for tail in shorter:
            out.append(Profile((head,) + tuple(tail)))
    return tuple(out)


def profiles_up_to(max_length, min_length=0):
    """All profiles with min_length <= length <= max_length."""
    out = []
    for n in range(min_length, max_length + 1):
        out.extend(all_profiles(n))
    return tuple(out)
