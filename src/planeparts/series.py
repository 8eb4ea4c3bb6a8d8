"""Truncated formal power series over exact integers, and the product
generating functions of the three plane-partition families.

A series of order N stores exactly the coefficients of z^0..z^N as
arbitrary-precision Python ints; arithmetic never consults higher
exponents.  Every product in this package, the generating functions here
and the identity right-hand sides in schur alike, is a product of
factors 1/(1 - z^e) with e >= 1.  Each one is compiled to a single
representation, a truncated {exponent: multiplicity} map that keeps only
e <= N, and expanded by a single kernel, _expand: the Euler
(log-derivative) recurrence, solved as an online convolution by divide
and conquer, with each block's contribution read off two half-length
big-int products of Kronecker-packed values at +2^b and -2^b.

The map of the Schur-process kernel phi is its singles a_i and the sums
a_i + a_j over index pairs i < j, read off one packed square of their
tally by profiles.pair_sums.  A map shifted by k*step for every k, as the
products over k of phi(z^k X) and psi(z^k X, Y) need, is built once
and spread (_spread).  The right-hand side of the complete summation
formula is built once (_complete_exponents), for schur's complete check
at step 1 and for the raw dspp and scp products at step width; the raw
forms add their boundary pairs from the cross sums of profiles.sums,
the kernel the exponent multisets are built with.
"""

from collections import Counter
from math import gcd
from operator import add, itemgetter, mul

from .partitions import _packed_product
from .profiles import (
    Profile,
    _positions,
    multiset_w1,
    multiset_w2,
    multiset_w3,
    multiset_w4,
    multiset_w5,
    pair_sums,
    sums,
)


class TruncatedSeries:
    """Immutable power series truncated inclusively at a fixed order: the
    result of every route, whose coefficients count objects, so none is negative."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = tuple(map(int, coeffs))
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly %d coefficients, got %d" % (order + 1, len(coeffs)))
        if min(coeffs) < 0:
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError("TruncatedSeries is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs  # the order is len(coeffs) - 1

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "TruncatedSeries(order=%r, coeffs=%r)" % (self.order, self.coeffs)

    @classmethod
    def one(cls, order):
        return cls(order, (1,) + (0,) * order)

    def __getitem__(self, n):
        return self.coeffs[n]


# Blocks of at most this many coefficients run the plain recurrence.
_LEAF = 48


def _solve(a, acc, c, lo, hi):
    """Fill a[lo:hi] by the Euler recurrence n a_n = sum_{k=1..n} c_k a_{n-k}.

    On entry acc[n] holds sum_{j < lo} c_{n-j} a_j for every n in [lo, hi).
    A leaf adds the terms with j >= lo one by one and divides by n.  A
    longer range solves its left half, adds the left half's terms to every
    n of the right half as slots mid - lo .. hi - lo - 1 of the product of
    a[lo:mid] and c[:hi - lo] (_packed_product), then solves its right half.
    Each slot sums at most mid - lo nonnegative products, below 2^W at the
    packed width W, so of the products P+- at +-2^(W/2), the even slots
    (P+ + P-)/2 and odd slots (P+ - P-)/2^(W/2+1) are exact shifts that
    unpack by whole bytes with no borrow.

    A module-level function, not a closure that calls itself: the lists
    come in as arguments, so no call leaves a reference cycle that keeps
    them alive until the cyclic garbage collector runs.
    """
    if hi - lo <= _LEAF:
        for n in range(max(lo, 1), hi):
            a[n], r = divmod(acc[n] + sum(map(mul, a[lo:n], c[n - lo : 0 : -1])), n)
            if r:
                raise ArithmeticError("Euler recurrence: z^%d coefficient is not an integer" % n)
        return
    mid = (lo + hi) // 2
    _solve(a, acc, c, lo, mid)
    acc[mid:hi] = map(add, acc[mid:hi], _packed_product(a[lo:mid], c[: hi - lo], mid - lo, hi - lo))
    _solve(a, acc, c, mid, hi)


def _expand(exponents, order):
    """Coefficients of prod_e (1 - z^e)^(-m_e) over an {e: m_e} map, up to z^order.

    The one expansion kernel: the Euler recurrence n a_n = sum_{k=1..n}
    c_k a_{n-k}, where c_k = sum over e dividing k of e m_e (the
    logarithmic derivative), solved by _solve as an online convolution
    (van der Hoeven, "Relax, but don't be too lazy", 2002): about log2 of
    N / _LEAF levels of Kronecker-packed block products (Harvey 2009), and
    plain recurrence below that.  Every a_n comes out of a division by n
    that is exact for every product of 1/(1 - z^e) factors; a remainder
    means a wrong c_k and raises ArithmeticError.
    """
    if order < 0:
        raise ValueError("order must be nonnegative, got %d" % order)
    c = [0] * (order + 1)
    for e, m in exponents.items():
        for k in range(e, order + 1, e):
            c[k] += e * m
    a = [1] + [0] * order
    _solve(a, [0] * (order + 1), c, 0, order + 1)
    return a


def _product(exponents, order):
    return TruncatedSeries(order, _expand(exponents, order))


def _phi(exponents, order):
    """Exponent map of phi: each a_i, and a_i + a_j over index pairs i < j, up to order."""
    exps = Counter(e for e in exponents if e <= order)
    exps.update(pair_sums(exponents, order))
    return exps


def _psi(a_exponents, b_exponents, order):
    """Exponent map of psi: a_i + b_j over all pairs, up to order."""
    return Counter(a + b for a in a_exponents for b in b_exponents if a + b <= order)


def _spread(exps, step, order):
    """The map with each of its shifts by step, 2*step, ...: {e + k*step: m}
    over k >= 0, up to order."""
    out = Counter()
    for e, m in exps.items():
        for f in range(e, order + 1, step):
            out[f] += m
    return out


def _complete_exponents(head, alphabet, step, order):
    """Exponent map of the complete summation formula's right-hand side,
    phi(head) * prod_{k>=1} phi(z^(k*step) alphabet) / (1 - z^(k*step)),
    up to order.

    The singles of phi(z^(k*step) alphabet) are those at k = 1 shifted
    by (k-1)*step, its pair sums those at k = 1 shifted by 2*(k-1)*step:
    each part is built once and spread.
    """
    letters = [step + a for a in alphabet]
    exps = _phi(head, order)
    exps.update(range(step, order + 1, step))
    exps.update(_spread(Counter(letters), step, order))
    exps.update(_spread(pair_sums(letters, order), 2 * step, order))
    return exps


class ProductSpec(tuple):
    """A multiset of factors (x, y, mult), each denoting prod_{k>=0} (1-z^{x k+y})^(-mult):
    the record (factors,), factors merged and sorted by (x, y)."""

    __slots__ = ()
    factors = property(itemgetter(0))

    def __new__(cls, factors):
        merged = {}
        for x, y, mult in factors:
            if x < 1 or y < 1 or mult < 1:
                raise ValueError("factors need modulus, residue and multiplicity >= 1")
            merged[(x, y)] = merged.get((x, y), 0) + mult
        return super().__new__(cls, (tuple((x, y, m) for (x, y), m in sorted(merged.items())),))

    def __repr__(self):
        return "ProductSpec(factors=%r)" % self

    @classmethod
    def from_multisets(cls, *multisets):
        """Build from ExponentMultiset values; each residue becomes (base, residue, mult)."""
        factors = []
        for em in multisets:
            for t, m in em.residues:
                factors.append((em.base, t, m))
        return cls(tuple(factors))

    def merged_with(self, other):
        """Union of the two factor multisets (multiplicities add)."""
        return ProductSpec(self.factors + other.factors)

    def overall_gcd(self):
        return gcd(*(v for x, y, _ in self.factors for v in (x, y)))


def _spec_exponents(spec, order):
    """The truncated exponent map of a ProductSpec."""
    exps = Counter()
    for x, y, mult in spec.factors:
        for e in range(y, order + 1, x):
            exps[e] += mult
    return exps


def expand_product(spec, order):
    """Expand a ProductSpec to a TruncatedSeries; coefficients are nonnegative."""
    return _product(_spec_exponents(spec, order), order)


def dspp_product_spec(delta):
    """Factor multiset of the skew doubled shifted product formula."""
    delta = Profile(delta)
    return ProductSpec.from_multisets(multiset_w1(delta), multiset_w2(delta))


def cp_product_spec(delta):
    """Factor multiset of the cylindric product formula (profile length >= 1)."""
    return ProductSpec.from_multisets(multiset_w3(delta))


def scp_product_spec(delta):
    """Factor multiset of the symmetric cylindric product formula."""
    delta = Profile(delta)
    return ProductSpec.from_multisets(multiset_w4(delta), multiset_w5(delta))


def dspp_gf(delta, order):
    """Generating function of skew doubled shifted plane partitions by size."""
    return expand_product(dspp_product_spec(delta), order)


def cp_gf(delta, order):
    """Generating function of cylindric partitions by size (profile length >= 1)."""
    return expand_product(cp_product_spec(delta), order)


def scp_gf(delta, order):
    """Generating function of symmetric cylindric partitions by size."""
    return expand_product(scp_product_spec(delta), order)


def _raw_exponents(width, items, order):
    """Exponent map of the raw product form over signed positions.

    items lists (position, sign) per profile entry; X holds the -1
    positions and Y the +1 positions.  The form is

        prod_{p in Y, q in X, p < q} 1/(1 - z^(q-p))
        * phi(X) * prod_{k>=1} phi(z^(width*k) (X, -Y)) / (1 - z^(width*k)),

    the boundary pairs times the complete summation formula's right-hand
    side (_complete_exponents) at step width, with the letters of X and
    the negated letters of Y.  The boundary pairs are the cross sums
    q + (width - p) above width.
    """
    neg = [p for p, e in items if e == -1]
    pos = [p for p, e in items if e == 1]
    exps = _complete_exponents(neg, neg + [-p for p in pos], width, order)
    cross = sums(neg, [width - p for p in pos], width + order)
    exps.update({s - width: c for s, c in cross.items() if s > width})
    return exps


def dspp_gf_unsimplified(delta, order):
    """The skew doubled shifted generating function in its raw product form.

    The raw form at positions i and width h+1.  Equal to dspp_gf
    coefficientwise; keeping both forms makes the simplification an
    executable statement.
    """
    return _product(_raw_exponents(*_positions(delta, symmetric=False), order), order)


def scp_gf_unsimplified(delta, order):
    """The symmetric cylindric generating function in its raw product form.

    The raw form at positions 2i-1 and width 2h+1, so the boundary-pair
    exponents are 2(j-i) and the phi exponents odd.  Equal to scp_gf
    coefficientwise.
    """
    return _product(_raw_exponents(*_positions(delta, symmetric=True), order), order)


CLASSICAL_KINDS = ("pp", "shiftpp", "sympp")


def _classical_exponents(kind, order):
    """The truncated exponent map of a classical kind."""
    kind = kind.lower()
    if kind == "pp":  # exponent k with multiplicity k
        return {k: k for k in range(1, order + 1)}
    if kind == "shiftpp":  # phi over every k >= 1
        return _phi(range(1, order + 1), order)
    if kind == "sympp":  # phi over the odd k
        return _phi(range(1, order + 1, 2), order)
    raise ValueError("unknown kind %r; expected one of %s" % (kind, ", ".join(CLASSICAL_KINDS)))


def classical_gf(kind, order):
    """Classical generating functions: plane partitions ('pp'), shifted
    plane partitions ('shiftpp'), symmetric plane partitions ('sympp')."""
    return _product(_classical_exponents(kind, order), order)
