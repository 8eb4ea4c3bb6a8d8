"""Truncated formal power series over exact integers, and the product
generating functions of the three plane-partition families.

A series of order N stores exactly the coefficients of z^0..z^N as
arbitrary-precision Python ints; arithmetic never consults higher
exponents.  Every product in this package, the generating functions here
and the identity right-hand sides in schur alike, is a product of
factors 1/(1 - z^e) with e >= 1.  Each one is compiled to a single
representation, a truncated {exponent: multiplicity} map that keeps only
e <= N, and expanded by a single kernel, _expand.  The kernel has two
strategies and reads their costs off the map: in-place geometric passes,
one per factor, cost sum_e m_e (N - e + 1) big-int additions; the Euler
(log-derivative) recurrence costs about N^2/2 products whatever the
multiplicities.  It takes the recurrence when the passes would cost more
than _EULER_COST_RATIO times as much.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import mul

from .profiles import (
    Profile,
    _positions,
    multiset_w1,
    multiset_w2,
    multiset_w3,
    multiset_w4,
    multiset_w5,
)


class TruncatedSeries:
    """Immutable power series truncated inclusively at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly %d coefficients, got %d" % (order + 1, len(coeffs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def one(cls, order):
        return cls(order, (1,) + (0,) * order)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self):
        return "TruncatedSeries(order=%d, %s)" % (self.order, list(self.coeffs))

    __repr__ = __str__


def _geometric(coeffs, e, order):
    """In place: multiply the coefficient list by 1/(1 - z^e)."""
    for i in range(e, order + 1):
        coeffs[i] += coeffs[i - e]


def _expand_passes(exponents, order):
    """The product by geometric passes, one per factor.

    Passes run from the largest exponent down: the early passes then add
    mostly zeros and small ints, and only the last few work on the
    full-size coefficients.
    """
    coeffs = [1] + [0] * order
    for e in sorted(exponents, reverse=True):
        if e <= order:
            for _ in range(exponents[e]):
                _geometric(coeffs, e, order)
    return coeffs


def _expand_euler(exponents, order):
    """The product by the Euler recurrence n a_n = sum_{k=1..n} c_k a_{n-k},
    where c_k = sum over e dividing k of e m_e (the logarithmic derivative).

    The division by n is exact for every product of 1/(1 - z^e) factors;
    a remainder means a wrong c_k and raises ArithmeticError.
    """
    c = [0] * (order + 1)
    for e, m in exponents.items():
        for k in range(e, order + 1, e):
            c[k] += e * m
    c.reverse()  # c[order - k] is c_k, so a slice lines up with a_0..a_{n-1}
    coeffs = [1]
    for n in range(1, order + 1):
        a, r = divmod(sum(map(mul, coeffs, c[order - n :])), n)
        if r:
            raise ArithmeticError("Euler recurrence: z^%d coefficient is not an integer" % n)
        coeffs.append(a)
    return coeffs


# Cost of the geometric passes over the Euler cost (order^2 / 2) above
# which _expand takes the recurrence.  Measured with identical
# coefficients, passes vs recurrence (2-vCPU box, CPython 3.11): pp at
# N = 240 0.20 s vs 0.004 s (cost ratio 81), shiftpp at N = 360 0.37 s
# vs 0.008 s (61), sympp at N = 720 0.58-0.67 s vs 0.023-0.027 s (31);
# dspp/cp/scp products of length-3 and length-5 profiles at N = 1500
# 0.015-0.27 s vs 0.05-0.17 s (0.20-1.84), with the recurrence faster
# from a ratio of about 1.4.  The ratio reads 30 or more on every
# classical map and at most 1.84 on every profile product of length
# up to 5 at N = 1400-1550, so 4 leaves a wide margin on both sides.
_EULER_COST_RATIO = 4


def _expand(exponents, order):
    """Coefficients of prod_e (1 - z^e)^(-m_e) over an {e: m_e} map, up to z^order.

    The one expansion kernel.  It takes the Euler recurrence when the
    geometric passes would cost more than _EULER_COST_RATIO times the
    recurrence's order^2 / 2 products, and the passes otherwise.  Both
    return the same integers.
    """
    if order < 0:
        raise ValueError("order must be nonnegative, got %d" % order)
    passes = sum(m * (order - e + 1) for e, m in exponents.items() if e <= order)
    if 2 * passes > _EULER_COST_RATIO * order * order:
        return _expand_euler(exponents, order)
    return _expand_passes(exponents, order)


def _product(exponents, order):
    return TruncatedSeries(order, _expand(exponents, order))


def _phi(exponents, order):
    """Exponent map of phi: each a_i, and a_i + a_j over index pairs i < j, up to order."""
    exps = Counter()
    a = sorted(exponents)
    for x, ax in enumerate(a):
        if ax > order:
            break
        exps[ax] += 1
        for ay in a[x + 1 :]:
            if ax + ay > order:
                break
            exps[ax + ay] += 1
    return exps


def _psi(a_exponents, b_exponents, order):
    """Exponent map of psi: a_i + b_j over all pairs, up to order."""
    return Counter(a + b for a in a_exponents for b in b_exponents if a + b <= order)


@dataclass(frozen=True)
class ProductSpec:
    """A multiset of factors (x, y, mult), each denoting prod_{k>=0} (1-z^{x k+y})^(-mult)."""

    factors: tuple

    def __post_init__(self):
        merged = {}
        for x, y, mult in self.factors:
            if x < 1 or y < 1 or mult < 1:
                raise ValueError("factors need modulus, residue and multiplicity >= 1")
            merged[(x, y)] = merged.get((x, y), 0) + mult
        object.__setattr__(
            self, "factors", tuple((x, y, m) for (x, y), m in sorted(merged.items()))
        )

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
        g = 0
        for x, y, _ in self.factors:
            g = gcd(g, gcd(x, y))
        return g


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


def phi_series(exponents, order):
    """prod_i 1/(1-z^{a_i}) * prod_{i<j} 1/(1-z^{a_i+a_j}) truncated."""
    exps = list(exponents)
    if any(a < 1 for a in exps):
        raise ValueError("exponents must be >= 1")
    return _product(_phi(exps, order), order)


def psi_series(a_exponents, b_exponents, order):
    """prod_{i,j} 1/(1-z^{a_i+b_j}) truncated."""
    a_exps = list(a_exponents)
    b_exps = list(b_exponents)
    if any(a < 1 for a in a_exps) or any(b < 1 for b in b_exps):
        raise ValueError("exponents must be >= 1")
    return _product(_psi(a_exps, b_exps, order), order)


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

    items lists (position, sign) per profile entry.  The factors are the
    boundary pairs 1/(1-z^{q-p}) for a +1 at position p before a -1 at
    position q, the phi factor over the -1 positions, and for k >= 1 the
    phi factor over width*k + p (at -1 positions) and width*k - p (at +1
    positions), divided by 1 - z^{width*k}.
    """
    neg = [p for p, e in items if e == -1]
    pos = [p for p, e in items if e == 1]
    exps = Counter(q - p for p in pos for q in neg if p < q and q - p <= order)
    exps.update(_phi(neg, order))
    for k in range(1, order // width + 2):
        w = width * k
        if w <= order:
            exps[w] += 1
        exps.update(_phi([w + p for p in neg] + [w - p for p in pos], order))
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
