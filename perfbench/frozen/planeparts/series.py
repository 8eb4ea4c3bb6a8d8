"""Truncated formal power series over exact integers, and the product
generating functions of the three plane-partition families.

A series of order N stores exactly the coefficients of z^0..z^N as
arbitrary-precision Python ints; arithmetic never consults higher
exponents.  Every denominator in this package has the geometric shape
1 - z^e with e >= 1, so division is implemented as multiplication by
the expanded geometric series (a single in-place prefix pass), and any
factor whose minimal exponent exceeds N is the identity on the tracked
range and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .profiles import (
    ExponentMultiset,
    Profile,
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

    @classmethod
    def zero(cls, order):
        return cls(order, (0,) * (order + 1))

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d" % (self.order, other.order))
        out = _convolve(self.coeffs, other.coeffs, self.order)
        return TruncatedSeries(self.order, out)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d" % (self.order, other.order))
        return TruncatedSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def truncate(self, new_order):
        """The same series tracked only up to new_order <= order."""
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(new_order, self.coeffs[: new_order + 1])

    def __str__(self):
        return "TruncatedSeries(order=%d, %s)" % (self.order, list(self.coeffs))

    __repr__ = __str__


def series_mul(a, b):
    """Product of two series of equal order, exact."""
    return a * b


def _convolve(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(0, order + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def _geometric(coeffs, e, order):
    """In place: multiply the coefficient list by 1/(1 - z^e)."""
    for i in range(e, order + 1):
        coeffs[i] += coeffs[i - e]


def _apply_phi(coeffs, exponents, order):
    """In place: multiply by prod_i 1/(1-z^{e_i}) * prod_{i<j} 1/(1-z^{e_i+e_j})."""
    exps = list(exponents)
    for e in exps:
        if e <= order:
            _geometric(coeffs, e, order)
    for x in range(len(exps)):
        for y in range(x + 1, len(exps)):
            s = exps[x] + exps[y]
            if s <= order:
                _geometric(coeffs, s, order)


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


def expand_product(spec, order):
    """Expand a ProductSpec to a TruncatedSeries; coefficients are nonnegative."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for x, y, mult in spec.factors:
        k = 0
        while x * k + y <= order:
            for _ in range(mult):
                _geometric(coeffs, x * k + y, order)
            k += 1
    return TruncatedSeries(order, coeffs)


def phi_series(exponents, order):
    """prod_i 1/(1-z^{a_i}) * prod_{i<j} 1/(1-z^{a_i+a_j}) truncated."""
    exps = list(exponents)
    if any(a < 1 for a in exps):
        raise ValueError("exponents must be >= 1")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    _apply_phi(coeffs, exps, order)
    return TruncatedSeries(order, coeffs)


def psi_series(a_exponents, b_exponents, order):
    """prod_{i,j} 1/(1-z^{a_i+b_j}) truncated."""
    a_exps = list(a_exponents)
    b_exps = list(b_exponents)
    if any(a < 1 for a in a_exps) or any(b < 1 for b in b_exps):
        raise ValueError("exponents must be >= 1")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for a in a_exps:
        for b in b_exps:
            if a + b <= order:
                _geometric(coeffs, a + b, order)
    return TruncatedSeries(order, coeffs)


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


def dspp_gf_unsimplified(delta, order):
    """The skew doubled shifted generating function in its raw product form.

    Computed straight from the boundary-pair factors 1/(1-z^{i-j}), the
    phi factor over the -1 positions, and the k >= 1 tail of phi factors
    with exponents (h+1)k + i (at -1 positions) and (h+1)k - j (at +1
    positions), divided by 1 - z^{(h+1)k}.  Equal to dspp_gf coefficientwise;
    keeping both forms makes the simplification an executable statement.
    """
    delta = Profile(delta)
    h = len(delta)
    neg = [i for i, e in enumerate(delta, start=1) if e == -1]
    pos = [j for j, e in enumerate(delta, start=1) if e == 1]

    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for jx in range(h):
        for ix in range(jx + 1, h):
            if delta[ix] < delta[jx]:
                e = ix - jx
                if e <= order:
                    _geometric(coeffs, e, order)
    _apply_phi(coeffs, neg, order)

    period = h + 1
    k = 1
    while True:
        exps = [period * k + i for i in neg] + [period * k - j for j in pos]
        min_single = min(exps) if exps else period * k
        if period * k > order and min_single > order:
            break
        _apply_phi(coeffs, exps, order)
        if period * k <= order:
            _geometric(coeffs, period * k, order)
        k += 1
    return TruncatedSeries(order, coeffs)


def scp_gf_unsimplified(delta, order):
    """The symmetric cylindric generating function in its raw product form.

    Boundary-pair factors 1/(1-z^{2(j-i)}) over i < j with delta_i > delta_j,
    a phi factor with odd exponents 2i-1 at the -1 positions, and the
    k >= 1 tail of phi factors with exponents (2h+1)k -+ (2i-1), divided
    by 1 - z^{(2h+1)k}.  Equal to scp_gf coefficientwise.
    """
    delta = Profile(delta)
    h = len(delta)
    neg = [2 * i - 1 for i, e in enumerate(delta, start=1) if e == -1]
    pos = [2 * i - 1 for i, e in enumerate(delta, start=1) if e == 1]

    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for ix in range(h):
        for jx in range(ix + 1, h):
            if delta[ix] > delta[jx]:
                e = 2 * (jx - ix)
                if e <= order:
                    _geometric(coeffs, e, order)
    _apply_phi(coeffs, neg, order)

    period = 2 * h + 1
    k = 1
    while True:
        exps = [period * k + o for o in neg] + [period * k - o for o in pos]
        min_single = min(exps) if exps else period * k
        if period * k > order and min_single > order:
            break
        _apply_phi(coeffs, exps, order)
        if period * k <= order:
            _geometric(coeffs, period * k, order)
        k += 1
    return TruncatedSeries(order, coeffs)


CLASSICAL_KINDS = ("pp", "shiftpp", "sympp")


def classical_gf(kind, order):
    """Classical generating functions: plane partitions ('pp'), shifted
    plane partitions ('shiftpp'), symmetric plane partitions ('sympp')."""
    kind = kind.lower()
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    if kind == "pp":
        for k in range(1, order + 1):
            for _ in range(k):
                _geometric(coeffs, k, order)
    elif kind == "shiftpp":
        for k in range(1, order + 1):
            _geometric(coeffs, k, order)
        i = 1
        while 2 * i + 1 <= order:
            for j in range(i + 1, order - i + 1):
                if i + j <= order:
                    _geometric(coeffs, i + j, order)
            i += 1
    elif kind == "sympp":
        k = 1
        while 2 * k - 1 <= order:
            _geometric(coeffs, 2 * k - 1, order)
            k += 1
        i = 1
        while 2 * (2 * i + 1 - 1) <= order:
            j = i + 1
            while 2 * (i + j - 1) <= order:
                _geometric(coeffs, 2 * (i + j - 1), order)
                j += 1
            i += 1
    else:
        raise ValueError("unknown kind %r; expected one of %s" % (kind, ", ".join(CLASSICAL_KINDS)))
    return TruncatedSeries(order, coeffs)
