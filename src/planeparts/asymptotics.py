"""Asymptotic growth of the product coefficients, in a canonical shape.

Every generating function in this package is a product of factors
1/(1-z^(x k + y)) over k >= 0.  The coefficient of z^n in such a product
grows like

    psi_n(v, r, b; p) = v sqrt(p(1-p)/(2 pi)) r^(b+(1-p)/2) / n^(b+1-p/2)
                        * exp(n^p r^(1-p)),

with p = 1/2 for all products handled here.  ribbon_params turns a
ProductSpec into (v, r, b, p): each factor contributes
Gamma(y/x)/sqrt(x pi) * (x/2)^(y/x) multiplicatively to v and
2 pi^2/(3x) and y/(2x) - 1/4 additively to r and b, provided the moduli
and residues are globally coprime.  dspp_params and scp_params compute
the same parameters through closed-form constants specific to those two
families, so the two paths cross-check each other.

All floating-point products are accumulated in the log domain, and v is
carried as log v (AsymptoticParams.log_v): it falls below the float
range from width 84 on, where log_psi still reads it exactly and
psi_eval falls back to exp(log_psi).  b also exists as an exact
rational (ribbon_b_fraction, scp_b_fraction, and scp_n_exponent_fraction
for b + 3/4); r does not.
"""

import math
import sys
from fractions import Fraction
from operator import itemgetter

from .profiles import Profile, epsilon, multiset_w1, multiset_w2, multiset_w4, multiset_w5
from .series import dspp_product_spec, scp_product_spec


class AsymptoticParams(tuple):
    """Parameters (v, r, b, p) of the growth shape psi_n(v, r, b; p): the
    record (log_v, r, b, p), with v held as its natural logarithm log_v,
    since v falls below the float range from width 84 on."""

    __slots__ = ()
    log_v = property(itemgetter(0))
    r = property(itemgetter(1))
    b = property(itemgetter(2))
    p = property(itemgetter(3))

    def __new__(cls, log_v, r, b, p):
        if not r > 0:
            raise ValueError("r must be positive")
        if not 0 < p < 1:
            raise ValueError("p must lie in (0, 1)")
        return super().__new__(cls, (log_v, r, b, p))

    def __repr__(self):
        return "AsymptoticParams(log_v=%r, r=%r, b=%r, p=%r)" % self

    @property
    def v(self):
        """exp(log_v); 0.0 or subnormal where v is below the float range."""
        return math.exp(self.log_v)


def log_psi(params, n):
    """The natural logarithm of psi_n(v, r, b; p), summed term by term.

    Finite for n up to about 10^600; past that it raises OverflowError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r, b, p = params.r, params.b, params.p
    return (
        params.log_v
        + 0.5 * math.log(p * (1 - p) / (2 * math.pi))
        + (b + (1 - p) / 2) * math.log(r)
        - (b + 1 - p / 2) * math.log(n)
        + math.exp(p * math.log(n)) * r ** (1 - p)
    )


def psi_eval(params, n):
    """Evaluate psi_n(v, r, b; p) at a positive integer n.

    The direct product, so its values keep their last bits; when v or the
    product is not a normal float, exp(log_psi) instead.  Past the float
    range that raises OverflowError; below it, it is 0.0 or subnormal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        value = (
            prefactor(params)
            / n ** n_exponent(params)
            * math.exp(n**params.p * growth_rate(params))
        )
    except OverflowError:
        value = math.inf
    if is_normal(params.v) and is_normal(value):
        return value
    return math.exp(log_psi(params, n))


def is_normal(x):
    """True iff x is a positive normal float: neither 0.0, subnormal nor infinite."""
    return sys.float_info.min <= x < math.inf


def psi_table_value(params, n):
    """Integer part of psi_eval; the convention of the comparison table."""
    return math.floor(psi_eval(params, n))


def prefactor(params):
    """The constant multiplying n^(-(b+1-p/2)) exp(n^p r^(1-p))."""
    v, r, b, p = params.v, params.r, params.b, params.p
    return v * math.sqrt(p * (1 - p) / (2 * math.pi)) * r ** (b + (1 - p) / 2)


def growth_rate(params):
    """The coefficient of n^p inside the exponential, r^(1-p)."""
    return params.r ** (1 - params.p)


def n_exponent(params):
    """The exponent of n in the denominator, b + 1 - p/2."""
    return params.b + 1 - params.p / 2


def combine_params(a, b):
    """Parameters of a product of two series with growth shapes a and b.

    Requires equal p; then v multiplies (log v adds) while r and b add.
    """
    if a.p != b.p:
        raise ValueError("cannot combine growth shapes with different p")
    return AsymptoticParams(a.log_v + b.log_v, a.r + b.r, a.b + b.b, a.p)


def ribbon_params(spec):
    """Growth parameters of the coefficients of an expanded ProductSpec.

    Requires gcd(x_1, ..., x_m, y_1, ..., y_m) = 1 over all factors.
    """
    if not spec.factors:
        raise ValueError("empty product has no growth shape")
    if spec.overall_gcd() != 1:
        raise ValueError(
            "moduli and residues must satisfy gcd(x_1,...,x_m,y_1,...,y_m) = 1, got gcd %d"
            % spec.overall_gcd()
        )
    log_v = 0.0
    r = 0.0
    for x, y, mult in spec.factors:
        log_v += mult * (
            math.lgamma(y / x) - 0.5 * math.log(x * math.pi) + (y / x) * math.log(x / 2)
        )
        r += mult * 2 * math.pi**2 / (3 * x)
    b = ribbon_b_fraction(spec)
    return AsymptoticParams(log_v, r, float(b), 0.5)


def ribbon_b_fraction(spec):
    """The exact rational b = sum over factors of mult*(y/(2x) - 1/4)."""
    return sum(
        (Fraction(mult * y, 2 * x) - Fraction(mult, 4) for x, y, mult in spec.factors),
        Fraction(0),
    )


def _require_width(delta):
    delta = Profile(delta)
    if len(delta) < 1:
        raise ValueError("asymptotic formulas need a profile of length >= 1")
    return delta


def _log_dspp_prefactor(delta):
    delta = _require_width(delta)
    m = len(delta) + 1
    log_c1 = (-epsilon(delta) / m - delta.count_plus()) * math.log(2)
    for t, k in multiset_w1(delta).residues:
        log_c1 += k * math.lgamma(t / m)
    for t, k in multiset_w2(delta).residues:
        log_c1 += k * math.lgamma(t / (2 * m))
    log_c2 = (
        -((m * m - 3 * m + 14) * math.log(2) + (m * m - m) * math.log(math.pi)) / 4
        + 0.5 * math.log((m * m + m + 2) / 3)
    )
    return log_c1 + log_c2


def dspp_prefactor(delta):
    """The constant C in count(n) ~ C/n * exp(pi sqrt((m^2+m+2) n/(6m))).

    exp(_log_dspp_prefactor): 0.0 from width 84, where C is below the
    float range, as AsymptoticParams.v is.
    """
    return math.exp(_log_dspp_prefactor(delta))


def dspp_params(delta):
    """Growth parameters of the skew doubled shifted counts, from the
    closed-form constants (b = 1/4 for every profile)."""
    m = len(_require_width(delta)) + 1
    r = (m * m + m + 2) * math.pi**2 / (6 * m)
    log_v = _log_dspp_prefactor(delta) + math.log(2 * math.sqrt(2 * math.pi)) - 0.5 * math.log(r)
    return AsymptoticParams(log_v, r, 0.25, 0.5)


def _log_dspp_width_constant(m):
    """log of dspp_width_constant(m).  Each pair 1 <= i < j with
    i + j = s <= m - 1 adds log sin(s pi/(2m)), and s has (s-1)//2 of
    them, so the double sine product is one sum over s."""
    if m < 2:
        raise ValueError("width constant needs m >= 2")
    log_sines = sum((s - 1) // 2 * math.log(math.sin(s * math.pi / (2 * m))) for s in range(3, m))
    return (
        -log_sines
        + 0.5 * math.log(m * m + m + 2)
        - (m * m - 3 * m + 14) / 4 * math.log(2)
        - 0.5 * math.log(3 * m)
    )


def dspp_width_constant(m):
    """The width-only constant for the staircase profile (-1)^(m-1):
    a double sine product times sqrt(m^2+m+2) / (2^((m^2-3m+14)/4) sqrt(3m)).

    exp(_log_dspp_width_constant): 0.0 from width 84, where the constant
    is below the float range, as AsymptoticParams.v is.
    """
    return math.exp(_log_dspp_width_constant(m))


def _scp_b(q, w4, w5):
    """b of the symmetric cylindric growth shape, from q = 2h + 1 and the
    profile's multisets w4 and w5, which scp_params reads too."""
    total = 2 * sum(t * k for t, k in w4.residues) + sum(t * k for t, k in w5.residues)
    return Fraction(total, 4 * q) - Fraction(w4.total_count() + w5.total_count(), 4)


def scp_b_fraction(delta):
    """Exact rational b of the symmetric cylindric growth shape."""
    q = 2 * len(_require_width(delta)) + 1
    return _scp_b(q, multiset_w4(delta), multiset_w5(delta))


def scp_n_exponent_fraction(delta):
    """Exact rational exponent of n in the denominator, b + 3/4."""
    return scp_b_fraction(delta) + Fraction(3, 4)


def scp_params(delta):
    """Growth parameters of the symmetric cylindric counts, from the
    closed-form constants (r is width-only; b varies with the profile)."""
    delta = _require_width(delta)
    m = len(delta) + 1
    q = 2 * m - 1
    r = (m * m + m + 2) * math.pi**2 / (6 * q)
    w4, w5 = multiset_w4(delta), multiset_w5(delta)
    b = _scp_b(q, w4, w5)
    w4_sum = sum(t * k for t, k in w4.residues)
    log_v = (
        -(Fraction(w4_sum, q) + Fraction(m * m - 3 * m + 2, 4)) * math.log(2)
        - Fraction(m * m - m + 2, 4) * math.log(math.pi)
        + 2 * b * math.log(q)
    )
    for t, k in w4.residues:
        log_v += k * math.lgamma(t / q)
    for t, k in w5.residues:
        log_v += k * math.lgamma(t / (2 * q))
    return AsymptoticParams(log_v, r, float(b), 0.5)


def dspp_ribbon_params(delta):
    """The same parameters as dspp_params, through the generic factor sums."""
    return ribbon_params(dspp_product_spec(delta))


def scp_ribbon_params(delta):
    """The same parameters as scp_params, through the generic factor sums."""
    return ribbon_params(scp_product_spec(delta))
