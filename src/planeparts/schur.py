"""Specialized skew Schur functions and numeric checks of the summation identities.

Every identity here is checked after substituting each alphabet variable
by a power of z with positive exponent, which turns both sides into
univariate series that can be compared coefficient by coefficient up to
a truncation order.  Checking several independent specializations of a
polynomial identity is a far stronger test than any finite set of
hand-computed coefficients, while staying exact.

Every sum over partitions here, on either side, is a chain of strip
steps.  By the branching rule a skew Schur factor in k letters is a
chain of k horizontal strips, one per letter, and the letter z^a
weights its strip by z^(a*|strip|); so a factor in k letters is k steps
(up, a, 0) of partitions._walk, the transfer the counting oracles use
as well.  A walk starts at one partition or at all of them, each at a
power of z, moves through the steps, and is read at one partition or
summed over its end states; partitions._walk is told which, once, and
returns that read, making only the states that can still end there
within the order.  The complete left side's weight z^|lam^h| is one
more on its last step's m; with no step at all it sums z^|lam| over
every lam, the partition numbers.  partitions keeps its truncated
coefficient vectors as ints with W-bit slots, W proven per walk from
its starts, the chain's length and the order; this module passes start
degrees and reads back lists.  The cylindric left side closes the
chain, lam^0 = lam^h, and is a trace, partitions._trace.  The lemmas
and the textbook identities p93A and p94A are instances of the three
summation formulas; only p93B has walks of its own.  All substituted
exponents are >= 1, so every step costs at least its size change, which
bounds the reachable states and makes the truncated sums finite.

The products on the right-hand sides are assembled from the two kernels

    phi(X) = prod_i 1/(1-x_i) * prod_{i<j} 1/(1-x_i x_j)
    psi(X, Y) = prod_{i,j} 1/(1-x_i y_j)

and the geometric factors 1/(1-z^k).  Each product part is compiled to
a truncated exponent map and expanded by the one kernel the generating
functions use, series._expand.  phi's pair sums are one packed square
(series._phi); psi's few pairs are summed directly (series._psi).  The
products over k >= 1 of phi(z^k X) and psi(z^k X, Y) build the map at
k = 1 once and spread it (series._phi_spread, series._spread), phi's
pair sums in steps of 2, everything else in steps of 1.  Where a
right-hand side also has a sum over partitions, its walk starts from 1
and the expanded product (its kernel) multiplies the read afterwards,
one partitions._packed_product: the walk is linear in its start.
"""

from collections import Counter
from itertools import product as iter_product

from .partitions import (EMPTY, Partition, _packed_product, _partition_counts, _trace, _walk,
                         partitions_up_to)
from .profiles import Profile, all_profiles
from .series import TruncatedSeries, _expand, _phi, _phi_spread, _psi, _spread


def _normalize_alphabet(alpha):
    exps = tuple(int(a) for a in alpha)
    if any(a < 1 for a in exps):
        raise ValueError("alphabet exponents must be >= 1")
    return exps


def _letters(up, alphabet):
    """The steps of s_{lam/mu}(alphabet): one strip per letter, up from mu
    to lam or down from lam to mu."""
    return [(up, a, 0) for a in alphabet]


def _zigzag(x_alphas, y_alphas):
    """The steps down by X^i, then up by Y^i, for each step i of the chain."""
    return [s for x, y in zip(x_alphas, y_alphas) for s in _letters(False, x) + _letters(True, y)]


def skew_schur_z(lam, mu, alphabet, order):
    """The skew Schur function s_{lam/mu} under x_t -> z^(a_t), truncated.

    Computed by the branching rule: with a single variable, s_{lam/mu}(x)
    is x^|lam/mu| when lam/mu is a horizontal strip and 0 otherwise, and
    adding a variable sums over intermediate partitions.  Returns the
    zero series when mu is not contained in lam.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    alphabet = _normalize_alphabet(alphabet)
    steps = _letters(True, alphabet)
    return TruncatedSeries(order, _walk({mu: 0}, steps, order, target=lam))


class IdentityReport:
    """Outcome of one identity check: both sides and where they first differ."""

    def __init__(self, name, params, order, lhs, rhs):
        self.name = name
        self.params = params
        self.order = order
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)

    @property
    def passed(self):
        return self.lhs == self.rhs

    @property
    def first_mismatch(self):
        for n in range(self.order + 1):
            if self.lhs[n] != self.rhs[n]:
                return n
        return None

    def to_json(self):
        return {
            "name": self.name,
            "params": self.params,
            "order": self.order,
            "passed": self.passed,
            "first_mismatch": self.first_mismatch,
            "lhs": [str(c) for c in self.lhs],
            "rhs": [str(c) for c in self.rhs],
        }

    def __repr__(self):
        status = "pass" if self.passed else "FAIL@%s" % self.first_mismatch
        return "IdentityReport(%s %s %s)" % (self.name, self.params, status)


# ---------------------------------------------------------------------------
# right-hand sides, as exponent maps for series._expand


def _pair_exponents(x_alphas, y_alphas, order):
    """prod over 0 <= i < j of psi(Y^i, X^j): per i, one psi of Y^i against
    every later X^j together."""
    exps = Counter()
    for i, y_alpha in enumerate(y_alphas[:-1]):
        exps.update(_psi(y_alpha, [a for x in x_alphas[i + 1 :] for a in x], order))
    return exps


def _complete_exponents(head, alphabet, order):
    """phi(head) * prod_{k>=1} phi(z^k alphabet) / (1-z^k)."""
    exps = _phi(head, order) + Counter(range(1, order + 1))
    exps.update(_phi_spread([1 + a for a in alphabet], 1, order))
    return exps


def _cylindric_exponents(x_all, y_all, order):
    """prod_{k>=1} psi(z^k X, Y) / (1-z^k): psi(z X, Y), spread in steps of 1."""
    exps = Counter(range(1, order + 1))
    exps.update(_spread(_psi([1 + a for a in x_all], y_all, order), 1, order))
    return exps


# ---------------------------------------------------------------------------
# the three summation formulas, in the two-alphabet-per-step form


def verify_alternating_summation(which, x_alphas, y_alphas, endpoints=None, order=8):
    """Check the open/complete/cylindric summation formula for a chain of
    down-steps (alphabets X^i) and up-steps (alphabets Y^i).

    The left side sums over all partition chains
    lam^0 ⊇ mu^0 ⊆ lam^1 ⊇ mu^1 ⊆ ... ⊆ lam^h weighted by
    prod_i s_{lam^i/mu^i}(X^i) s_{lam^{i+1}/mu^i}(Y^i); 'complete' adds
    the weight z^|lam^h| and sums over both endpoints, 'cylindric' ties
    lam^0 = lam^h (with weight z^|lam^h|), 'open' fixes both endpoints.
    Only 'open' reads endpoints; the other two refuse any but None.
    """
    if which in ("complete", "cylindric") and endpoints is not None:
        raise ValueError("the %s formula sums over its endpoints; got endpoints %r"
                         % (which, endpoints))
    x_alphas = tuple(_normalize_alphabet(a) for a in x_alphas)
    y_alphas = tuple(_normalize_alphabet(a) for a in y_alphas)
    if len(x_alphas) != len(y_alphas):
        raise ValueError("need as many down-alphabets as up-alphabets")
    x_all = tuple(a for alpha in x_alphas for a in alpha)
    y_all = tuple(a for alpha in y_alphas for a in alpha)
    params = {
        "x_alphabets": [list(a) for a in x_alphas],
        "y_alphabets": [list(a) for a in y_alphas],
    }
    pair = _pair_exponents(x_alphas, y_alphas, order)

    if which == "complete":
        rhs = _expand(pair + _complete_exponents(x_all, x_all + y_all, order), order)
        # every chain from every start, times z^|lam^h|: one more on the
        # last step's m
        steps = _zigzag(x_alphas, y_alphas)
        if steps:
            up, a, m = steps[-1]
            steps[-1] = up, a, m + 1
            lhs = _walk(dict.fromkeys(partitions_up_to(order), 0), steps, order)
        else:
            lhs = _partition_counts(order)
        return IdentityReport("complete", params, order, lhs, rhs)

    if which == "cylindric":
        rhs = _expand(pair + _cylindric_exponents(x_all, y_all, order), order)
        lhs = _trace(_zigzag(x_alphas, y_alphas), order)
        return IdentityReport("cylindric", params, order, lhs, rhs)

    if which == "open":
        # rhs: psi pairs times sum_gamma s_{lam0/gamma}(X) s_{lamh/gamma}(Y)
        kernel = _expand(pair, order)
        lam0, lamh = (EMPTY, EMPTY) if endpoints is None else map(Partition, endpoints)
        walk = _walk({lam0: 0}, _zigzag((x_all,), (y_all,)), order, target=lamh)
        rhs = _packed_product(kernel, walk, 0, order + 1)
        lhs = _walk({lam0: 0}, _zigzag(x_alphas, y_alphas), order, target=lamh)
        params["endpoints"] = [list(lam0), list(lamh)]
        return IdentityReport("open", params, order, lhs, rhs)

    raise ValueError("unknown summation kind %r" % (which,))


def verify_summation(which, delta, z_exponents=None, endpoints=None, order=8):
    """Check the profile form of the open/complete/cylindric summation formula.

    Diagonal i carries the alphabet {z^a : a in z_exponents[i-1]}; the
    skew Schur factor at step i goes upward when delta_i = +1 and
    downward when delta_i = -1.  z_exponents entries may be ints or
    tuples of ints; by default every diagonal carries {z}.
    """
    delta = Profile(delta)
    h = len(delta)
    if h < 1:
        raise ValueError("summation profiles need length >= 1")
    if z_exponents is None:
        z_exponents = (1,) * h
    if len(z_exponents) != h:
        raise ValueError("need one exponent choice per profile entry")
    alphas = tuple(
        (int(zc),) if isinstance(zc, int) else _normalize_alphabet(zc) for zc in z_exponents
    )
    x_alphas = tuple(alphas[i] if delta[i] == -1 else () for i in range(h))
    y_alphas = tuple(alphas[i] if delta[i] == 1 else () for i in range(h))
    report = verify_alternating_summation(which, x_alphas, y_alphas, endpoints, order)
    params = {"profile": delta.text, "exponents": [list(a) for a in alphas]}
    if which == "open":
        params["endpoints"] = report.params["endpoints"]
    return IdentityReport(report.name, params, order, report.lhs, report.rhs)


# ---------------------------------------------------------------------------
# the two lemmas and the three textbook identities: all but p93B are
# instances of the summation formulas, reported under their own names


def verify_lemma_s1(alpha, order=8):
    """sum_{mu, tau} z^|mu| s_{mu/tau}(X) = prod_{k>=1} phi(z^k X)/(1-z^k).

    The complete formula for one up-step in X.
    """
    alpha = _normalize_alphabet(alpha)
    report = verify_alternating_summation("complete", ((),), (alpha,), order=order)
    return IdentityReport("lemma_s1", {"alphabet": list(alpha)}, order, report.lhs, report.rhs)


def verify_lemma_s2(x_alpha, y_alpha, order=8):
    """sum_{lam,mu,gamma} z^|mu| s_{mu/gamma}(X) s_{lam/gamma}(Y)
    = phi(Y) prod_{k>=1} phi(z^k (X+Y))/(1-z^k).

    The complete formula for the chain lam ⊇ gamma ⊆ mu: down in Y, up in X.
    """
    x_alpha = _normalize_alphabet(x_alpha)
    y_alpha = _normalize_alphabet(y_alpha)
    report = verify_alternating_summation("complete", (y_alpha,), (x_alpha,), order=order)
    params = {"x_alphabet": list(x_alpha), "y_alphabet": list(y_alpha)}
    return IdentityReport("lemma_s2", params, order, report.lhs, report.rhs)


def verify_macdonald(which, x_alpha=(), y_alpha=(), lam=EMPTY, mu=EMPTY, nu=EMPTY, order=8):
    """Check one of the three textbook skew Schur identities.

    'p93A':  sum_rho s_{rho/lam}(X) s_{rho/mu}(Y)
             = psi(X,Y) sum_rho s_{lam/rho}(Y) s_{mu/rho}(X)
    'p93B':  sum_rho s_{rho/nu}(X) = phi(X) sum_rho s_{nu/rho}(X)
    'p94A':  sum_{lam, gamma} z^|lam| s_{lam/gamma}(X) s_{lam/gamma}(Y)
             = prod_{k>=1} psi(z^k X, Y)/(1-z^k)

    p93A is the open formula for the chain lam ⊆ rho ⊇ mu, up in X and
    down in Y; p94A is the cylindric formula for the closed chain
    lam ⊇ gamma ⊆ lam.  An argument the identity does not read (nu for
    p93A; y_alpha, lam and mu for p93B; lam, mu and nu for p94A) must
    keep its empty default.
    """
    x_alpha = _normalize_alphabet(x_alpha)
    y_alpha = _normalize_alphabet(y_alpha)
    unread = {"p93A": {"nu": nu}, "p93B": {"y_alpha": y_alpha, "lam": lam, "mu": mu},
              "p94A": {"lam": lam, "mu": mu, "nu": nu}}
    for name, value in unread.get(which, {}).items():
        if tuple(value):
            raise ValueError("%s does not read %s; got %r" % (which, name, value))
    params = {"x_alphabet": list(x_alpha), "y_alphabet": list(y_alpha)}

    if which == "p93A":
        report = verify_alternating_summation(
            "open", ((), y_alpha), (x_alpha, ()), endpoints=(lam, mu), order=order
        )
        params["lam"], params["mu"] = report.params["endpoints"]
        return IdentityReport("p93A", params, order, report.lhs, report.rhs)

    if which == "p93B":
        nu = Partition(nu)
        kernel = _expand(_phi(x_alpha, order), order)
        lhs = _walk({nu: 0}, _letters(True, x_alpha), order)
        rhs = _packed_product(kernel, _walk({nu: 0}, _letters(False, x_alpha), order), 0, order + 1)
        params = {"x_alphabet": list(x_alpha), "nu": list(nu)}
        return IdentityReport("p93B", params, order, lhs, rhs)

    if which == "p94A":
        report = verify_alternating_summation("cylindric", (x_alpha,), (y_alpha,), order=order)
        return IdentityReport("p94A", params, order, report.lhs, report.rhs)

    raise ValueError("unknown identity %r" % (which,))


# ---------------------------------------------------------------------------
# the standard battery


LEMMA_ALPHABETS = ((), (1,), (2,), (1, 1), (1, 2), (2, 2))
PAIR_ALPHABETS = ((), (1,), (2,), (1, 2))
MACDONALD_OUTER = ((), (1,), (2, 1), (1, 1))
OPEN_ENDPOINTS = (((), ()), ((1,), (1,)), ((2,), (1, 1)))
EXPONENT_CHOICES = (1, 2)
# The most profile cases a battery may list.  Each length h adds 2^h
# profiles times 2^h exponent choices, four checks each: 4^(h+1) cases,
# every report (about 1.4 kB at order 8) kept to the end.  So max_len 7
# (87,376 cases) is the longest accepted, and a longer one is refused
# before a profile is built.
MAX_BATTERY_CASES = 100_000


def _check(verifier, *args, **kwargs):
    """One battery case: a zero-argument call of the verifier named
    verifier with these arguments.  It looks the verifier up in this
    module when it runs, not when it is listed, so a verifier rebound
    here (by a tracer or a profiler) is the one that runs."""
    return lambda: globals()[verifier](*args, **kwargs)


def battery_cases(max_len=3, order=8):
    """The deterministic list of identity checks, as zero-argument callables
    that each run one check and return its IdentityReport."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative, got %d" % max_len)
    listed = 0
    for h in range(1, max_len + 1):
        listed += 4 ** (h + 1)
        if listed > MAX_BATTERY_CASES:
            raise ValueError(
                "max_len %d lists more than the %d identity checks the battery allows"
                % (max_len, MAX_BATTERY_CASES)
            )
    cases = []
    for h in range(1, max_len + 1):
        for delta in all_profiles(h):
            for exps in iter_product(EXPONENT_CHOICES, repeat=h):
                for which in ("complete", "cylindric"):
                    cases.append(_check("verify_summation", which, delta, exps, order=order))
                for endpoints in OPEN_ENDPOINTS[:2]:
                    cases.append(_check("verify_summation", "open", delta, exps,
                                        endpoints=endpoints, order=order))
    # chains where one step carries both a down and an up alphabet
    two_sided = (
        (((1,),), ((1,),)),
        (((2,), ()), ((1,), (1,))),
        (((1,), (2,)), ((2,), (1,))),
        (((1, 2), ()), ((), (1,))),
    )
    for x_alphas, y_alphas in two_sided:
        for which in ("complete", "cylindric"):
            cases.append(_check("verify_alternating_summation", which, x_alphas, y_alphas,
                                order=order))
        cases.append(_check("verify_alternating_summation", "open", x_alphas, y_alphas,
                            endpoints=((1,), (1,)), order=order))
    for alpha in LEMMA_ALPHABETS:
        cases.append(_check("verify_lemma_s1", alpha, order=order))
    for x_alpha in PAIR_ALPHABETS:
        for y_alpha in PAIR_ALPHABETS:
            cases.append(_check("verify_lemma_s2", x_alpha, y_alpha, order=order))
            cases.append(_check("verify_macdonald", "p94A", x_alpha=x_alpha, y_alpha=y_alpha,
                                order=order))
    for lam in MACDONALD_OUTER[:3]:
        for mu in MACDONALD_OUTER[:3]:
            cases.append(_check("verify_macdonald", "p93A", x_alpha=(1,), y_alpha=(2,), lam=lam,
                                mu=mu, order=order))
    for nu in MACDONALD_OUTER:
        for x_alpha in ((1,), (1, 2)):
            cases.append(_check("verify_macdonald", "p93B", x_alpha=x_alpha, nu=nu, order=order))
    return cases


def run_battery(max_len=3, order=8):
    """Run every case of battery_cases(max_len, order), in order; returns
    the list of IdentityReport."""
    return [case() for case in battery_cases(max_len, order)]
