"""Property tests over random profiles, alphabets and orders.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples and writes nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from planeparts.counting import count_cp, count_dspp, count_scp
from planeparts.profiles import Profile
from planeparts.schur import OPEN_ENDPOINTS, verify_summation
from planeparts.series import _expand, cp_gf, dspp_gf, dspp_gf_unsimplified, scp_gf
from test_series import geometric_reference

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

profiles = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=4).map(Profile)
alphabets = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


@st.composite
def summation_inputs(draw):
    delta = draw(profiles)
    exponents = tuple(draw(alphabets) for _ in delta)
    return delta, exponents, draw(st.sampled_from(OPEN_ENDPOINTS)), draw(st.integers(0, 8))


@PROPERTY_SETTINGS
@given(summation_inputs())
def test_summation_formulas_hold(inputs):
    delta, exponents, endpoints, order = inputs
    for which in ("complete", "cylindric"):
        report = verify_summation(which, delta, exponents, order=order)
        assert report.passed, report
    report = verify_summation("open", delta, exponents, endpoints=endpoints, order=order)
    assert report.passed, report


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from((1, -1)), max_size=4).map(Profile), st.integers(0, 8))
def test_counting_oracles_equal_products(delta, order):
    assert count_dspp(delta, order) == dspp_gf(delta, order)
    assert count_scp(delta, order) == scp_gf(delta, order)
    if len(delta) >= 1:  # a cylinder needs at least one diagonal
        assert count_cp(delta, order) == cp_gf(delta, order)


@st.composite
def deep_counts(draw):
    # the order is drawn after the length, so long profiles are kept
    delta = Profile(draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=8)))
    return delta, draw(st.integers(0, 24))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(deep_counts())
def test_counting_oracles_equal_products_at_depth(inputs):
    delta, order = inputs
    assert count_dspp(delta, order) == dspp_gf(delta, order) == dspp_gf_unsimplified(delta, order)
    assert count_scp(delta, order) == scp_gf(delta, order)
    assert count_cp(delta, min(order, 18)) == cp_gf(delta, min(order, 18))


@PROPERTY_SETTINGS
@given(st.dictionaries(st.integers(1, 40), st.integers(1, 6)), st.integers(0, 250))
def test_expansion_strategies_agree(exponents, order):
    # orders up to 250 reach three levels of packed blocks above the leaves
    assert _expand(exponents, order) == geometric_reference(exponents, order)
