"""Differential tests of the packed sum-of-products kernel of exact forms.

``MatrixForm.__mul__`` on same-size exact forms and
``forms.trace_of_product`` form each entry with
``scalars.sum_of_products``.  The reference below is the ring-operation
fold they replaced: ``linalg.mat_mul`` per component pair, ``mat_neg`` for
an odd merge sign and ``mat_add`` into the component.  Results must agree in
value and in the key order of ``coeffs`` (grid evaluation sums the terms in
that order, so the order reaches printed floats).
"""

import hashlib
import pathlib

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ncgkit import linalg
from ncgkit.algebroid import form_scalar
from ncgkit.cli import main
from ncgkit.forms import ExactForm, MatrixForm, merge_sign, trace_of_product
from ncgkit.scalars import AFFINE, PERIODIC, Chart, PolyScalar, QQi

ROOT = pathlib.Path(__file__).resolve().parent.parent


def reference_product(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    out = {}
    for i_idx, x in a.comps.items():
        for j_idx, y in b.comps.items():
            if set(i_idx) & set(j_idx) or len(i_idx) + len(j_idx) > a.chart.dim:
                continue
            mat = linalg.mat_mul(x, y)
            if merge_sign(i_idx, j_idx) < 0:
                mat = linalg.mat_neg(mat)
            k = tuple(sorted(i_idx + j_idx))
            out[k] = linalg.mat_add(out[k], mat) if k in out else mat
    return ExactForm(a.chart, a.m, out)


def reference_trace_of_product(a: MatrixForm, b: MatrixForm) -> PolyScalar:
    return linalg.mat_trace(linalg.mat_mul(a.comps[()], b.comps[()]))


def entry_facts(x: PolyScalar):
    """Everything the contract fixes: the terms in key order."""
    return list(x.coeffs.items())


def form_facts(f: MatrixForm):
    return [(idx, [[entry_facts(x) for x in row] for row in mat])
            for idx, mat in f.comps.items()]


def assert_same_product(a, b):
    assert form_facts(a * b) == form_facts(reference_product(a, b))


# -- strategies ---------------------------------------------------------------

KINDS = st.sampled_from((AFFINE, PERIODIC))
UNITS = (QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1))
# mixed denominators, so factors are put over a common denominator
COEFFS = st.one_of(st.sampled_from(UNITS), st.builds(
    QQi, st.fractions(-4, 4, max_denominator=6),
    st.fractions(-4, 4, max_denominator=6)).filter(lambda c: not c.is_zero()))


@st.composite
def poly(draw, chart, max_terms=3, top=2, coeffs=COEFFS):
    def exponent(kind):
        return st.integers(0, top) if kind == AFFINE else st.integers(-top, top)

    monos = draw(st.lists(st.tuples(*[exponent(k) for k in chart.kinds]),
                          max_size=max_terms, unique=True))
    return PolyScalar(chart, {mono: draw(coeffs) for mono in monos})


def pool_poly(chart):
    """Either any polynomial or one like 1 - x with unit coefficients and
    exponents in {-1, 0, 1}: products of those cancel inside themselves."""
    return st.one_of(poly(chart), poly(chart, 3, 1, st.sampled_from(UNITS)))


@st.composite
def index_tuples(draw, chart):
    if not chart.dim:
        return [()]
    idx = st.lists(st.integers(0, chart.dim - 1), unique=True,
                   max_size=min(chart.dim, 3)).map(lambda i: tuple(sorted(i)))
    return draw(st.lists(idx, min_size=1, max_size=4, unique=True))


@st.composite
def form(draw, chart, m, pool):
    """Entries are zero or ± a unit multiple of a pool polynomial, so rows
    hold x and -x and many running sums cancel."""
    def entry():
        x = draw(st.sampled_from(pool))
        return x * draw(st.sampled_from(UNITS)) if draw(st.booleans()) else x

    comps = {}
    for idx in draw(index_tuples(chart)):
        comps[idx] = tuple(
            tuple(entry() if draw(st.integers(0, 3)) else PolyScalar(chart)
                  for _ in range(m)) for _ in range(m))
    return ExactForm(chart, m, comps)


@st.composite
def form_pairs(draw):
    chart = Chart(tuple(draw(st.lists(KINDS, max_size=5))))
    m = draw(st.integers(1, 4))
    pool = draw(st.lists(pool_poly(chart), min_size=1, max_size=3))
    a = draw(form(chart, m, pool))
    b = a if draw(st.booleans()) else draw(form(chart, m, pool))
    return a, b


@st.composite
def commuting_connections(draw):
    """theta = sum_j D_j dx_j with diagonal D_j, or with every D_j a multiple
    of one matrix: theta^theta cancels to zero entry by entry."""
    chart = Chart(tuple(draw(st.lists(KINDS, min_size=1, max_size=5))))
    m = draw(st.integers(1, 4))
    zero = PolyScalar(chart)
    if draw(st.booleans()):
        comps = {(j,): tuple(tuple(draw(poly(chart)) if r == c else zero
                                   for c in range(m)) for r in range(m))
                 for j in range(chart.dim)}
    else:
        base = tuple(tuple(draw(poly(chart)) for _ in range(m)) for _ in range(m))
        comps = {(j,): linalg.mat_scale(draw(poly(chart, 2)), base)
                 for j in range(chart.dim)}
    return ExactForm(chart, m, comps)


def sparse_form(chart, m, comps):
    """The form with entries {idx: {(r, c): entry}}, every other entry zero."""
    zero = PolyScalar(chart)
    return ExactForm(chart, m, {idx: tuple(tuple(entries.get((r, c), zero)
                                                  for c in range(m)) for r in range(m))
                                 for idx, entries in comps.items()})


def restart_pairs():
    """Two pairs where a running sum of the fold cancels to zero before a
    product of lower degree comes."""
    chart = Chart.affine(2)
    y, one = PolyScalar.coordinate(chart, 1), PolyScalar.const(chart, 1)
    iy = y * QQi(0, 1)
    # (b a)[1][2] = iy - iy + 1
    inner = (sparse_form(chart, 4, {(): {(1, 2): iy, (2, 2): -iy, (3, 2): one}}),
             sparse_form(chart, 4, {(): {(1, 1): one, (1, 2): one, (1, 3): one}}))
    chart = Chart.affine(4)
    w = PolyScalar.coordinate(chart, 3)
    # (a b + b)(a - b) has an entry whose running sum cancels on the way
    outer = (sparse_form(chart, 4, {(): {(1, 1): w}, (0,): {(2, 0): w, (2, 1): w}}),
             sparse_form(chart, 4, {(): {(0, 1): w, (1, 0): w, (2, 2): w}}))
    return inner, outer


RESTART_PAIRS = restart_pairs()


# -- the product --------------------------------------------------------------


@settings(max_examples=150)
@example(RESTART_PAIRS[0])
@given(form_pairs())
def test_product_matches_the_fold(pair):
    a, b = pair
    assert_same_product(a, b)
    assert_same_product(b, a)


@settings(max_examples=60)
@given(commuting_connections())
def test_theta_wedge_theta_with_commuting_entries(theta):
    assert_same_product(theta, theta)
    assert (theta * theta).is_zero()


@settings(max_examples=60)
@example(RESTART_PAIRS[1])
@given(form_pairs())
def test_product_of_products(pair):
    """Factors that are kernel outputs themselves, never read as coeffs."""
    a, b = pair
    assert_same_product(a * b, b * a)
    assert_same_product(a * b + b, a - b)


def test_cancelled_monomial_comes_back_in_place():
    """x*1 + (1+x)(1-x): the running sum of x reaches zero inside the
    second product, but x was already in the entry, so it keeps its place."""
    chart = Chart.affine(1)
    x = PolyScalar.coordinate(chart, 0)
    one, zero = PolyScalar.const(chart, 1), PolyScalar(chart)
    a = ExactForm(chart, 2, {(): ((x, one + x), (zero, zero))})
    b = ExactForm(chart, 2, {(): ((one, zero), (one - x, zero))})
    entry = (a * b).comps[()][0][0]
    assert list(entry.coeffs) == [(1,), (0,), (2,)]
    assert_same_product(a, b)


def test_new_monomial_cancels_and_comes_back_at_the_end():
    """(1 + x + x^2)(1 - x + x^2 + x^3): x and x^2 cancel on the way and
    x^2 comes back, so it moves behind x^3 and x^4."""
    chart = Chart.affine(1)
    x = PolyScalar.coordinate(chart, 0)
    one = PolyScalar.const(chart, 1)
    a = MatrixForm.from_scalar(one + x + x * x)
    b = MatrixForm.from_scalar(one - x + x * x + x * x * x)
    assert list((a * b).comps[()][0][0].coeffs) == [(0,), (3,), (4,), (2,), (5,)]
    assert_same_product(a, b)


def test_entries_that_cancel_to_zero_keep_the_component_out():
    chart = Chart.affine(2)
    x = PolyScalar.coordinate(chart, 0)
    theta = ExactForm(chart, 1, {(0,): ((x,),), (1,): ((x * x,),)})
    assert (theta * theta).is_zero()
    assert_same_product(theta, theta)


@pytest.mark.parametrize("kind, sign", [(AFFINE, 1), (PERIODIC, 1), (PERIODIC, -1)])
def test_form_product_past_the_field_raises(kind, sign):
    """A form product and the trace of one pack while the exponents of
    their entries stay in the window -2^15 <= e < 2^15, and raise one step
    further on either side."""
    chart = Chart((kind, PERIODIC))
    last = (1 << 15) - 1 if sign > 0 else -(1 << 15)
    half = sign * (1 << 14)
    a = MatrixForm.from_scalar(PolyScalar.coordinate(chart, 0, half), 2)
    fits = MatrixForm.from_scalar(PolyScalar.coordinate(chart, 0, last - half), 2)
    square = (a * fits).comps[()]
    assert square[0][0].coeffs == {(last, 0): QQi(1)}
    assert square[0][1].is_zero()
    assert form_scalar(trace_of_product(a, fits)).coeffs == {(last, 0): QQi(2)}
    past = MatrixForm.from_scalar(PolyScalar.coordinate(chart, 0, last - half + sign), 2)
    with pytest.raises(OverflowError):
        a * past
    with pytest.raises(OverflowError):
        trace_of_product(a, past)
    with pytest.raises(OverflowError):
        reference_product(a, past)


def test_form_product_that_cancels_past_the_field():
    """An entry whose products leave the window but cancel is zero, and a
    sibling entry stays: only the monomials of the result must pack."""
    chart = Chart.affine(1)
    big = PolyScalar.coordinate(chart, 0, 1 << 14)
    one, zero = PolyScalar.const(chart, 1), PolyScalar(chart)
    a = ExactForm(chart, 2, {(): ((big, big), (zero, zero))})
    b = ExactForm(chart, 2, {(): ((big, one), (-big, zero))})
    product = (a * b).comps[()]
    assert product[0][0].is_zero()
    assert product[0][1].coeffs == {(1 << 14,): QQi(1)}
    assert trace_of_product(a, b).is_zero()


def test_cancelled_entry_is_zero():
    """An entry that cancels to zero has no terms, as the fold gives it."""
    chart = Chart.torus(1)
    z = PolyScalar.coordinate(chart, 0, 3)
    a = ExactForm(chart, 2, {(): ((z, z), (z, z))})
    b = ExactForm(chart, 2, {(): ((z, z), (-z, z))})
    product = a * b
    assert product.comps[()][0][0].is_zero()
    assert entry_facts(product.comps[()][0][0]) == []
    assert product._numerators()[1][()][0][0] is None
    assert form_facts(product) == form_facts(reference_product(a, b))


# -- the trace of a product ---------------------------------------------------


@settings(max_examples=100)
@given(form_pairs())
def test_trace_of_product_matches_the_fold(pair):
    a, b = pair
    a, b = a.degree_part(0), b.degree_part(0)
    if a.is_zero() or b.is_zero():
        assert trace_of_product(a, b).is_zero()
        return
    ours = form_scalar(trace_of_product(a, b))
    assert entry_facts(ours) == entry_facts(reference_trace_of_product(a, b))
    assert entry_facts(ours) == entry_facts(form_scalar((a * b).trace()))


def test_exact_trace_of_product_takes_degree_zero_forms():
    chart = Chart((AFFINE, PERIODIC))
    x = PolyScalar.const(chart, 2)
    with pytest.raises(ValueError):
        trace_of_product(MatrixForm.from_scalar(x, 2), MatrixForm.from_scalar(x, 2, (0,)))


# -- end to end ---------------------------------------------------------------

# chkr-compare sums grid values in the key order of coeffs; at this seed a
# different order changes deg2_diff from 2.220446049250313e-16 to
# 8.95090418262362e-16.  The digest is of the report the fold produced.
CHKR_15838_SHA256 = "8abe68dc0849c945109c4df37f43f430ec95e3d33e2f53fc13b0a6c8f908595b"


def test_chkr_compare_report_bytes(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NCGKIT_OUT", raising=False)
    assert main(["chkr-compare", "--seed", "15838"]) == 0
    report = capsys.readouterr().out
    assert "deg2_diff: 2.220446049250313e-16" in report
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == CHKR_15838_SHA256
