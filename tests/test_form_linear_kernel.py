"""Differential tests of the packed linear operations of exact forms.

``+``, ``-``, unary ``-``, ``scale``, ``trace``, ``exterior_d`` and
``forms.add_partials`` (the derivative terms of ``Derivation.apply``) work on
the forms' numerator matrices and hand the result its own.  The references
below are the folds they replaced: ``linalg.mat_add``, ``mat_neg``,
``mat_scale`` and ``mat_trace`` on PolyScalar entries, and the
coefficient-wise derivative.  Results must agree in value and in the key
order of ``coeffs`` (grid evaluation sums the terms in that order); and a
result's ``_numerators()`` must be ``packed_matrices`` of its entries.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ncgkit import linalg
from ncgkit.algebroid import Derivation
from ncgkit.forms import Connection, ExactForm, MatrixForm, add_partials, exterior_d
from ncgkit.scalars import (AFFINE, PERIODIC, Chart, PolyScalar, QQi,
                            packed_matrices)

from test_form_product_kernel import (entry_facts, form_facts, form_pairs,
                                      poly, pool_poly, reference_product)


# -- the folds the packed operations replaced ---------------------------------


def reference_diff(x: PolyScalar, j: int) -> PolyScalar:
    """d/dx_j through ``coeffs``: e times the monomial lowered by one
    (affine), or i*e times the same monomial (periodic)."""
    out = {}
    for mono, c in x.coeffs.items():
        e = mono[j]
        if e == 0:
            continue
        if x.chart.kinds[j] == AFFINE:
            mono = mono[:j] + (e - 1,) + mono[j + 1:]
            out[mono] = c * e
        else:
            out[mono] = c * QQi(0, e)
    return PolyScalar(x.chart, out)


def reference_add(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    out = dict(a.comps)
    for idx, mat in b.comps.items():
        out[idx] = linalg.mat_add(out[idx], mat) if idx in out else mat
    return ExactForm(a.chart, a.m, out)


def reference_neg(a: MatrixForm) -> MatrixForm:
    return ExactForm(a.chart, a.m, {i: linalg.mat_neg(m) for i, m in a.comps.items()})


def reference_scale(a: MatrixForm, c) -> MatrixForm:
    return ExactForm(a.chart, a.m, {i: linalg.mat_scale(c, m) for i, m in a.comps.items()})


def reference_trace(a: MatrixForm) -> MatrixForm:
    return ExactForm(a.chart, 1, {i: ((linalg.mat_trace(m),),) for i, m in a.comps.items()})


def reference_d(a: MatrixForm) -> MatrixForm:
    out = {}
    for idx, mat in a.comps.items():
        for j in range(a.chart.dim):
            if j in idx:
                continue
            d_mat = tuple(tuple(reference_diff(x, j) for x in row) for row in mat)
            if sum(1 for i in idx if i < j) % 2:
                d_mat = linalg.mat_neg(d_mat)
            k = tuple(sorted(idx + (j,)))
            out[k] = linalg.mat_add(out[k], d_mat) if k in out else d_mat
    return ExactForm(a.chart, a.m, out)


def reference_add_partials(base: MatrixForm, a: MatrixForm, vector) -> MatrixForm:
    out = base
    mat = a.component(())
    for j, c in enumerate(vector):
        if not c.is_zero():
            d_mat = tuple(tuple(reference_diff(x, j) for x in row) for row in mat)
            out = reference_add(out, reference_scale(ExactForm(a.chart, a.m, {(): d_mat}), c))
    return out


# -- checks --------------------------------------------------------------------


def numerator_facts(d, mats):
    return d, [[[None if x is None else list(x.items()) for x in row]
                for row in mat] for mat in mats]


def assert_packed(f: MatrixForm):
    """``_numerators()`` is ``packed_matrices`` of the entries, and its
    denominator is the lcm of the coefficient denominators: the same
    numerators as entries rebuilt from their coefficients."""
    d, nums = f._numerators()
    assert list(nums) == list(f.comps)
    ours = numerator_facts(d, nums.values())
    assert ours == numerator_facts(*packed_matrices(f.comps.values()))
    rebuilt = [tuple(tuple(PolyScalar(f.chart, x.coeffs) for x in row) for row in mat)
               for mat in f.comps.values()]
    if f.comps:
        assert (d, list(nums.values())) == packed_matrices(rebuilt)


def assert_same(ours: MatrixForm, reference: MatrixForm):
    assert form_facts(ours) == form_facts(reference)
    assert_packed(ours)


# -- strategies ----------------------------------------------------------------

SCALARS = st.sampled_from((0, 1, -2, Fraction(1, 3), Fraction(-5, 4), QQi(0),
                           QQi(2, -3), QQi(Fraction(3, 5), Fraction(-1, 7)),
                           QQi(0, Fraction(1, 6))))


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b holds -A_I on some components of a, so a + b has
    entries and whole components that cancel to zero."""
    a, other = draw(form_pairs())
    negated = [i for i in a.comps if draw(st.booleans())]
    comps = dict(other.comps)
    for i in negated:
        comps[i] = linalg.mat_neg(a.comps[i])
    return a, ExactForm(a.chart, a.m, comps)


@st.composite
def forms(draw):
    a, b = draw(form_pairs())
    # half the time an operation result, never read as coefficients
    return a if draw(st.booleans()) else a * b + b


# -- the operations --------------------------------------------------------------


@settings(max_examples=120)
@given(form_pairs())
def test_add_sub_neg_match_the_fold(pair):
    a, b = pair
    assert_same(a + b, reference_add(a, b))
    assert_same(b + a, reference_add(b, a))
    assert_same(a - b, reference_add(a, reference_neg(b)))
    assert_same(-a, reference_neg(a))


@settings(max_examples=80)
@given(cancelling_pairs())
def test_sums_that_cancel(pair):
    a, b = pair
    assert_same(a + b, reference_add(a, b))
    assert_same(a - a, reference_add(a, reference_neg(a)))
    assert (a - a).is_zero()


@settings(max_examples=60)
@given(form_pairs())
def test_operations_on_operation_results(pair):
    """Operands that carry numerators from an operation, entries unread."""
    a, b = pair
    ab, ba = a * b, b * a
    assert_same(ab + ba, reference_add(ab, ba))
    assert_same((ab - ba).scale(QQi(1, 2)), reference_scale(reference_add(
        ab, reference_neg(ba)), QQi(1, 2)))
    assert_same(exterior_d(ab - b), reference_d(reference_add(ab, reference_neg(b))))


@settings(max_examples=80)
@given(forms(), SCALARS)
def test_scale_matches_the_fold(a, c):
    assert_same(a.scale(c), reference_scale(a, c))
    assert_same(a * c, reference_scale(a, c))


@settings(max_examples=80)
@given(forms())
def test_exterior_d_matches_the_fold(a):
    assert_same(exterior_d(a), reference_d(a))


@settings(max_examples=60)
@given(forms())
def test_trace_matches_the_fold(a):
    assert_same(a.trace(), reference_trace(a))


@settings(max_examples=60)
@given(form_pairs(), st.data())
def test_add_partials_matches_the_fold(pair, data):
    a, base = pair
    a = a.degree_part(0)
    vector = [data.draw(SCALARS.map(QQi.coerce)) for _ in range(a.chart.dim)]
    assert_same(add_partials(base, a, vector), reference_add_partials(base, a, vector))


@st.composite
def polys_and_axis(draw):
    chart = Chart(tuple(draw(st.lists(st.sampled_from((AFFINE, PERIODIC)),
                                      min_size=1, max_size=5))))
    x = draw(st.one_of(pool_poly(chart), poly(chart, 6, 4)))
    return x, draw(st.integers(0, chart.dim - 1))


@settings(max_examples=150)
@given(polys_and_axis())
def test_diff_matches_the_coefficientwise_derivative(case):
    x, j = case
    assert entry_facts(x.diff(j)) == entry_facts(reference_diff(x, j))
    y = x * x + x  # packed, never read as coefficients
    assert entry_facts(y.diff(j)) == entry_facts(reference_diff(y, j))


# -- fixed cases -------------------------------------------------------------------


def test_cancelled_entry_in_a_sum():
    """A product entry that cancels is zero; a sum with it is the other
    summand, as PolyScalar.__add__ gives it."""
    chart = Chart.torus(1)
    z = PolyScalar.coordinate(chart, 0, 3)
    w = PolyScalar.coordinate(chart, 0, 1)
    a = ExactForm(chart, 2, {(): ((z, z), (z, z))})
    b = ExactForm(chart, 2, {(): ((z, z), (-z, z))})
    c = ExactForm(chart, 2, {(): ((w, w), (w, w))})
    product = a * b
    total = product + c
    assert entry_facts(total.comps[()][0][0]) == [((1,), QQi(1))]
    assert_same(total, reference_add(reference_product(a, b), c))
    assert_same(-product, reference_neg(product))
    assert_same(product.trace(), reference_trace(product))
    assert entry_facts(product.degree_part(0).comps[()][0][0]) == []


def test_a_cancelled_power_squares_in_the_window():
    """(x^(2^14) - x^(2^14) + x)^2 = x^2: the cancelled power leaves nothing
    behind, so the square packs, as a PolyScalar, as an entry beside a
    nonzero sibling and in a component that cancels whole, whatever order
    the sum was folded in."""
    chart = Chart.affine(1)
    big, x = PolyScalar.coordinate(chart, 0, 1 << 14), PolyScalar.coordinate(chart, 0)
    one, zero = PolyScalar.const(chart, 1), PolyScalar(chart)
    y = big - big + x
    assert entry_facts(y) == [((1,), QQi(1))]
    assert entry_facts(y * y) == entry_facts(x * x)
    # entry (0, 0) cancels while (0, 1) stays, so the component is kept
    a = ExactForm(chart, 2, {(): ((big, one), (zero, zero))})
    b = ExactForm(chart, 2, {(): ((big, zero), (zero, zero))})
    f = a - b + ExactForm(chart, 2, {(): ((x, zero), (zero, zero))})
    assert entry_facts(f.comps[()][0][0]) == [((1,), QQi(1))]
    assert form_facts(f * f) == form_facts(
        ExactForm(chart, 2, {(): ((x * x, x), (zero, zero))}))
    # the whole component cancels
    g = MatrixForm.from_scalar(big, 2)
    h = g - g + MatrixForm.from_scalar(x, 2)
    assert form_facts(h * h) == form_facts(MatrixForm.from_scalar(x * x, 2))
    # added in the other order no running sum cancels until the last term
    late = big + x - big
    assert entry_facts(late) == [((1,), QQi(1))]
    assert entry_facts(late * late) == entry_facts(x * x)
    k = MatrixForm.from_scalar(big, 2) + MatrixForm.from_scalar(x, 2) - g
    assert form_facts(k * k) == form_facts(MatrixForm.from_scalar(x * x, 2))


def test_content_is_divided_out_once_per_form():
    """x/2 + x/2 = x: the sum's numerators are over denominator 1."""
    chart = Chart.affine(1)
    half = MatrixForm.from_scalar(PolyScalar.coordinate(chart, 0) * Fraction(1, 2))
    total = half + half
    assert total._numerators()[0] == 1
    assert total.comps[()][0][0].coeffs == {(1,): QQi(1)}
    assert_packed(total)
    assert_packed(exterior_d(MatrixForm.from_scalar(
        PolyScalar.coordinate(chart, 0, 2) * Fraction(1, 2))))


@pytest.mark.parametrize("kind, top", [(AFFINE, (1 << 15) - 1), (PERIODIC, (1 << 15) - 1),
                                       (PERIODIC, -(1 << 15))])
def test_diff_at_the_field_limit(kind, top):
    """The derivative of a term at the edge of the window: an affine power
    moves down by one, a periodic one keeps its key."""
    chart = Chart((kind, AFFINE))
    x = PolyScalar.coordinate(chart, 0, top) + PolyScalar.coordinate(chart, 1)
    dx = x.diff(0)
    assert entry_facts(dx) == entry_facts(reference_diff(x, 0))
    assert dx.coeffs == ({(top - 1, 0): QQi(top)} if kind == AFFINE
                         else {(top, 0): QQi(0, top)})
    assert_same(exterior_d(MatrixForm.from_scalar(x, 2)),
                reference_d(MatrixForm.from_scalar(x, 2)))


def test_derivation_apply_keeps_the_fold():
    """X(a) = [gamma, a] + sum_j c_j d_j a, with the derivative terms added
    one by one after the commutator."""
    chart = Chart((AFFINE, PERIODIC))
    x, z = PolyScalar.coordinate(chart, 0), PolyScalar.coordinate(chart, 1)
    one = PolyScalar.const(chart, 1)
    theta = ExactForm(chart, 2, {(0,): ((x, one), (z, x)), (1,): ((one, z), (x, one))})
    a = ExactForm(chart, 2, {(): ((x * z, one), (x * x, z))})
    vec = [QQi(2, 1), QQi(Fraction(-1, 3))]
    X = Derivation(Connection(theta), vec)
    gamma = X._gamma
    base = gamma * a - a * gamma
    assert_same(X.apply(a), reference_add_partials(base, a, vec))
