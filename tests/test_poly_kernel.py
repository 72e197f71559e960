"""Differential tests of the packed PolyScalar ring operations.

The references below are the coefficient-wise dict-of-QQi loops the packed
kernel replaced.  Results must agree in value and in the key order of
``coeffs``, because float sums over ``coeffs`` (grid evaluation in
``checks``) follow that order.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ncgkit.scalars import AFFINE, PERIODIC, Chart, PolyScalar, QQi


def reference_mul(p: PolyScalar, q: PolyScalar) -> dict:
    out: dict = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m)
            prod = c1 * c2
            s = prod if s is None else s + prod
            if s.a == 0 and s.b == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def reference_add(p: PolyScalar, q: PolyScalar) -> dict:
    out = dict(p.coeffs)
    for mono, c in q.coeffs.items():
        s = out.get(mono)
        s = c if s is None else s + c
        if s.a == 0 and s.b == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def items(p: PolyScalar) -> list:
    return list(p.coeffs.items())


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(QQi, rationals, rationals).filter(lambda c: not c.is_zero())
charts = st.lists(st.sampled_from((AFFINE, PERIODIC)), max_size=5).map(
    lambda kinds: Chart(tuple(kinds)))


@st.composite
def polys(draw, chart, max_terms=6, coefficients=gaussians, min_terms=0):
    def exponent(kind):
        return st.integers(0, 3) if kind == AFFINE else st.integers(-3, 3)

    monos = draw(st.lists(st.tuples(*[exponent(k) for k in chart.kinds]),
                          min_size=min_terms, max_size=max_terms, unique=True))
    return PolyScalar(chart, {m: draw(coefficients) for m in monos})


@st.composite
def chart_and_polys(draw, n=2, max_terms=6):
    chart = draw(charts)
    return chart, [draw(polys(chart, max_terms)) for _ in range(n)]


@settings(max_examples=200)
@given(chart_and_polys())
def test_mul_matches_reference(case):
    _, (p, q) = case
    assert items(p * q) == list(reference_mul(p, q).items())


@settings(max_examples=200)
@given(st.sampled_from((Chart.affine(1), Chart.torus(1), Chart((PERIODIC, AFFINE))))
       .flatmap(lambda chart: st.lists(
           polys(chart, 7, st.sampled_from((QQi(1), QQi(-1))), min_terms=3),
           min_size=2, max_size=2)))
def test_mul_keeps_key_order_when_partial_sums_cancel(pair):
    """Few monomials and unit coefficients: partial sums hit zero often,
    and a cancelled monomial that comes back must move to the end."""
    p, q = pair
    assert items(p * q) == list(reference_mul(p, q).items())


@given(chart_and_polys())
def test_mul_on_cached_packed_forms(case):
    _, (p, q) = case
    first = p * q
    again = PolyScalar(p.chart, p.coeffs) * PolyScalar(q.chart, q.coeffs)
    assert items(p * q) == items(first) == items(again)


@settings(max_examples=100)
@given(chart_and_polys(n=3, max_terms=4))
def test_chained_products_and_sums(case):
    """Operands that are themselves packed results, never read as coeffs."""
    chart, (p, q, r) = case
    lazy = (p * q + r) * (q - p)
    plain = PolyScalar._raw(chart, reference_add(
        PolyScalar._raw(chart, reference_mul(p, q)), r))
    diff = PolyScalar._raw(chart, reference_add(q, -p))
    assert items(lazy) == list(reference_mul(plain, diff).items())


@given(chart_and_polys(n=2))
def test_add_sub_neg_match_reference(case):
    _, (p, q) = case
    assert items(p + q) == list(reference_add(p, q).items())
    neg_q = {m: -c for m, c in q.coeffs.items()}
    assert items(-q) == list(neg_q.items())
    assert items(p - q) == list(reference_add(p, PolyScalar._raw(q.chart, neg_q)).items())
    assert (p - p).is_zero() and not (p - p).coeffs


@given(chart_and_polys(n=1), gaussians)
def test_scalar_mul_matches_reference(case, c):
    _, (p,) = case
    assert items(p * c) == [(m, a * c) for m, a in p.coeffs.items()]
    assert items(p * Fraction(3, 4)) == [(m, a * Fraction(3, 4))
                                         for m, a in p.coeffs.items()]
    assert (p * 0).is_zero()


@given(chart_and_polys(n=1))
def test_zero_and_single_term_operands(case):
    chart, (p,) = case
    zero = PolyScalar(chart)
    assert (p * zero).is_zero() and (zero * p).is_zero()
    term = PolyScalar(chart, {tuple(1 if k == AFFINE else -2 for k in chart.kinds):
                              QQi(Fraction(2, 3), -1)})
    assert items(p * term) == list(reference_mul(p, term).items())
    assert items(term * p) == list(reference_mul(term, p).items())


def test_cancelled_monomial_reenters_at_the_end():
    chart = Chart.affine(1)
    x = PolyScalar.coordinate(chart, 0)
    one = PolyScalar.const(chart, 1)
    p = one + x + x * x
    q = one - x + x * x + x * x * x
    prod = p * q
    # x and x^2 cancel after the second factor term; x^2 comes back later
    assert list(prod.coeffs) == [(0,), (3,), (4,), (2,), (5,)]
    assert items(prod) == list(reference_mul(p, q).items())


def test_laurent_product_cancels_to_constant():
    chart = Chart((PERIODIC, AFFINE))
    z = PolyScalar.coordinate(chart, 0)
    zbar = PolyScalar.coordinate(chart, 0, -1)
    prod = (z + zbar) * (z - zbar)
    assert items(prod) == list(reference_mul(z + zbar, z - zbar).items())
    assert list(prod.coeffs) == [(2, 0), (-2, 0)]
    assert (z * zbar).coeffs == {(0, 0): QQi(1)}


def reference_conj(p: PolyScalar) -> dict:
    """The conjugate through ``coeffs``: periodic exponents flip."""
    return {tuple(-e if kind == PERIODIC else e for e, kind in zip(mono, p.chart.kinds)):
            c.conj() for mono, c in p.coeffs.items()}


@given(chart_and_polys(n=2))
def test_conj_matches_reference(case):
    _, (p, q) = case
    assert items(p.conj()) == list(reference_conj(p).items())
    packed = p * q + p  # never read as coefficients
    assert items(packed.conj()) == list(reference_conj(packed).items())
    assert items(p.conj().conj()) == items(p)


# The packed window: -2^15 <= e < 2^15 on every field.  LAST[sign] is the
# last exponent inside it on that side.
LAST = {1: (1 << 15) - 1, -1: -(1 << 15)}


def power(chart, j, e):
    """x_j^e times x_(1-j)^3 on a two-variable chart, so the field next to
    the edge field is in use: a field below zero borrows from the one above."""
    return PolyScalar.coordinate(chart, j, e) * PolyScalar.coordinate(chart, 1 - j, 3)


def mono(j, e):
    return (e, 3) if j == 0 else (3, e)


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("kind, sign", [(AFFINE, 1), (PERIODIC, 1), (PERIODIC, -1)])
def test_product_past_the_field_raises(kind, sign, j):
    """A product packs while its exponents stay in the window: x^(2^14)
    times x^(2^14 - 1) is x^(2^15 - 1) and x^(-2^14) squared is x^(-2^15),
    one step further on either side raises."""
    kinds = [PERIODIC, PERIODIC]
    kinds[j] = kind
    chart = Chart(tuple(kinds))
    half = sign * (1 << 14)
    edge = PolyScalar.coordinate(chart, j, half)
    assert (edge * power(chart, j, LAST[sign] - half)).coeffs == {
        mono(j, LAST[sign]): QQi(1)}
    with pytest.raises(OverflowError):
        edge * power(chart, j, LAST[sign] - half + sign)


@pytest.mark.parametrize("e", [-(1 << 15) - 1, -(1 << 15), (1 << 15) - 1, 1 << 15])
def test_exponent_is_checked_where_it_enters(e):
    """The constructor, and so ``coordinate``, takes an exponent in the
    packed window and raises OverflowError on one outside it, before any
    arithmetic."""
    chart = Chart.torus(2)
    builders = (lambda: PolyScalar.coordinate(chart, 1, e),
                lambda: PolyScalar(chart, {(0, e): QQi(2), (1, 0): QQi(1)}))
    for build in builders:
        if -(1 << 15) <= e < 1 << 15:
            assert (build() * PolyScalar.coordinate(chart, 0)).coeffs[(1, e)] != 0
        else:
            with pytest.raises(OverflowError):
                build()


@pytest.mark.parametrize("sign", [1, -1])
def test_exponent_past_the_field_raises(sign):
    """An exponent packs when -2^15 <= e < 2^15, and the conjugate of a
    periodic x^(-2^15) is x^(2^15), which does not."""
    chart = Chart.torus(2)
    last = PolyScalar.coordinate(chart, 1, LAST[sign])
    assert (last * PolyScalar.coordinate(chart, 0)).coeffs == {(1, LAST[sign]): QQi(1)}
    assert (last + 1).coeffs == {(0, LAST[sign]): QQi(1), (0, 0): QQi(1)}
    with pytest.raises(OverflowError):
        PolyScalar.coordinate(chart, 1, LAST[sign] + sign)
    if sign > 0:
        assert last.conj().coeffs == {(0, -LAST[sign]): QQi(1)}
    else:
        with pytest.raises(OverflowError):
            last.conj()
    # affine exponents do not flip
    mixed = PolyScalar.coordinate(Chart((AFFINE, PERIODIC)), 0, LAST[1]) * QQi(0, 1)
    assert mixed.conj().coeffs == {(LAST[1], 0): QQi(0, -1)}
