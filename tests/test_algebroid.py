import itertools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from ncgkit.algebroid import (
    AlternatingForm,
    Derivation,
    ce_d,
    ce_differential,
    chain_cochain,
    derivation_character,
    form_scalar,
    leibniz_defect,
    perm_sign,
)
from ncgkit.cyclic import Chain, Projection, chern_cyclic, connes_B, hochschild_b
from ncgkit.forms import Connection, ExactForm, MatrixForm
from ncgkit.randgen import (
    random_algebra_element,
    random_commuting_family,
    random_connection,
    random_exact_projection,
    random_qqi,
)
from ncgkit.scalars import Chart, PolyScalar, QQi

from test_cyclic import chain_of

AFF2 = Chart.affine(2)
T2 = Chart.torus(2)
POINT = Chart(())


def make_deriv(conn, rng):
    return Derivation(
        conn,
        [random_qqi(rng) for _ in range(conn.chart.dim)],
        random_algebra_element(conn.chart, conn.m, rng),
    )


def reference_apply(x, a):
    """Per-coordinate Leibniz action: sum_j c_j (d_j a + [theta_j, a]) + [beta, a]."""
    conn = x.conn
    out = a.zero_like(conn.m)
    for j, c in enumerate(x.vector):
        if c.is_zero():
            continue
        mat = a.component(())
        d_mat = tuple(tuple(e.diff(j) for e in row) for row in mat)
        dj = MatrixForm.from_entries(conn.chart, (), d_mat)
        th = ExactForm(conn.chart, conn.m, {(): conn.theta.component((j,))})
        out = out + (dj + th * a - a * th).scale(c)
    return out + x.beta * a - a * x.beta


def reference_bracket_inner(x, y):
    """Inner part of [X, Y]: X_vec(beta') - Y_vec(beta) + [beta, beta'] + omega(c, c')."""
    conn = x.conn
    x_vec, y_vec = Derivation(conn, x.vector), Derivation(conn, y.vector)
    gamma = (reference_apply(x_vec, y.beta) - reference_apply(y_vec, x.beta)
             + x.beta * y.beta - y.beta * x.beta)
    for (i, j), mat in conn.omega.comps.items():
        coef = x.vector[i] * y.vector[j] - x.vector[j] * y.vector[i]
        gamma = gamma + ExactForm(conn.chart, conn.m, {(): mat}).scale(coef)
    return gamma


@st.composite
def derivation_cases(draw):
    """A connection, two derivations and an element on a 2-chart.

    Vector parts are random or zero (inner only), inner parts random or zero.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    chart = Chart.affine(2) if draw(st.booleans()) else Chart.torus(2)
    m = draw(st.integers(1, 3))
    conn = random_connection(chart, m, rng, terms=1)

    def deriv():
        vector = ([random_qqi(rng) for _ in range(2)]
                  if draw(st.booleans()) else ())
        beta = (random_algebra_element(chart, m, rng, terms=1)
                if draw(st.booleans()) else None)
        return Derivation(conn, vector, beta)

    return conn, deriv(), deriv(), random_algebra_element(chart, m, rng, terms=1)


@settings(max_examples=40, deadline=None)
@given(derivation_cases())
def test_apply_matches_per_coordinate_reference(case):
    _, x, y, a = case
    assert x.apply(a) == reference_apply(x, a)
    assert y.apply(a) == reference_apply(y, a)
    assert x.bracket(y).beta == reference_bracket_inner(x, y)


@settings(max_examples=15, deadline=None)
@given(derivation_cases())
def test_action_memo_per_derivation_and_element(case):
    conn, x, y, a = case
    first = x.apply(a)
    assert x.apply(a) is first
    # an equal element that is a distinct object
    twin = ExactForm(a.chart, a.m, dict(a.comps))
    assert twin is not a and x.apply(twin) == reference_apply(x, twin)
    # a second derivation on the same element gets its own action
    z = Derivation(conn, [QQi(1), QQi(0)], random_algebra_element(
        conn.chart, conn.m, random.Random(0), terms=1))
    assert y.apply(a) == reference_apply(y, a)
    assert z.apply(a) == reference_apply(z, a)
    assert x.bracket(y) is x.bracket(y)
    assert x.bracket(z).beta == reference_bracket_inner(x, z)


def derivation_character_reference(ch, xs):
    """(1/k!) sum_sigma sgn(sigma) tr(b_0 X_sigma(1)(b_1) ... X_sigma(k)(b_k)),
    each product formed in full and then traced."""
    k = ch.degree
    chart = ch.terms[0][1][0].chart
    total = PolyScalar.const(chart, 0)
    for coef, t in ch.terms:
        acc = PolyScalar.const(chart, 0)
        for perm in itertools.permutations(range(k)):
            prod = t[0]
            for pos in range(k):
                prod = prod * xs[perm[pos]].apply(t[pos + 1])
            val = form_scalar(prod.trace())
            acc = acc + (val if perm_sign(perm) > 0 else -val)
        total = total + acc * (coef * Fraction(1, math.factorial(k)))
    return total


@st.composite
def character_cases(draw):
    """A chain of degree 0..3 with one or several terms on m x m elements,
    and k derivations: random, inner only, or zero (a zero action makes
    the product vanish)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    k = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    chart = Chart.affine(2) if draw(st.booleans()) else Chart.torus(2)
    conn = random_connection(chart, m, rng, terms=1)
    n_terms = draw(st.integers(1, 3))
    terms = [(random_qqi(rng), tuple(
        random_algebra_element(chart, m, rng, terms=1) for _ in range(k + 1)))
        for _ in range(n_terms)]
    kinds = draw(st.lists(st.sampled_from(("full", "inner", "zero")),
                          min_size=k, max_size=k))
    xs = tuple(
        make_deriv(conn, rng) if kind == "full"
        else Derivation.inner(conn, random_algebra_element(chart, m, rng, terms=1))
        if kind == "inner" else Derivation(conn)
        for kind in kinds)
    return Chain(k, terms), xs


@settings(max_examples=30, deadline=None)
@given(character_cases())
def test_derivation_character_matches_full_product_reference(case):
    ch, xs = case
    assume(ch.terms)
    out = derivation_character(ch, xs)
    want = derivation_character_reference(ch, xs)
    assert out == want
    # same coefficients in the same key order, which float readers see
    assert list(out.coeffs.items()) == list(want.coeffs.items())


def test_cochain_cache_tells_colliding_inner_parts_apart(monkeypatch):
    # two derivations with equal vector parts whose inner parts collide
    # under hash must still get their own cochain values
    rng = random.Random(18)
    conn = random_connection(AFF2, 2, rng)
    vector = [random_qqi(rng) for _ in range(2)]
    x1 = Derivation(conn, vector, random_algebra_element(AFF2, 2, rng))
    x2 = Derivation(conn, vector, random_algebra_element(AFF2, 2, rng))
    a = random_algebra_element(AFF2, 2, rng)
    b = random_algebra_element(AFF2, 2, rng)
    monkeypatch.setattr(ExactForm, "__hash__", lambda self: 0)
    om = AlternatingForm.alternating_from_seeds([(a, b)])
    v1, v2 = om(x1), om(x2)
    assert not (v1 - v2).is_zero()
    assert (v2 - form_scalar((a * reference_apply(x2, b)).trace())).is_zero()


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_leibniz_rule():
    rng = random.Random(0)
    conn = random_connection(AFF2, 2, rng)
    for _ in range(10):
        x = make_deriv(conn, rng)
        a = random_algebra_element(AFF2, 2, rng)
        b = random_algebra_element(AFF2, 2, rng)
        assert leibniz_defect(x, a, b).is_zero()


def test_bracket_is_operator_commutator():
    rng = random.Random(1)
    conn = random_connection(AFF2, 2, rng)
    for _ in range(10):
        x, y = make_deriv(conn, rng), make_deriv(conn, rng)
        a = random_algebra_element(AFF2, 2, rng)
        lhs = x.bracket(y).apply(a)
        rhs = x.apply(y.apply(a)) - y.apply(x.apply(a))
        assert (lhs - rhs).is_zero()


def test_bracket_of_derivations_is_derivation():
    rng = random.Random(2)
    conn = random_connection(AFF2, 2, rng)
    x, y = make_deriv(conn, rng), make_deriv(conn, rng)
    a = random_algebra_element(AFF2, 2, rng)
    b = random_algebra_element(AFF2, 2, rng)
    assert leibniz_defect(x.bracket(y), a, b).is_zero()


def test_anchor_and_scalar_center():
    rng = random.Random(3)
    conn = random_connection(AFF2, 2, rng)
    x = make_deriv(conn, rng)
    f = PolyScalar.coordinate(AFF2, 0) * PolyScalar.coordinate(AFF2, 1)
    # the anchor is the vector-field part acting on scalar functions
    want = f.diff(0) * x.vector[0] + f.diff(1) * x.vector[1]
    assert (x.anchor(f) - want).is_zero()
    # trace intertwines the full action with the anchor
    a = random_algebra_element(AFF2, 2, rng)
    lhs = form_scalar(x.apply(a).trace())
    rhs = x.anchor(form_scalar(a.trace()))
    assert (lhs - rhs).is_zero()


class TestCochainDifferential:
    def test_degree_zero_formula(self):
        rng = random.Random(4)
        conn = random_connection(AFF2, 2, rng)
        f = PolyScalar.coordinate(AFF2, 0)
        om = AlternatingForm(0, lambda: f)
        x = make_deriv(conn, rng)
        assert (ce_differential(om, x) - x.anchor(f)).is_zero()

    def test_degree_one_formula(self):
        rng = random.Random(5)
        conn = random_connection(AFF2, 2, rng)
        a = random_algebra_element(AFF2, 2, rng)
        b = random_algebra_element(AFF2, 2, rng)
        om = AlternatingForm.alternating_from_seeds([(a, b)])
        x, y = make_deriv(conn, rng), make_deriv(conn, rng)
        lhs = ce_differential(om, x, y)
        want = x.anchor(om(y)) - y.anchor(om(x)) - om(x.bracket(y))
        assert (lhs - want).is_zero()

    def test_antisymmetry_of_seed_forms(self):
        rng = random.Random(6)
        conn = random_connection(AFF2, 2, rng)
        a = random_algebra_element(AFF2, 2, rng)
        b = random_algebra_element(AFF2, 2, rng)
        om = AlternatingForm.alternating_from_seeds([(a, b), (b, a)])
        x, y = make_deriv(conn, rng), make_deriv(conn, rng)
        assert (om(x, y) + om(y, x)).is_zero()

    def test_dd_zero(self):
        rng = random.Random(7)
        conn = random_connection(AFF2, 3, rng)
        for _ in range(8):
            a = random_algebra_element(AFF2, 3, rng)
            b = random_algebra_element(AFF2, 3, rng)
            om = AlternatingForm.alternating_from_seeds([(a, b)])
            xs = tuple(make_deriv(conn, rng) for _ in range(3))
            assert ce_differential(ce_d(om), *xs).is_zero()

    def test_wrong_arity_raises(self):
        om = AlternatingForm(0, lambda: PolyScalar.const(AFF2, 1))
        with pytest.raises(ValueError):
            om(None)


class TestDerivationCharacter:
    def test_degree_zero_is_trace(self):
        rng = random.Random(8)
        conn = random_connection(AFF2, 2, rng)
        a = random_algebra_element(AFF2, 2, rng)
        out = derivation_character(chain_of(a), ())
        assert (out - form_scalar(a.trace())).is_zero()

    def test_degree_one_formula(self):
        rng = random.Random(9)
        conn = random_connection(AFF2, 2, rng)
        a = random_algebra_element(AFF2, 2, rng)
        b = random_algebra_element(AFF2, 2, rng)
        x = make_deriv(conn, rng)
        out = derivation_character(chain_of(a, b), (x,))
        want = form_scalar((a * x.apply(b)).trace())
        assert (out - want).is_zero()

    def test_kills_boundaries(self):
        rng = random.Random(10)
        conn = random_connection(AFF2, 2, rng)
        for k in (1, 2):
            ch = Chain(k + 1, [(QQi(1), tuple(
                random_algebra_element(AFF2, 2, rng) for _ in range(k + 2)
            ))])
            xs = tuple(make_deriv(conn, rng) for _ in range(k))
            assert derivation_character(hochschild_b(ch), xs).is_zero()

    def test_intertwines_suspension(self):
        rng = random.Random(11)
        conn = random_connection(AFF2, 2, rng)
        for k in (1, 2):
            ch = Chain(k, [(QQi(1), tuple(
                random_algebra_element(AFF2, 2, rng) for _ in range(k + 1)
            ))])
            xs = tuple(make_deriv(conn, rng) for _ in range(k + 1))
            lhs = derivation_character(connes_B(ch), xs)
            rhs = ce_differential(chain_cochain(ch), *xs)
            assert (lhs - rhs).is_zero()

    def test_antisymmetric_in_arguments(self):
        rng = random.Random(12)
        conn = random_connection(AFF2, 2, rng)
        ch = Chain(2, [(QQi(1), tuple(
            random_algebra_element(AFF2, 2, rng) for _ in range(3)
        ))])
        x, y = make_deriv(conn, rng), make_deriv(conn, rng)
        assert (derivation_character(ch, (x, y))
                + derivation_character(ch, (y, x))).is_zero()

    def test_arity_mismatch(self):
        rng = random.Random(13)
        conn = random_connection(AFF2, 2, rng)
        ch = chain_of(*(random_algebra_element(AFF2, 2, rng) for _ in range(3)))
        with pytest.raises(ValueError):
            derivation_character(ch, (make_deriv(conn, rng),))


class TestVanishingOnCommutingInner:
    def test_projection_cycles_commuting_pair(self):
        # base algebra of 2x2 matrix functions so inner derivations act
        rng = random.Random(14)
        connT = random_connection(T2, 2, rng)
        p = Projection(random_exact_projection(T2, 4, rng), 2, 2)
        ch = chern_cyclic(p, 1)
        fam = random_commuting_family(2, 2, rng)
        xs = tuple(
            Derivation.inner(connT, ExactForm.const_matrix(T2, f))
            for f in fam
        )
        assert derivation_character(ch, xs).is_zero()

    def test_cycles_with_boundary_parts_commuting_family(self):
        rng = random.Random(15)
        conn = random_connection(AFF2, 3, rng)
        for _ in range(10):
            ch = hochschild_b(Chain(3, [(QQi(1), tuple(
                random_algebra_element(AFF2, 3, rng) for _ in range(4)
            ))]))
            fam = random_commuting_family(3, 2, rng)
            xs = tuple(
                Derivation.inner(conn, ExactForm.const_matrix(AFF2, f))
                for f in fam
            )
            assert derivation_character(ch, xs).is_zero()

    def test_noncommuting_inner_need_not_vanish(self):
        # the vanishing statement is specific to commuting families: a
        # projection cycle against generic non-commuting inner derivations
        # is nonzero
        rng = random.Random(16)
        connT = random_connection(T2, 2, rng)
        found_nonzero = False
        for _ in range(10):
            p = Projection(random_exact_projection(T2, 4, rng), 2, 2)
            ch = chern_cyclic(p, 1)
            xs = tuple(
                Derivation.inner(connT, random_algebra_element(T2, 2, rng))
                for _ in range(2)
            )
            if not derivation_character(ch, xs).is_zero():
                found_nonzero = True
                break
        assert found_nonzero


def test_point_algebra_model():
    # all derivations of a matrix algebra over a point are inner
    rng = random.Random(17)
    conn = Connection(ExactForm.zero(POINT, 3))
    beta = random_algebra_element(POINT, 3, rng)
    x = Derivation.inner(conn, beta)
    a = random_algebra_element(POINT, 3, rng)
    assert (x.apply(a) - (beta * a - a * beta)).is_zero()
    f = PolyScalar.const(POINT, 5)
    assert x.anchor(f).is_zero()
