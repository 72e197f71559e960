import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ncgkit.forms import (
    Connection,
    ExactForm,
    JetForm,
    MatrixForm,
    ShapeMismatch,
    dd_representative,
    exp_beta_intertwiner,
    exp_form,
    exterior_d,
    twisted_d,
)
from ncgkit.randgen import (
    random_algebra_element,
    random_connection,
    random_matrix_form,
    random_poly,
)
from ncgkit.scalars import Chart, JetScalar, PolyScalar, QQi

AFF3 = Chart.affine(3)


def dx(chart, j, coeff=None):
    c = coeff if coeff is not None else PolyScalar.const(chart, 1)
    return MatrixForm.from_scalar(c, 1, (j,))


def test_wedge_antisymmetry_of_coordinates():
    a = dx(AFF3, 0)
    assert (a * a).is_zero()


def test_wedge_sign_rule_constant_matrices():
    rng = random.Random(0)
    a_mat = ExactForm.const_matrix(AFF3, [[QQi(1), QQi(2)], [QQi(0), QQi(1)]])
    b_mat = ExactForm.const_matrix(AFF3, [[QQi(0), QQi(1)], [QQi(3), QQi(-1)]])
    a_form = a_mat * MatrixForm.from_scalar(PolyScalar.const(AFF3, 1), 2, (0,))
    b_form = b_mat * MatrixForm.from_scalar(PolyScalar.const(AFF3, 1), 2, (1,))
    lhs = a_form * b_form + b_form * a_form
    want = (a_mat * b_mat - b_mat * a_mat) * MatrixForm.from_scalar(
        PolyScalar.const(AFF3, 1), 2, (0,)
    ) * MatrixForm.from_scalar(PolyScalar.const(AFF3, 1), 2, (1,))
    assert lhs == want


def test_degree_zero_product_is_matrix_product():
    rng = random.Random(1)
    a = random_algebra_element(AFF3, 2, rng)
    b = random_algebra_element(AFF3, 2, rng)
    prod = a * b
    assert prod.degrees() == [0]


def test_wedge_shape_mismatch():
    a = ExactForm.identity(AFF3, 2)
    b = ExactForm.identity(AFF3, 3)
    with pytest.raises(ShapeMismatch):
        a * b


def test_trace_graded_symmetry():
    rng = random.Random(2)
    for da, db in ((1, 1), (1, 2), (2, 2)):
        a = random_matrix_form(AFF3, 2, rng, da)
        b = random_matrix_form(AFF3, 2, rng, db)
        sign = (-1) ** (da * db)
        assert ((a * b).trace() - (b * a).trace().scale(sign)).is_zero()


def test_exterior_d_coordinate_example():
    x0 = PolyScalar.coordinate(AFF3, 0)
    f = MatrixForm.from_scalar(x0, 1, (1,))  # x_0 dx_1
    df = exterior_d(f)
    assert list(df.comps) == [(0, 1)]
    assert df.comps[(0, 1)][0][0] == PolyScalar.const(AFF3, 1)


def test_exterior_d_product_rule_function():
    x0 = PolyScalar.coordinate(AFF3, 0)
    x1 = PolyScalar.coordinate(AFF3, 1)
    f = MatrixForm.from_scalar(x0 * x1, 1)
    df = exterior_d(f)
    assert df.comps[(0,)][0][0] == x1
    assert df.comps[(1,)][0][0] == x0


def test_flat_jet_entry_is_kept():
    """A jet entry whose values vanish but whose gradients do not is not
    zero: the form keeps it and its differential is the gradient."""
    chart = Chart.affine(1)
    flat = JetScalar(chart, np.zeros(3), [[1, 2, 3]])
    f = JetForm(chart, 1, {(): ((flat,),)}, 3)
    assert not f.is_zero()
    df = exterior_d(f)
    assert list(df.comps) == [(0,)]
    assert np.array_equal(df.comps[(0,)][0][0].values, [1, 2, 3])


@pytest.mark.parametrize("where", [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 2)])
def test_nan_sample_is_not_zero(where):
    """A NaN sample in the first or a later entry, at the first or a later
    node, makes the largest magnitude NaN: the form does not vanish at any
    tolerance and differs from zero and from itself."""
    chart = Chart.affine(1)
    r, c, node = where
    rows = [[np.full(3, 1e-20, dtype=complex) for _ in range(2)] for _ in range(2)]
    rows[r][c][node] = np.nan
    form = JetForm(chart, 2, {(): tuple(tuple(JetScalar(chart, v) for v in row)
                                        for row in rows)}, 3)
    assert np.isnan(form.max_abs())
    assert not form.vanishes(1e-10)
    assert form != form.zero_like(2)
    assert form != form
    one = JetForm(chart, 1, {(): ((JetScalar(chart, [np.nan, 1.0, 0.0]),),)}, 3)
    assert np.isnan(one.max_abs()) and not one.vanishes(1.0)


def test_d_squared_zero_random():
    rng = random.Random(3)
    for deg in (0, 1, 2):
        a = random_matrix_form(AFF3, 2, rng, deg, poly_deg=2)
        assert exterior_d(exterior_d(a)).is_zero()


def test_d_graded_leibniz():
    rng = random.Random(4)
    for da, db in ((0, 0), (0, 1), (1, 1), (1, 2)):
        a = random_matrix_form(AFF3, 2, rng, da)
        b = random_matrix_form(AFF3, 2, rng, db)
        lhs = exterior_d(a * b)
        rhs = exterior_d(a) * b + (a * exterior_d(b)).scale((-1) ** da)
        assert (lhs - rhs).is_zero()


class TestConnection:
    def test_flat_reduces_to_d(self):
        rng = random.Random(5)
        conn = Connection(ExactForm.zero(AFF3, 2))
        a = random_matrix_form(AFF3, 2, rng, 1)
        assert (conn.nabla(a) - exterior_d(a)).is_zero()

    def test_degree_zero_commutator_formula(self):
        rng = random.Random(6)
        conn = random_connection(AFF3, 2, rng)
        a = random_algebra_element(AFF3, 2, rng)
        want = exterior_d(a) + conn.theta * a - a * conn.theta
        assert (conn.nabla(a) - want).is_zero()

    def test_square_is_lift_action_100(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rng.randint(1, 3)
            conn = random_connection(AFF3, m, rng)
            a = random_algebra_element(AFF3, m, rng)
            lhs = conn.nabla(conn.nabla(a))
            rhs = conn.sigma * a - a * conn.sigma
            assert (lhs - rhs).is_zero()

    def test_curvature_zero_gauge(self):
        conn = Connection(ExactForm.zero(AFF3, 2))
        assert conn.omega.is_zero() and conn.sigma.is_zero()

    def test_rank_one_is_fully_scalar(self):
        x0 = PolyScalar.coordinate(AFF3, 0)
        theta = MatrixForm.from_scalar(x0, 1, (1,))  # x_0 dx_1
        conn = Connection(theta)
        # omega = dx_0 ^ dx_1, traceless lift vanishes at rank one
        assert conn.omega.comps[(0, 1)][0][0] == PolyScalar.const(AFF3, 1)
        assert conn.sigma.is_zero()

    def test_constant_matrices_curvature_is_commutator(self):
        a = [[QQi(0), QQi(1)], [QQi(0), QQi(0)]]
        b = [[QQi(0), QQi(0)], [QQi(1), QQi(0)]]
        fa = ExactForm.const_matrix(AFF3, a) * dx(AFF3, 0)
        fb = ExactForm.const_matrix(AFF3, b) * dx(AFF3, 1)
        conn = Connection(fa + fb)
        comm = ExactForm.const_matrix(AFF3, a) * ExactForm.const_matrix(AFF3, b) \
            - ExactForm.const_matrix(AFF3, b) * ExactForm.const_matrix(AFF3, a)
        want = comm * dx(AFF3, 0) * dx(AFF3, 1)
        assert (conn.omega - want).is_zero()

    def test_traceless_and_bianchi(self):
        rng = random.Random(8)
        for _ in range(25):
            conn = random_connection(AFF3, 3, rng)
            assert conn.sigma.trace().is_zero()
            assert conn.nabla(conn.sigma).is_zero()
            assert conn.nabla(conn.omega).is_zero()

    def test_lazy_curvature_equals_the_eager_formulas(self):
        rng = random.Random(9)
        for m in (1, 2, 3):
            theta = random_matrix_form(AFF3, m, rng, 1)
            conn = Connection(theta)
            assert "omega" not in vars(conn) and "sigma" not in vars(conn)
            omega = exterior_d(theta) + theta * theta
            sigma = omega - omega.trace().scale(Fraction(1, m)) * ExactForm.identity(AFF3, m)
            assert conn.sigma == sigma and conn.omega == omega
            assert conn.sigma is conn.sigma and conn.omega is conn.omega
            # a sigma given, assigned or amplified wins over the formula
            other = random_matrix_form(AFF3, m, rng, 2)
            assert Connection(theta, other).sigma is other
            assert Connection.with_sigma(other).sigma is other
            conn.sigma = other
            assert conn.sigma is other and conn.omega == omega
            amp = conn.amplify(2)
            assert amp.sigma == other.amplify(2)
            assert amp.omega == exterior_d(theta.amplify(2)) + theta.amplify(2) * theta.amplify(2)


class TestLiftRepresentative:
    def test_single_chart_vanishes(self):
        rng = random.Random(9)
        conn = random_connection(AFF3, 2, rng)
        assert dd_representative(conn).is_zero()

    def test_declared_discrepancy_two_chart_toy(self):
        rng = random.Random(10)
        # two charts with their own gauges and declared 2-form discrepancies
        for _ in range(5):
            conn = random_connection(AFF3, 2, rng)
            beta = random_matrix_form(AFF3, 1, rng, 2)
            rep = dd_representative(conn, beta)
            assert (rep - exterior_d(beta)).is_zero()
            assert exterior_d(rep).is_zero()

    def test_exact_flatness_defect_is_judged_at_zero_tolerance(self):
        """An exact lift whose flatness defect is 10^-12 dx_0 dx_1 dx_2 fails:
        no tolerance applies to exact forms, however small the defect."""
        tiny = PolyScalar.coordinate(AFF3, 0) * Fraction(1, 10 ** 12)
        sigma = MatrixForm.from_scalar(tiny, 1, (1, 2))
        assert not exterior_d(sigma).is_zero()
        with pytest.raises(ValueError, match="flatness"):
            dd_representative(Connection.with_sigma(sigma))
        assert dd_representative(Connection.with_sigma(sigma.zero_like(1))).is_zero()


class TestTwistedComplex:
    def test_zero_twist_is_d(self):
        rng = random.Random(11)
        w = random_matrix_form(AFF3, 2, rng, 1)
        c = ExactForm.zero(AFF3, 1)
        assert (twisted_d(c, w) - exterior_d(w)).is_zero()

    def test_twist_of_unit(self):
        rng = random.Random(12)
        alpha = random_matrix_form(AFF3, 1, rng, 2)
        c = exterior_d(alpha)
        one = ExactForm.identity(AFF3, 1)
        assert (twisted_d(c, one) - c).is_zero()

    def test_square_zero(self):
        rng = random.Random(13)
        chart = Chart.affine(4)
        for _ in range(20):
            alpha = random_matrix_form(chart, 1, rng, 2)
            c = exterior_d(alpha)
            w = random_matrix_form(chart, 1, rng, rng.randint(0, 1))
            assert twisted_d(c, twisted_d(c, w)).is_zero()

    def test_rejects_nonclosed_twist(self):
        x0 = PolyScalar.coordinate(AFF3, 0)
        c = MatrixForm.from_scalar(x0 * x0, 1, (0, 1, 2))
        # d of this 3-form is zero on a 3-chart; force a genuine violation
        chart4 = Chart.affine(4)
        bad = MatrixForm.from_scalar(
            PolyScalar.coordinate(chart4, 3), 1, (0, 1, 2)
        )
        with pytest.raises(ValueError):
            twisted_d(bad, ExactForm.identity(chart4, 1))

    def test_rejects_wrong_degree(self):
        w = ExactForm.identity(AFF3, 1)
        c2 = MatrixForm.from_scalar(PolyScalar.const(AFF3, 1), 1, (0, 1))
        with pytest.raises(ValueError):
            twisted_d(c2, w)


class TestExpShift:
    def test_zero_shift_identity(self):
        rng = random.Random(14)
        w = random_matrix_form(AFF3, 2, rng, 1)
        beta = ExactForm.zero(AFF3, 1)
        assert (exp_beta_intertwiner(beta, w) - w).is_zero()

    def test_truncation_by_degree(self):
        rng = random.Random(15)
        beta = random_matrix_form(AFF3, 1, rng, 2)
        # on a 3-chart beta^beta has degree 4 and dies
        e = exp_form(beta)
        assert (e - ExactForm.identity(AFF3, 1) - beta).is_zero()

    def test_intertwining_identity(self):
        rng = random.Random(16)
        chart = Chart.affine(4)
        for _ in range(20):
            alpha = random_matrix_form(chart, 1, rng, 2)
            c1 = exterior_d(alpha)
            beta = random_matrix_form(chart, 1, rng, 2)
            c2 = c1 - exterior_d(beta)
            w = random_matrix_form(chart, 1, rng, rng.randint(0, 1))
            lhs = twisted_d(c2, exp_beta_intertwiner(beta, w))
            rhs = exp_beta_intertwiner(beta, twisted_d(c1, w))
            assert (lhs - rhs).is_zero()


@given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 1))
def test_wedge_associative(seed, da, db):
    rng = random.Random(seed)
    a = random_matrix_form(AFF3, 2, rng, da, terms=1)
    b = random_matrix_form(AFF3, 2, rng, db, terms=1)
    c = random_matrix_form(AFF3, 2, rng, 1, terms=1)
    assert ((a * b) * c - a * (b * c)).is_zero()


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 2))
def test_d_squared_under_random_data(seed, m, deg):
    rng = random.Random(seed)
    a = random_matrix_form(AFF3, m, rng, deg, poly_deg=2)
    assert exterior_d(exterior_d(a)).is_zero()


def _random_matrix_form_by_folding(chart, m, rng, degree, poly_deg, terms):
    """The form of ``random_matrix_form`` as a sum of one form per component."""
    out = ExactForm.zero(chart, m)
    for idx in itertools.combinations(range(chart.dim), degree):
        mat = tuple(tuple(random_poly(chart, rng, poly_deg, terms) for _ in range(m))
                    for _ in range(m))
        out = out + ExactForm(chart, m, {idx: mat})
    return out


@given(st.integers(0, 10 ** 6), st.sampled_from((Chart.affine(2), AFF3, Chart.torus(2))),
       st.integers(1, 3), st.integers(0, 3), st.integers(0, 2), st.integers(1, 3))
def test_random_matrix_form_matches_the_fold(seed, chart, m, degree, poly_deg, terms):
    """One constructor call gives the form that summing one form per
    component gives: the same components in the same order, the same
    coefficients in the same key order, and the generator left in the same
    state."""
    degree = min(degree, chart.dim)
    rng, rng_fold = random.Random(seed), random.Random(seed)
    got = random_matrix_form(chart, m, rng, degree, poly_deg, terms)
    want = _random_matrix_form_by_folding(chart, m, rng_fold, degree, poly_deg, terms)
    assert rng.getstate() == rng_fold.getstate()
    assert got == want
    assert list(got.comps) == list(want.comps)
    for idx, mat in want.comps.items():
        for row, want_row in zip(got.comps[idx], mat):
            for x, y in zip(row, want_row):
                assert list(x.coeffs.items()) == list(y.coeffs.items())
    assert got._numerators()[0] == want._numerators()[0]


def test_amplify_and_blocks():
    rng = random.Random(18)
    a = random_matrix_form(AFF3, 2, rng, 1)
    big = a.amplify(3)
    assert big.m == 6
    for i in range(3):
        assert big.block(i, i, 2) == a
    for i in range(3):
        for j in range(3):
            if i != j:
                assert big.block(i, j, 2).is_zero()
