import random
from fractions import Fraction
from math import pi

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from ncgkit.cyclic import Chain
from ncgkit.forms import ExactForm, JetForm, MatrixForm, exp_form, exterior_d, trace_of_product
from ncgkit.geom import (
    CHERN_UNIT,
    Geometry,
    QuadratureError,
    a_hat_from_curvature,
    bott_projection,
    chern_number,
    character_pairing,
    cocycle_cyclicity_residual,
    constant_projection,
    kron_identity_right,
    local_index,
    pairing_index,
    relative_chern,
)
from ncgkit.randgen import random_poly
from ncgkit.scalars import Chart, JetScalar, PolyScalar, QQi


class TestQuadrature:
    def test_sphere_volume(self):
        g = Geometry.sphere2(12, 24)
        assert abs(np.sum(g.weights * g.frame_density) - 4 * pi) < 1e-10

    def test_torus_volume(self):
        g = Geometry.torus2(16)
        assert abs(np.sum(g.weights * g.frame_density) - (2 * pi) ** 2) < 1e-10

    def test_exact_torus_integral(self):
        # the uniform torus grid integrates cos^2(theta) exactly: (2 pi)^2
        # times its constant Fourier coefficient 1/2
        g = Geometry.torus2(8)
        f = PolyScalar.cos(g.chart, 0) * PolyScalar.cos(g.chart, 0)
        assert f.coeffs[(0, 0)] == QQi(Fraction(1, 2))
        jet = JetScalar(g.chart, np.cos(g.theta) ** 2, None)
        form = JetForm(g.chart, 1, {(): ((jet,),)}, g.n_nodes)
        assert abs(g.integrate_form(form, 0) - (2 * pi) ** 2 / 2) < 1e-10

    def test_sphere_low_moments(self):
        # integral of cos^2(theta) over the sphere = 4 pi / 3
        g = Geometry.sphere2(12, 24)
        f = JetScalar(g.chart, np.cos(g.theta) ** 2, None)
        form = JetForm(g.chart, 1, {(): ((f,),)}, g.n_nodes)
        assert abs(g.integrate_form(form, 0) - 4 * pi / 3) < 1e-10

    def test_nodes_avoid_poles(self):
        g = Geometry.sphere2(8, 16)
        assert np.min(np.sin(g.theta)) > 1e-3


class TestAHat:
    def test_zero_curvature(self):
        chart = Chart.affine(4)
        r = ExactForm.zero(chart, 2)
        out = a_hat_from_curvature(r)
        assert (out - ExactForm.identity(chart, 1)).is_zero()

    def test_surface_is_one(self):
        # no nonzero degree-4 component exists on a 2-chart
        chart = Chart.affine(2)
        x = PolyScalar.const(chart, 1)
        entry = MatrixForm.from_scalar(x, 1, (0, 1))
        r = MatrixForm.from_blocks([
            [ExactForm.zero(chart, 1), entry],
            [-entry, ExactForm.zero(chart, 1)],
        ])
        out = a_hat_from_curvature(r)
        assert (out - ExactForm.identity(chart, 1)).is_zero()

    def _block(self, chart, two_form):
        zero = ExactForm.zero(chart, 1)
        return MatrixForm.from_blocks([[zero, two_form], [-two_form, zero]])

    def test_degree_four_coefficient_is_first_pontryagin_over_24(self):
        # oracle: A-hat(x) = 1 - x^2/24 + 7 x^4/5760 on formal roots
        chart = Chart.affine(4)
        x = (MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (0, 1))
             + MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (2, 3)))
        out = a_hat_from_curvature(self._block(chart, x))
        # p1 = x^2 (one Chern root), degree-4 coefficient must be -x^2/24
        want = ExactForm.identity(chart, 1) - (x * x).scale(Fraction(1, 24))
        assert (out - want).is_zero()

    def test_eigenvalue_series_oracle_degree_eight(self):
        chart = Chart.affine(8)
        x = (MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (0, 1))
             + MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (2, 3)))
        out = a_hat_from_curvature(self._block(chart, x))
        want = (ExactForm.identity(chart, 1)
                - (x * x).scale(Fraction(1, 24))
                + (x * x * x * x).scale(Fraction(7, 5760)))
        assert (out - want).is_zero()

    def test_multiplicative_under_block_sum(self):
        chart = Chart.affine(8)
        x = (MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (0, 1))
             + MatrixForm.from_scalar(PolyScalar.const(chart, 2), 1, (2, 3)))
        y = (MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (4, 5))
             + MatrixForm.from_scalar(PolyScalar.const(chart, -1), 1, (6, 7)))
        bx, by = self._block(chart, x), self._block(chart, y)
        zero2 = ExactForm.zero(chart, 2)
        direct_sum = MatrixForm.from_blocks([
            [bx.block(0, 0, 1), bx.block(0, 1, 1), ExactForm.zero(chart, 1), ExactForm.zero(chart, 1)],
            [bx.block(1, 0, 1), bx.block(1, 1, 1), ExactForm.zero(chart, 1), ExactForm.zero(chart, 1)],
            [ExactForm.zero(chart, 1), ExactForm.zero(chart, 1), by.block(0, 0, 1), by.block(0, 1, 1)],
            [ExactForm.zero(chart, 1), ExactForm.zero(chart, 1), by.block(1, 0, 1), by.block(1, 1, 1)],
        ])
        lhs = a_hat_from_curvature(direct_sum)
        rhs = a_hat_from_curvature(bx) * a_hat_from_curvature(by)
        assert (lhs - rhs).is_zero()

    def test_rejects_non_antisymmetric(self):
        chart = Chart.affine(4)
        x = MatrixForm.from_scalar(PolyScalar.const(chart, 1), 1, (0, 1))
        bad = MatrixForm.from_blocks([
            [ExactForm.zero(chart, 1), x],
            [x, ExactForm.zero(chart, 1)],
        ])
        with pytest.raises(ValueError, match="antisymmetric"):
            a_hat_from_curvature(bad)


class TestProjections:
    def test_bott_is_projection_at_nodes(self):
        g = Geometry.sphere2(10, 20)
        p = bott_projection(g)
        assert (p * p - p).max_abs() < 1e-13
        assert (p - p.conj_transpose()).max_abs() < 1e-13

    def test_dilated_bott_is_projection(self):
        g = Geometry.sphere2(10, 20)
        p = bott_projection(g, dilation=0.5)
        assert (p * p - p).max_abs() < 1e-13

    @pytest.mark.parametrize("dilation", [0.0, 0.5])
    def test_bott_gradients_match_central_differences(self, dilation):
        # the analytic theta- and phi-derivatives of every entry against
        # (p(x + h) - p(x - h)) / 2h on grids shifted by +-h
        g = Geometry.sphere2(10, 20)
        h = 1e-5

        def entries(dt, dp):
            shifted = Geometry(g.kind, g.chart, g.theta + dt, g.phi + dp, g.weights,
                               g.frame_density, g.sectional_curvature, g.resolution)
            return bott_projection(shifted, dilation).comps[()]

        p = bott_projection(g, dilation).comps[()]
        for axis, (dt, dp) in enumerate(((h, 0.0), (0.0, h))):
            plus, minus = entries(dt, dp), entries(-dt, -dp)
            for i in range(2):
                for j in range(2):
                    central = (plus[i][j].values - minus[i][j].values) / (2 * h)
                    assert np.max(np.abs(p[i][j].grads[axis] - central)) < 1e-6

    def test_constant_projection_chern_zero(self):
        g = Geometry.sphere2(10, 20)
        p = constant_projection(g, 1, 2)
        assert chern_number(g, p)["integer"] == 0


class TestChernNumber:
    def test_bott_is_minus_one(self):
        g = Geometry.sphere2(12, 24)
        out = chern_number(g, bott_projection(g))
        assert out["integer"] == -1
        assert out["residual"] < 1e-8

    def test_conjugate_flips_sign(self):
        g = Geometry.sphere2(12, 24)
        p = bott_projection(g)
        out = chern_number(g, p.conj_transpose().map_entries_conj()
                           if hasattr(p, "map_entries_conj") else _conj_form(p))
        assert out["integer"] == 1

    def test_residual_guard(self):
        g = Geometry.sphere2(12, 24)
        # a non-projection input leaves a large non-integer residue
        with pytest.raises(QuadratureError, match="grid too coarse"):
            bad = bott_projection(g).scale(0.7)
            chern_number(g, bad, residual_tol=1e-9)

    def test_dilation_preserves_class(self):
        g = Geometry.sphere2(12, 24)
        for dil in (0.3, 0.6):
            out = chern_number(g, bott_projection(g, dil))
            assert out["integer"] == -1


def _conj_form(p: MatrixForm) -> MatrixForm:
    out = {}
    for idx, mat in p.comps.items():
        out[idx] = tuple(tuple(x.conj() for x in row) for row in mat)
    return p._like(p.m, out)


def curvature_8x8(geom: Geometry, p: MatrixForm) -> MatrixForm:
    """T on the amplified projection: p4 dp4 dp4 - p4 c(R) p4, p4 = p (x) Id_4."""
    p4 = kron_identity_right(p, 4)
    dp4 = exterior_d(p4)
    cl = geom.clifford_curvature_form(p.m)
    return p4 * dp4 * dp4 - p4 * cl * p4


def relative_chern_8x8(geom: Geometry, p: MatrixForm) -> MatrixForm:
    """The relative character from the whole 8 x 8 T: tr(p4 exp(-T)),
    each degree k scaled by 2^{-2n} (2 pi i)^{-k/2}.  The oracle of
    ``relative_chern``, which reads only the part of T this trace sees."""
    n = geom.half_dim
    traced = trace_of_product(kron_identity_right(p, 4), exp_form(-curvature_8x8(geom, p)))
    out = traced.zero_like(1)
    for k in traced.degrees():
        scale = (2 ** (-2 * n)) * (1.0 / CHERN_UNIT) ** (k // 2)
        out = out + traced.degree_part(k).scale(scale)
    return out


class TestTwistingCurvature:
    def test_trivial_on_flat_torus(self):
        g = Geometry.torus2(8)
        p = constant_projection(g, 1, 1)
        assert curvature_8x8(g, p).max_abs() < 1e-14

    def test_trivial_projection_on_sphere_gives_curvature_term(self):
        g = Geometry.sphere2(8, 16)
        p = constant_projection(g, 1, 1)
        t_form = curvature_8x8(g, p)
        want = -g.clifford_curvature_form(1)
        assert (t_form - want).max_abs() < 1e-13
        # fiber trace of the pure curvature term has no 2-form part
        traced = t_form.trace()
        assert traced.max_abs() < 1e-13

    def test_relative_chern_degree_zero_is_rank(self):
        g = Geometry.torus2(8)
        ch = relative_chern(constant_projection(g, 1, 1))
        mat = ch.comps[()]
        assert np.max(np.abs(mat[0][0].values - 1.0)) < 1e-13

    def test_relative_chern_additive_in_blocks(self):
        g = Geometry.sphere2(8, 16)
        p1 = bott_projection(g)
        p2 = constant_projection(g, 1, 2)
        both = MatrixForm.from_blocks([
            [p1, JetForm.zero(g.chart, 2, g.n_nodes)],
            [JetForm.zero(g.chart, 2, g.n_nodes), p2],
        ])
        lhs = relative_chern(both)
        rhs = relative_chern(p1) + relative_chern(p2)
        assert (lhs - rhs).max_abs() < 1e-12


GRADLESS_KINDS = ("no-grads", "zero-no-grads")


def _random_jet(geom: Geometry, kind: str, rng, zeros):
    n, dim = geom.n_nodes, geom.chart.dim
    if kind in zeros:
        return zeros[kind]
    if kind == "one":
        return JetScalar.const(geom.chart, 1, n)

    def samples(shape):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x[rng.random(shape) < 0.3] = 0
        return x

    if kind == "no-grads":
        return JetScalar(geom.chart, samples(n), None)
    if kind == "flat":
        return JetScalar(geom.chart, np.zeros(n), samples((dim, n)))
    return JetScalar(geom.chart, samples(n), samples((dim, n)))


@st.composite
def curvature_inputs(draw):
    """(geometry, p): a projection (bott with a dilation, constant of any
    rank, zero) or a random s x s jet matrix with shared zeros, ones and,
    in some draws, an entry without gradients; s = 1..3, small grids."""
    kind = draw(st.sampled_from(("sphere2", "torus2")))
    geom = (Geometry.sphere2(*draw(st.sampled_from(((3, 6), (4, 8)))))
            if kind == "sphere2" else Geometry.torus2(draw(st.sampled_from((3, 4)))))
    s = draw(st.integers(1, 3))
    sources = ("constant", "zero", "random", "random")  # random: the most varied
    source = draw(st.sampled_from(sources + ("bott",) * (kind == "sphere2")))
    if source == "bott":
        return geom, bott_projection(geom, draw(st.sampled_from((0.0, 0.5, -0.5, 0.9, -0.9))))
    if source == "constant":
        return geom, constant_projection(geom, draw(st.integers(0, s)), s)
    if source == "zero":
        return geom, JetForm.zero(geom.chart, s, geom.n_nodes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = {"zero": JetScalar.zero(geom.chart, geom.n_nodes),
             "zero-no-grads": JetScalar.zero(geom.chart, geom.n_nodes, grads=False)}
    kinds = draw(st.lists(st.sampled_from(("dense", "zero", "one", "flat")),
                          min_size=s * s, max_size=s * s))
    if draw(st.booleans()):
        kinds[draw(st.integers(0, s * s - 1))] = draw(st.sampled_from(GRADLESS_KINDS))
    rows = tuple(tuple(_random_jet(geom, kinds[i * s + j], rng, zeros) for j in range(s))
                 for i in range(s))
    return geom, JetForm(geom.chart, s, {(): rows}, geom.n_nodes)


def _fresh_is_zero(x):
    return not x.values.any() and (x.grads is None or not x.grads.any())


def _entry_facts(form: MatrixForm):
    """Per component, in order, per entry: the sample bytes (signed zeros
    count), the gradient bytes or None and the cached zero test, which
    must equal a fresh scan."""
    facts = []
    for idx, mat in form.comps.items():
        for row in mat:
            for x in row:
                assert x.is_zero() == _fresh_is_zero(x)
                grads = None if x.grads is None else x.grads.tobytes()
                facts.append((idx, x.values.tobytes(), grads, x.is_zero()))
    return facts


@given(curvature_inputs())
def test_relative_chern_matches_the_amplified_formula(inputs):
    """The character of the s x s shortcut is the 8 x 8 pipeline's, entry
    facts and component order included."""
    geom, p = inputs
    if any(x.grads is None for mat in p.comps.values() for row in mat for x in row):
        for build in (lambda: relative_chern(p), lambda: relative_chern_8x8(geom, p)):
            with pytest.raises(ValueError):
                build()
        return
    assert _entry_facts(relative_chern(p)) == _entry_facts(relative_chern_8x8(geom, p))


def test_the_amplified_formula_sees_a_fiber_diagonal(monkeypatch):
    """The shortcut rests on the zero fiber diagonal of c_left(R); with one
    entry planted there the 8 x 8 pipeline, and so the test above, tells
    the two apart."""
    geom = Geometry.sphere2(4, 8)
    p = bott_projection(geom)
    fiber = geom.left_curvature_matrix()
    assert not np.diag(fiber).any()
    assert _entry_facts(relative_chern(p)) == _entry_facts(relative_chern_8x8(geom, p))
    planted = fiber.copy()
    planted[0, 0] = geom.sectional_curvature
    monkeypatch.setattr(Geometry, "left_curvature_matrix", lambda self: planted)
    assert _entry_facts(relative_chern(p)) != _entry_facts(relative_chern_8x8(geom, p))


class TestLocalIndex:
    def test_zero_projection(self):
        g = Geometry.sphere2(8, 16)
        out = local_index(g, JetForm.zero(g.chart, 2, g.n_nodes))
        assert out["integer"] == 0 and out["residual"] == 0.0

    def test_trivial_class_on_sphere(self):
        g = Geometry.sphere2(12, 24)
        out = local_index(g, constant_projection(g, 1, 1))
        assert out["integer"] == 0
        assert out["residual"] < 1e-10

    def test_bott_gives_twice_chern(self):
        g = Geometry.sphere2(12, 24)
        cn = chern_number(g, bott_projection(g))["integer"]
        li = local_index(g, bott_projection(g))
        assert li["integer"] == 2 * cn == -2
        assert li["integer"] % 2 == 0

    def test_torus_trivial(self):
        g = Geometry.torus2(8)
        out = local_index(g, constant_projection(g, 1, 2))
        assert out["integer"] == 0

    def test_refinement_trend_dilated(self):
        # coarse levels may carry a large residual: that is the trend studied
        trend = []
        for res in [(4, 8), (6, 12), (9, 18)]:
            g = Geometry.sphere2(*res)
            trend.append(local_index(g, bott_projection(g, 0.5), residual_tol=1.0))
        residuals = [t["residual"] for t in trend]
        assert residuals[0] > residuals[1] > residuals[2]
        assert all(t["integer"] == -2 for t in trend)


class TestCocyclePairing:
    def test_pairing_matches_local_index(self):
        g = Geometry.sphere2(16, 32)
        p = bott_projection(g)
        li = local_index(g, p)["raw"]
        paired = pairing_index(g, p)
        assert abs(paired - li) < 1e-8

    def test_padding_degrees_is_stable(self):
        g = Geometry.sphere2(12, 24)
        p = bott_projection(g)
        assert pairing_index(g, p) == pairing_index(g, p, max_degree=10)

    def test_constant_entries_pair_to_zero(self):
        g = Geometry.torus2(12)
        conn = g.clifford_connection()
        const = kron_identity_right(constant_projection(g, 1, 1), 4)
        a = JetForm.zero(g.chart, 1, g.n_nodes).const_like([[QQi(2)]])
        a4 = kron_identity_right(a, 4)
        chain = Chain(2, [(QQi(1), (a4, const * 2, a4))])
        assert abs(character_pairing(g, chain, conn)) < 1e-12

    def test_cyclic_invariance_on_random_chains(self):
        rng = random.Random(5)
        g = Geometry.torus2(16)
        conn = g.clifford_connection()
        chart = Chart.torus(2)
        worst = 0.0
        for _ in range(5):
            entries = []
            for _ in range(3):
                f = random_poly(chart, rng, deg=1, terms=2)
                vals = np.zeros(g.n_nodes, dtype=complex)
                grads = np.zeros((2, g.n_nodes), dtype=complex)
                for mono, c in f.coeffs.items():
                    wave = complex(c) * np.exp(
                        1j * (mono[0] * g.theta + mono[1] * g.phi)
                    )
                    vals += wave
                    grads[0] += 1j * mono[0] * wave
                    grads[1] += 1j * mono[1] * wave
                jet = JetScalar(g.chart, vals, grads)
                entries.append(kron_identity_right(
                    JetForm(g.chart, 1, {(): ((jet,),)}, g.n_nodes), 4
                ))
            chain = Chain(2, [(QQi(1), tuple(entries))])
            worst = max(worst, cocycle_cyclicity_residual(g, chain, conn))
        assert worst < 1e-10

    def test_odd_degree_rejected(self):
        g = Geometry.torus2(8)
        a = kron_identity_right(constant_projection(g, 1, 1), 4)
        conn = g.clifford_connection()
        with pytest.raises(ValueError):
            character_pairing(g, Chain(1, [(QQi(1), (a, a * 2))]), conn)
