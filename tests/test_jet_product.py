"""The zero-skipping product of jet matrices against ``linalg.mat_mul``.

``forms._jet_mat_mul`` leaves out every product with a factor that is zero
in value and gradient.  It must give the same values, the same gradients
and the same presence of gradients as the full sum, entry by entry, and the
index pipeline built on it must return the same floats.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from ncgkit import forms, linalg
from ncgkit.forms import MatrixForm, _jet_mat_mul
from ncgkit.geom import (
    Geometry,
    bott_projection,
    chern_number,
    constant_projection,
    local_index,
    pairing_index,
)
from ncgkit.scalars import Chart, JetScalar

NODES = 5
KINDS = (
    "dense",          # values and gradients, some samples zero
    "no-grads",       # values only, as after a differentiation
    "zero",           # zero values and zero gradients: skipped
    "zero-no-grads",  # zero values, no gradients: skipped
    "flat",           # zero values, nonzero gradients: must not be skipped
    "shared-zero",    # one zero object in many places, as in a block matrix
)


def _samples(rng, shape):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x[rng.random(shape) < 0.3] = 0
    return x


def _entry(kind, chart, rng, shared):
    grads_shape = (chart.dim, NODES)
    if kind == "dense":
        return JetScalar(chart, _samples(rng, NODES), _samples(rng, grads_shape))
    if kind == "no-grads":
        return JetScalar(chart, _samples(rng, NODES), None)
    if kind == "zero":
        return JetScalar(chart, np.zeros(NODES), np.zeros(grads_shape))
    if kind == "zero-no-grads":
        return JetScalar(chart, np.zeros(NODES), None)
    if kind == "flat":
        return JetScalar(chart, np.zeros(NODES), _samples(rng, grads_shape))
    return shared


@st.composite
def jet_matrix_pairs(draw):
    """Two n x n jet matrices (n = 1..8) on a 1- or 2-dim chart."""
    chart = draw(st.sampled_from((Chart.affine(1), Chart.affine(2), Chart.torus(2))))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = JetScalar.const(chart, 0.0, NODES)

    def matrix():
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n * n, max_size=n * n))
        return tuple(
            tuple(_entry(kinds[i * n + j], chart, rng, shared) for j in range(n))
            for i in range(n)
        )

    return chart, matrix(), matrix()


def assert_same_matrix(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            assert np.array_equal(g.values, w.values)
            assert (g.grads is None) == (w.grads is None)
            if w.grads is not None:
                assert np.array_equal(g.grads, w.grads)


@given(jet_matrix_pairs())
def test_matches_full_product(pair):
    chart, a, b = pair
    assert_same_matrix(_jet_mat_mul(a, b, chart), linalg.mat_mul(a, b))


@given(jet_matrix_pairs())
def test_form_product_matches_full_product(pair):
    chart, a, b = pair
    fa = MatrixForm(chart, len(a), {(): a}, "jet", NODES)
    fb = MatrixForm(chart, len(b), {(0,): b}, "jet", NODES)
    got = (fa * fb).comps.get((0,))
    want = linalg.mat_mul(a, b)
    if got is None:
        assert linalg.mat_is_zero(want)
    else:
        assert_same_matrix(got, want)


def test_flat_entry_is_not_skipped():
    chart = Chart.affine(1)
    flat = JetScalar(chart, np.zeros(2), [[1.0, 2.0]])
    x = JetScalar(chart, [3.0, 5.0], [[0.0, 0.0]])
    (out,), = _jet_mat_mul(((flat,),), ((x,),), chart)
    assert np.array_equal(out.grads, [[3.0, 10.0]])
    assert np.array_equal(out.diff(0).values, [3.0, 10.0])


def test_values_only_zero_test_is_caught(monkeypatch):
    """A copy that tests values alone for zero drops the gradient of a flat
    entry; the comparison with the full product must see it."""
    chart = Chart.affine(2)
    rng = np.random.default_rng(3)
    a = ((_entry("flat", chart, rng, None), _entry("dense", chart, rng, None)),) * 2
    b = ((_entry("dense", chart, rng, None),) * 2,) * 2
    monkeypatch.setattr(JetScalar, "is_zero", lambda x: not x.values.any())
    with pytest.raises(AssertionError):
        assert_same_matrix(_jet_mat_mul(a, b, chart), linalg.mat_mul(a, b))


def test_jet_forms_do_not_enter_mat_mul(monkeypatch):
    geom = Geometry.sphere2(6, 12)
    p = bott_projection(geom)

    def refuse(a, b):
        raise AssertionError("linalg.mat_mul called on jet matrices")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    assert (p * p - p).max_abs() < 1e-12


CASES = {
    "sphere2-bott": (lambda: Geometry.sphere2(24, 48), lambda g: bott_projection(g)),
    "sphere2-bott-dilated": (lambda: Geometry.sphere2(24, 48),
                             lambda g: bott_projection(g, 0.5)),
    "sphere2-constant": (lambda: Geometry.sphere2(24, 48),
                         lambda g: constant_projection(g, 1, 2)),
    "torus2-constant": (lambda: Geometry.torus2(32),
                        lambda g: constant_projection(g, 1, 2)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_index_pipeline_unchanged(case, monkeypatch):
    """local_index, chern_number and pairing_index return the same floats
    with the zero-skipping product as with the full ``linalg.mat_mul``."""
    make_geom, make_p = CASES[case]

    def run():
        geom = make_geom()
        p = make_p(geom)
        return local_index(geom, p), chern_number(geom, p), pairing_index(geom, p)

    fast = run()
    monkeypatch.setattr(forms, "_jet_mat_mul", lambda a, b, chart: linalg.mat_mul(a, b))
    assert fast == run()
