"""The structural jet arithmetic against a pure-numpy fold.

``forms._jet_mat_mul`` leaves out every product with a factor that is zero
in value and gradient, and ``JetScalar`` hands back an operand for a sum
or difference with a zero and a product with a one.  Each must give the
same values, the same gradients and the same presence of gradients as the
full fold over (values, grads) arrays, entry by entry, and the index
pipeline built on it must return the same floats.  The fold is plain numpy,
so it shares none of the shortcuts it checks.
"""

import random
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from ncgkit import forms, linalg
from ncgkit.forms import ExactForm, JetForm, MatrixForm, _jet_mat_mul
from ncgkit.geom import (
    Geometry,
    bott_projection,
    chern_number,
    constant_projection,
    local_index,
    pairing_index,
)
from ncgkit.randgen import random_matrix_form
from ncgkit.scalars import Chart, JetScalar, PolyScalar, QQi

NODES = 5
KINDS = (
    "dense",          # values and gradients, some samples zero
    "no-grads",       # values only, as after a differentiation
    "zero",           # zero values and zero gradients: skipped
    "zero-no-grads",  # zero values, no gradients: skipped
    "flat",           # zero values, nonzero gradients: must not be skipped
    "shared-zero",    # one zero object in many places, as in a block matrix
    "one",            # the structural one: a product with it is the other factor
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
    if kind == "one":
        return JetScalar.const(chart, 1, NODES)
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


# -- the oracle: a numpy fold over (values, grads) pairs -------------------
# A pair's grads are None when it has none; a sum, difference or product has
# gradients only when both operands do (the presence rule).


def _pair(x):
    return x.values, x.grads


def _add(a, b):
    both = a[1] is not None and b[1] is not None
    return a[0] + b[0], a[1] + b[1] if both else None


def _sub(a, b):
    both = a[1] is not None and b[1] is not None
    return a[0] - b[0], a[1] - b[1] if both else None


def _neg(a):
    return -a[0], None if a[1] is None else -a[1]


def _mul(a, b):
    both = a[1] is not None and b[1] is not None
    return a[0] * b[0], (a[1] * b[0][None, :] + a[0][None, :] * b[1]) if both else None


def _fold_mat_mul(a, b):
    """The full product of two matrices of pairs, every term in k order."""
    out = []
    for row in a:
        orow = []
        for col in zip(*b):
            acc = None
            for x, y in zip(row, col):
                p = _mul(x, y)
                acc = p if acc is None else _add(acc, p)
            orow.append(acc)
        out.append(orow)
    return out


def _pairs_of(mat):
    return [[_pair(x) for x in row] for row in mat]


def _fresh_is_zero(x):
    return not x.values.any() and (x.grads is None or not x.grads.any())


def _pair_is_zero(a):
    return not a[0].any() and (a[1] is None or not a[1].any())


def assert_same_jet(got, want):
    """A jet against a fold pair; its cached zero test against a fresh scan."""
    assert np.array_equal(got.values, want[0])
    assert (got.grads is None) == (want[1] is None)
    if want[1] is not None:
        assert np.array_equal(got.grads, want[1])
    assert got.is_zero() == _fresh_is_zero(got)


def assert_same_matrix(got, want):
    """A jet matrix against a matrix of jets or of fold pairs."""
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            assert_same_jet(g, w if isinstance(w, tuple) else _pair(w))


@given(jet_matrix_pairs())
def test_matches_full_product(pair):
    chart, a, b = pair
    assert_same_matrix(_jet_mat_mul(a, b, chart),
                       _fold_mat_mul(_pairs_of(a), _pairs_of(b)))


@given(jet_matrix_pairs())
def test_form_product_matches_full_product(pair):
    chart, a, b = pair
    fa = JetForm(chart, len(a), {(): a}, NODES)
    fb = JetForm(chart, len(b), {(0,): b}, NODES)
    got = (fa * fb).comps.get((0,))
    want = _fold_mat_mul(_pairs_of(a), _pairs_of(b))
    if got is None:
        assert all(_pair_is_zero(w) for row in want for w in row)
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
    want = _fold_mat_mul(_pairs_of(a), _pairs_of(b))
    monkeypatch.setattr(JetScalar, "is_zero", lambda x: not x.values.any())
    got = _jet_mat_mul(a, b, chart)
    monkeypatch.undo()
    with pytest.raises(AssertionError):
        assert_same_matrix(got, want)


def test_jet_forms_do_not_enter_mat_mul(monkeypatch):
    geom = Geometry.sphere2(6, 12)
    p = bott_projection(geom)

    def refuse(a, b):
        raise AssertionError("linalg.mat_mul called on jet matrices")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    assert (p * p - p).max_abs() < 1e-12


# -- structural zeros: one flagged shared zero against distinct dense zeros --

SPEC_KINDS = ("dense", "no-grads", "zero", "zero-no-grads", "flat", "one")


def _build(chart, n, kinds, seed, shared):
    """One jet matrix from a spec; with ``shared`` every zero entry is one
    of two flagged zeros and every one entry one flagged one, otherwise each
    is its own dense array of zeros or of ones."""
    rng = np.random.default_rng(seed)
    zeros = {"zero": JetScalar.zero(chart, NODES),
             "zero-no-grads": JetScalar.zero(chart, NODES, grads=False),
             "one": JetScalar.const(chart, 1, NODES)}
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            kind = kinds[i * n + j]
            entry = _entry(kind, chart, rng, None)
            if shared and kind in zeros:
                entry = zeros[kind]
            elif kind == "one":
                entry = JetScalar(chart, entry.values, entry.grads)  # unflagged
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def form_pairs(draw):
    """The same two jet forms (degrees 0 and 1) built with shared and with
    dense zeros: ((fa, fb) shared, (fa, fb) dense)."""
    chart = draw(st.sampled_from((Chart.affine(1), Chart.affine(2), Chart.torus(2))))
    n = draw(st.integers(1, 4))
    specs = [(draw(st.lists(st.sampled_from(SPEC_KINDS), min_size=n * n,
                            max_size=n * n)), draw(st.integers(0, 2**32 - 1)))
             for _ in range(4)]

    def forms_of(shared):
        a0, a1, b0, b1 = (_build(chart, n, kinds, seed, shared) for kinds, seed in specs)
        return (JetForm(chart, n, {(): a0, (0,): a1}, NODES),
                JetForm(chart, n, {(): b0, (chart.dim - 1,): b1}, NODES))

    return forms_of(True), forms_of(False)


def _entries(form):
    return [x for mat in form.comps.values() for row in mat for x in row]


def assert_same_form(got, want):
    assert set(got.comps) == set(want.comps)
    for idx in want.comps:
        assert_same_matrix(got.comps[idx], want.comps[idx])
    for x in _entries(got):
        assert not x.values.flags.writeable
        assert x.grads is None or not x.grads.flags.writeable
        assert x.is_zero() == _fresh_is_zero(x)


def assert_entrywise(got, operands, op):
    """``got`` against numpy applied entry by entry to (values, grads)."""
    n = operands[0].m
    for idx in set().union(*(f.comps for f in operands)):
        args = []
        for f in operands:
            mat = f.comps.get(idx)
            if mat is None:  # a dropped component: zero with zero gradients
                z = (np.zeros(NODES), np.zeros((f.chart.dim, NODES)))
                args.append([[z] * n for _ in range(n)])
            else:
                args.append([[(x.values, x.grads) for x in row] for row in mat])
        mat = got.comps.get(idx)
        for i in range(n):
            for j in range(n):
                values, grads = op(*(a[i][j] for a in args))
                if mat is None:
                    assert not values.any() and (grads is None or not grads.any())
                    continue
                x = mat[i][j]
                assert np.array_equal(x.values, values)
                assert (x.grads is None) == (grads is None)
                if grads is not None:
                    assert np.array_equal(x.grads, grads)


@given(form_pairs())
def test_shared_zero_product_matches_dense(pairs):
    (fa, fb), (da, db) = pairs
    assert_same_form(fa * fb, da * db)
    assert_same_form(fb * fa, db * da)


@given(form_pairs())
def test_shared_zero_negation_matches_dense(pairs):
    (fa, _), (da, _) = pairs
    assert_same_form(-fa, -da)
    assert_entrywise(-fa, [fa], _neg)


@given(form_pairs(), st.complex_numbers(allow_nan=False, allow_infinity=False,
                                        max_magnitude=1e6))
def test_shared_zero_scale_matches_dense(pairs, c):
    (fa, _), (da, _) = pairs
    assert_same_form(fa.scale(c), da.scale(c))
    # samples times c, in that order: numpy's complex product of a scalar
    # and an array need not be bitwise symmetric
    assert_entrywise(fa.scale(c), [fa],
                     lambda a: (a[0] * c, None if a[1] is None else a[1] * c))


@given(form_pairs())
def test_shared_zero_sum_matches_dense(pairs):
    (fa, fb), (da, db) = pairs
    assert_same_form(fa + fb, da + db)
    assert_entrywise(fa + fb, [fa, fb], _add)


@given(form_pairs())
def test_shared_zero_exp_form_matches_dense(pairs):
    (fa, fb), (da, db) = pairs
    assert_same_form(forms.exp_form(fa), forms.exp_form(da))
    assert_same_form(forms.exp_form(fb.degree_part(1)),
                     forms.exp_form(db.degree_part(1)))


@given(form_pairs())
def test_cached_zero_test_equals_fresh_scan(pairs):
    for form in (*pairs[0], *pairs[1]):
        for x in _entries(form):
            assert x.is_zero() == _fresh_is_zero(x)
            assert x.is_zero() == _fresh_is_zero(x)  # and again from the cache


def test_flat_entry_is_not_a_cached_zero():
    chart = Chart.affine(1)
    flat = JetScalar(chart, np.zeros(2), [[0.0, 1.0]])
    assert not flat.is_zero() and not (-flat).is_zero()
    assert np.array_equal((-flat).grads, [[0.0, -1.0]])


def test_jet_arrays_are_read_only():
    chart = Chart.affine(2)
    x = JetScalar(chart, np.ones(3), np.ones((2, 3)))
    for y in (x, -x, x * 2.0, x + x, x * x, x.diff(0), JetScalar.zero(chart, 3),
              JetScalar.const(chart, 1.5, 3)):
        with pytest.raises(ValueError):
            y.values[0] = 7.0
        if y.grads is not None:
            with pytest.raises(ValueError):
                y.grads[0, 0] = 7.0


@pytest.mark.parametrize("c", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
def test_non_finite_scale_of_a_zero_reaches_the_samples(c):
    chart = Chart.affine(2)
    zero = JetScalar.zero(chart, 3)
    form = JetForm.zero(chart, 2, 3).identity_like(2)
    with np.errstate(invalid="ignore"):
        assert np.isnan((zero * c).values).all()
        assert np.isnan((c * zero).grads).all()
        off_diagonal = form.scale(c).comps[()][0][1]
    assert np.isnan(off_diagonal.values).all()


def test_builders_share_one_zero_per_matrix():
    geom = Geometry.sphere2(4, 8)
    for form in (JetForm.zero(geom.chart, 3, geom.n_nodes).identity_like(3),
                 geom.clifford_curvature_form(2),
                 MatrixForm.from_scalar(geom.jet_const(2.0), 3),
                 forms.exp_form(bott_projection(geom)).amplify(2)):
        (mat,) = form.comps.values()
        zeros = {id(x) for row in mat for x in row if x.is_zero()}
        assert len(zeros) == 1


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


# -- structural zeros and ones in sums, differences and products -----------

CHARTS = (Chart.affine(1), Chart.affine(2), Chart.torus(2))


@st.composite
def jet_operands(draw):
    """(x, y, zero, one): x and y of the KINDS on one chart, a flagged zero
    and a flagged one, each with or without gradients.  The one without
    gradients is a zero without gradients plus a one: a copy that keeps the
    one flag."""
    chart = draw(st.sampled_from(CHARTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = JetScalar.const(chart, 0.0, NODES)
    x = _entry(draw(st.sampled_from(KINDS)), chart, rng, shared)
    y = _entry(draw(st.sampled_from(KINDS)), chart, rng, shared)
    zero = JetScalar.zero(chart, NODES, grads=draw(st.booleans()))
    one = JetScalar.const(chart, 1, NODES)
    if draw(st.booleans()):
        one = JetScalar.zero(chart, NODES, grads=False) + one
    return x, y, zero, one


@given(jet_operands())
def test_sum_with_a_zero_matches_the_fold(operands):
    x, _, zero, _ = operands
    assert_same_jet(zero + x, _add(_pair(zero), _pair(x)))
    assert_same_jet(x + zero, _add(_pair(x), _pair(zero)))


@given(jet_operands())
def test_difference_matches_the_fold(operands):
    x, y, zero, _ = operands
    assert_same_jet(x - y, _sub(_pair(x), _pair(y)))
    assert_same_jet(zero - y, _sub(_pair(zero), _pair(y)))
    assert_same_jet(y - zero, _sub(_pair(y), _pair(zero)))


@given(jet_operands())
def test_product_with_a_one_matches_the_fold(operands):
    x, _, _, one = operands
    assert_same_jet(x * one, _mul(_pair(x), _pair(one)))
    assert_same_jet(one * x, _mul(_pair(one), _pair(x)))


def test_zeros_and_ones_hand_back_an_operand():
    chart = Chart.affine(2)
    x = JetScalar(chart, [1.0, 2.0], [[1.0, 0.0], [0.0, 3.0]])
    zero, one = JetScalar.zero(chart, 2), JetScalar.const(chart, 1, 2)
    for got in (zero + x, x + zero, x - zero, x * one, one * x):
        assert got is x
    bare = JetScalar.zero(chart, 2, grads=False)
    assert zero + bare is bare and bare + zero is bare
    assert (bare + one)._one and (bare + one).grads is None


def test_dropped_gradients_share_values_and_find_their_zero():
    """zero (no gradients) + flat is the flat jet's zero values alone: a
    copy sharing its array, which must not keep the flat jet's 'nonzero'."""
    chart = Chart.affine(1)
    flat = JetScalar(chart, np.zeros(2), [[0.0, 1.0]])
    assert not flat.is_zero()
    out = JetScalar.zero(chart, 2, grads=False) + flat
    assert out.values is flat.values and out.grads is None
    assert out.is_zero()


def test_a_zero_sum_keeps_a_negative_zero_sample():
    """The signed-zero contract: zero + x is x, so a -0 sample of x stays -0
    where IEEE +0 + -0 gives +0; the two compare equal."""
    chart = Chart.affine(1)
    x = JetScalar(chart, [complex(-0.0, -0.0), 1.0], [[1.0, 1.0]])
    out = JetScalar.zero(chart, 2) + x
    assert np.signbit(out.values.real[0]) and np.signbit(out.values.imag[0])
    assert np.array_equal(out.values, _add(_pair(JetScalar.zero(chart, 2)), _pair(x))[0])


# -- forms against the fold: a missing component is a zero one, and a
# component whose entries are all zero, in values and gradients, is dropped


def _form_of_pairs(form):
    return {idx: _pairs_of(mat) for idx, mat in form.comps.items()}


def _dropping_zeros(comps):
    return {idx: mat for idx, mat in comps.items()
            if not all(_pair_is_zero(w) for row in mat for w in row)}


def _entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _fold_accumulate(out, k, mat, negative):
    if k not in out:
        out[k] = [[_neg(w) for w in row] for row in mat] if negative else mat
    else:
        out[k] = _entrywise(_sub if negative else _add, out[k], mat)


def _fold_form_sum(a, b, negative=False):
    out = dict(a)
    for idx, mat in b.items():
        _fold_accumulate(out, idx, mat, negative)
    return _dropping_zeros(out)


def _fold_form_product(a, b, dim):
    """The graded product, component pairs in product order, each pair's
    full matrix product added with its Koszul sign."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if set(i) & set(j) or len(i) + len(j) > dim:
                continue
            inversions = sum(1 for p in i for q in j if p > q)
            _fold_accumulate(out, tuple(sorted(i + j)), _fold_mat_mul(x, y),
                             inversions % 2 == 1)
    return _dropping_zeros(out)


def _fold_exp(beta, m, dim):
    """I + beta + beta^2/2! + ..., the powers starting at beta, up to
    degree dim + 1 or the first zero power."""
    grads = np.zeros((dim, NODES), dtype=complex)
    out = {(): [[(np.full(NODES, 1.0 if r == c else 0.0, dtype=complex), grads)
                 for c in range(m)] for r in range(m)]}
    power, k = beta, 1
    while power:
        c = complex(Fraction(1, factorial(k)))
        term = power if k == 1 else {idx: [[(v * c, None if g is None else g * c)
                                             for v, g in row] for row in mat]
                                     for idx, mat in power.items()}
        out = _fold_form_sum(out, term)
        k += 1
        if k > dim + 1:
            break
        power = _fold_form_product(power, beta, dim)
    return out


def assert_form_matches_fold(got, want):
    for idx in set(got.comps) | set(want):
        mat = got.comps.get(idx)
        if mat is None:
            assert all(_pair_is_zero(w) for row in want[idx] for w in row)
        elif idx not in want:
            assert all(_fresh_is_zero(x) for row in mat for x in row)
        else:
            assert_same_matrix(mat, want[idx])


@st.composite
def one_form_pairs(draw):
    """Two jet 1-forms with components (0,) and (1,) on a 2-dim chart: their
    product adds pairs of both merge signs into (0, 1)."""
    chart = draw(st.sampled_from(CHARTS[1:]))
    n = draw(st.integers(1, 3))

    def form():
        comps = {idx: _build(chart, n, draw(st.lists(st.sampled_from(SPEC_KINDS),
                                                     min_size=n * n, max_size=n * n)),
                             draw(st.integers(0, 2**32 - 1)), True)
                 for idx in ((0,), (1,))}
        return JetForm(chart, n, comps, NODES)

    return form(), form()


@given(form_pairs())
def test_form_difference_matches_the_fold(pairs):
    (fa, fb), _ = pairs
    a, b = _form_of_pairs(fa), _form_of_pairs(fb)
    assert_form_matches_fold(fa - fb, _fold_form_sum(a, b, negative=True))
    assert_form_matches_fold(fb - fa, _fold_form_sum(b, a, negative=True))


@given(form_pairs())
def test_form_product_matches_the_fold(pairs):
    (fa, fb), _ = pairs
    dim = fa.chart.dim
    a, b = _form_of_pairs(fa), _form_of_pairs(fb)
    assert_form_matches_fold(fa * fb, _fold_form_product(a, b, dim))
    assert_form_matches_fold(fb * fa, _fold_form_product(b, a, dim))


@given(one_form_pairs())
def test_one_form_product_matches_the_fold(pair):
    fa, fb = pair
    a, b = _form_of_pairs(fa), _form_of_pairs(fb)
    assert_form_matches_fold(fa * fb, _fold_form_product(a, b, 2))
    assert_form_matches_fold(fb * fa, _fold_form_product(b, a, 2))


@given(form_pairs())
def test_exp_form_matches_the_fold(pairs):
    (fa, fb), _ = pairs
    dim, m = fa.chart.dim, fa.m
    for beta in (fa, fb.degree_part(1)):
        assert_form_matches_fold(forms.exp_form(beta),
                                 _fold_exp(_form_of_pairs(beta), m, dim))


@given(one_form_pairs())
def test_exp_form_of_a_two_form_matches_the_fold(pair):
    fa, fb = pair
    beta = fa * fb
    assert_form_matches_fold(forms.exp_form(beta),
                             _fold_exp(_form_of_pairs(beta), fa.m, 2))


# -- the trace of a product from its diagonal -------------------------------


@st.composite
def mixed_degree_pairs(draw):
    """Two n x n jet forms (n = 1..4) of mixed degree: each has a random set
    of the chart's components, with entries of the KINDS."""
    chart = draw(st.sampled_from(CHARTS))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = JetScalar.const(chart, 0.0, NODES)
    idxs = [()] + [(i,) for i in range(chart.dim)] + [(0, 1)] * (chart.dim == 2)

    def form():
        comps = {}
        for idx in draw(st.lists(st.sampled_from(idxs), min_size=1, unique=True)):
            kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n * n, max_size=n * n))
            comps[idx] = tuple(tuple(_entry(kinds[i * n + j], chart, rng, shared)
                                     for j in range(n)) for i in range(n))
        return JetForm(chart, n, comps, NODES)

    return form(), form()


@given(mixed_degree_pairs())
def test_trace_of_product_matches_the_trace(pair):
    """Per component: the sample bytes (signed zeros count), the gradients
    and their presence, and the cached zero test against a fresh scan."""
    fa, fb = pair
    for a, b in ((fa, fb), (fb, fa)):
        got, want = forms.trace_of_product(a, b), (a * b).trace()
        assert list(got.comps) == list(want.comps)
        for idx, ((y,),) in want.comps.items():
            ((x,),) = got.comps[idx]
            assert x.values.tobytes() == y.values.tobytes()
            assert (x.grads is None) == (y.grads is None)
            if y.grads is not None:
                assert x.grads.tobytes() == y.grads.tobytes()
            assert x.is_zero() == _fresh_is_zero(x)


# -- the kept answer of the slot test ---------------------------------------


@st.composite
def scalar_id_cases(draw):
    """Exact and jet forms whose slot test may go either way: a degree-0
    form of random entries (jet entries of the KINDS), a multiple of the
    identity, results of ring operations built from them (``_built``), the
    identity (a multiple) and a form of degree 1 (not one)."""
    chart = draw(st.sampled_from(CHARTS))
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rng = random.Random(seed)
        a = random_matrix_form(chart, n, rng, 0)
        lam = draw(st.sampled_from((PolyScalar.const(chart, 0), PolyScalar.const(chart, 1),
                                    PolyScalar.const(chart, QQi(2, -1)),
                                    PolyScalar.coordinate(chart, 0))))
        lam = MatrixForm.from_scalar(lam, n)
        one = ExactForm.identity(chart, n)
        top = forms.exterior_d(a) + MatrixForm.from_scalar(PolyScalar.const(chart, 1), n, (0,))
    else:
        rng = np.random.default_rng(seed)
        shared = JetScalar.const(chart, 0.0, NODES)
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n * n, max_size=n * n))
        mat = tuple(tuple(_entry(kinds[i * n + j], chart, rng, shared) for j in range(n))
                    for i in range(n))
        a = JetForm(chart, n, {(): mat}, NODES)
        lam = MatrixForm.from_scalar(_entry(draw(st.sampled_from(KINDS)), chart, rng, shared), n)
        one = JetForm.zero(chart, n, NODES).identity_like(n)
        top = JetForm(chart, n, {(0,): linalg.mat_eye(n, shared, JetScalar.const(chart, 1, NODES))},
                      NODES)
    built = [a * lam, lam * lam, a + lam, lam - lam, -lam, lam.scale(2), (a * lam).degree_part(0)]
    return [a, lam, *built, one, top]


@given(scalar_id_cases())
def test_kept_scalar_id_equals_a_fresh_test(cases):
    """``is_scalar_multiple_of_identity`` keeps its answer on each form: the
    first and the second call both equal the test made afresh, form by
    form, so an answer kept anywhere but on its own form shows."""
    assert cases[-2]._scalar_id_test() and not cases[-1]._scalar_id_test()
    for form in cases:
        fresh = form._scalar_id_test()
        assert form.is_scalar_multiple_of_identity() == fresh
        assert form.is_scalar_multiple_of_identity() == fresh  # the kept answer
