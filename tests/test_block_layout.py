"""Differential tests of the one block layout, ``linalg.mat_from_blocks`` and
``linalg.mat_block``, and of the matrix and form operations built on it.

The oracles are the per-index loops those operations replaced: entry
(b n + i, b' n + j) is entry (i, j) of block (b, b').  Results must agree in
every entry (coefficients in ``coeffs`` key order on exact forms,
sample and gradient bytes and the presence of gradients on jets), in the
order of the components and in which entries are one object, so a shared
zero stays shared.
"""

import itertools
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from ncgkit import linalg
from ncgkit.forms import ExactForm, JetForm, MatrixForm, trace_of_product
from ncgkit.geom import kron_identity_right
from ncgkit.randgen import random_poly, random_qqi
from ncgkit.scalars import Chart, JetScalar, PolyScalar

CHART = Chart.affine(2)
NODES = 3

# -- the per-index loops ---------------------------------------------------


def nodes_of(form):
    """The node count of a jet form's grid; None for an exact form."""
    return len(form._zero_scalar().values) if isinstance(form, JetForm) else None


def checked_like(a, m, comps):
    """The form of a's kind with the components comps, built through the
    input checks."""
    if isinstance(a, JetForm):
        return JetForm(a.chart, m, comps, nodes_of(a))
    return ExactForm(a.chart, m, comps)


def blocks_by_index(grid, zero):
    r = len(grid)
    nb = len(grid[0][0])
    out = [[zero] * (r * nb) for _ in range(r * nb)]
    for bi in range(r):
        for bj in range(r):
            blk = grid[bi][bj]
            for i in range(nb):
                for j in range(nb):
                    out[bi * nb + i][bj * nb + j] = blk[i][j]
    return tuple(tuple(row) for row in out)


def block_by_index(a, i, j, n):
    return tuple(tuple(a[i * n + s][j * n + t] for t in range(n)) for s in range(n))


def mat_kron_by_index(a, b):
    r, n = len(a), len(b)
    out = [[None] * (r * n) for _ in range(r * n)]
    for i in range(r):
        for j in range(r):
            for s in range(n):
                for t in range(n):
                    out[i * n + s][j * n + t] = a[i][j] * b[s][t]
    return tuple(tuple(row) for row in out)


def amplify_by_index(a, s):
    z = a._zero_scalar()
    out = {}
    for idx, mat in a.comps.items():
        big = [[z] * (s * a.m) for _ in range(s * a.m)]
        for b in range(s):
            for i in range(a.m):
                for j in range(a.m):
                    big[b * a.m + i][b * a.m + j] = mat[i][j]
        out[idx] = tuple(tuple(row) for row in big)
    return checked_like(a, s * a.m, out)


def block_form_by_index(a, i, j, mb):
    out = {idx: block_by_index(mat, i, j, mb) for idx, mat in a.comps.items()}
    return checked_like(a, mb, out)


def from_blocks_by_index(blocks):
    """The components in order of first appearance."""
    s = len(blocks)
    probe = blocks[0][0]
    mb = probe.m
    z = probe._zero_scalar()
    out = {}
    for idx in dict.fromkeys(idx for row in blocks for blk in row for idx in blk.comps):
        big = [[z] * (s * mb) for _ in range(s * mb)]
        for bi, row in enumerate(blocks):
            for bj, blk in enumerate(row):
                mat = blk.comps.get(idx)
                if mat is None:
                    continue
                for a in range(mb):
                    for b in range(mb):
                        big[bi * mb + a][bj * mb + b] = mat[a][b]
        out[idx] = tuple(tuple(r) for r in big)
    return checked_like(probe, s * mb, out)


def kron_by_index(a, k):
    z = a._zero_scalar()
    if isinstance(a, JetForm) and all(x.grads is None for mat in a.comps.values()
                                      for row in mat for x in row):
        z = JetScalar.zero(a.chart, nodes_of(a), grads=False)
    out = {}
    m = a.m
    for idx, mat in a.comps.items():
        big = [[z] * (m * k) for _ in range(m * k)]
        for i in range(m):
            for j in range(m):
                for t in range(k):
                    big[i * k + t][j * k + t] = mat[i][j]
        out[idx] = tuple(tuple(row) for row in big)
    return checked_like(a, m * k, out)


# -- random forms with zeros, flat zeros and missing gradients ---------------


def random_form(rng, kind, m, grads=True):
    """A form with a random set of components of mixed degree, each entry
    zero (the shared zero or, on jets, one without gradients) or random."""
    idxs = [idx for k in range(CHART.dim + 1)
            for idx in itertools.combinations(range(CHART.dim), k)]
    comps = {}
    if kind is ExactForm:
        zero = PolyScalar.const(CHART, 0)
        for idx in rng.sample(idxs, rng.randint(0, len(idxs))):
            comps[idx] = tuple(tuple(zero if rng.random() < 0.3 else random_poly(CHART, rng)
                                     for _ in range(m)) for _ in range(m))
        return ExactForm(CHART, m, comps)
    zero = JetScalar.zero(CHART, NODES)
    flat = JetScalar.zero(CHART, NODES, grads=False)

    def samples(rows):
        return [[complex(random_qqi(rng)) for _ in range(NODES)] for _ in range(rows)]

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return zero if grads else flat
        if kind == 1:
            return flat
        with_grads = grads and kind == 3
        return JetScalar(CHART, samples(1)[0], samples(CHART.dim) if with_grads else None)

    for idx in rng.sample(idxs, rng.randint(0, len(idxs))):
        comps[idx] = tuple(tuple(entry() for _ in range(m)) for _ in range(m))
    return JetForm(CHART, m, comps, NODES)


def entry_key(x):
    if isinstance(x, PolyScalar):
        return list(x.coeffs.items())
    return (x.values.tobytes(), None if x.grads is None else x.grads.tobytes())


def sharing(form):
    """For each entry, the first position of the same object."""
    first = {}
    return [first.setdefault(id(x), pos) for pos, x in enumerate(
        x for mat in form.comps.values() for row in mat for x in row)]


def assert_same_form(got, want):
    assert (got.chart, got.m, type(got), nodes_of(got)) == (
        want.chart, want.m, type(want), nodes_of(want))
    assert list(got.comps) == list(want.comps)
    for idx, mat in want.comps.items():
        assert ([[entry_key(x) for x in row] for row in got.comps[idx]]
                == [[entry_key(x) for x in row] for row in mat])
    assert sharing(got) == sharing(want)
    if isinstance(got, ExactForm):
        assert got == want


kinds = st.sampled_from([ExactForm, JetForm])
seeds = st.integers(0, 2 ** 32 - 1)

# -- the two linalg routines ------------------------------------------------


@settings(max_examples=100)
@given(seeds, st.integers(1, 4), st.integers(1, 3))
def test_mat_from_blocks_and_mat_block_match_the_index_loops(seed, r, n):
    rng = random.Random(seed)
    grid = [[tuple(tuple(random_qqi(rng) for _ in range(n)) for _ in range(n))
             for _ in range(r)] for _ in range(r)]
    big = linalg.mat_from_blocks(grid)
    assert big == blocks_by_index(grid, None)
    for i in range(r):
        for j in range(r):
            assert linalg.mat_block(big, i, j, n) == block_by_index(big, i, j, n) == grid[i][j]


@settings(max_examples=60)
@given(seeds, st.integers(1, 3), st.integers(1, 3))
def test_mat_kron_matches_the_index_loop(seed, r, n):
    rng = random.Random(seed)
    a = tuple(tuple(random_qqi(rng) for _ in range(r)) for _ in range(r))
    b = tuple(tuple(random_qqi(rng) for _ in range(n)) for _ in range(n))
    got, want = linalg.mat_kron(a, b), mat_kron_by_index(a, b)
    assert [[(x.a, x.b, x.d) for x in row] for row in got] == [
        [(x.a, x.b, x.d) for x in row] for row in want]


# -- the form operations ------------------------------------------------------


@settings(max_examples=60)
@given(seeds, kinds, st.integers(1, 3), st.integers(1, 3))
def test_amplify_matches_the_index_loop(seed, kind, m, s):
    a = random_form(random.Random(seed), kind, m)
    assert_same_form(a.amplify(s), amplify_by_index(a, s))


@settings(max_examples=60)
@given(seeds, kinds, st.integers(1, 2), st.integers(1, 3))
def test_block_and_from_blocks_match_the_index_loops(seed, kind, mb, s):
    rng = random.Random(seed)
    grid = [[random_form(rng, kind, mb) for _ in range(s)] for _ in range(s)]
    big = MatrixForm.from_blocks(grid)
    assert_same_form(big, from_blocks_by_index(grid))
    for i in range(s):
        for j in range(s):
            assert_same_form(big.block(i, j, mb), block_form_by_index(big, i, j, mb))


@settings(max_examples=60)
@given(seeds, kinds, st.integers(1, 3), st.integers(1, 4), st.booleans())
def test_kron_identity_right_matches_the_index_loop(seed, kind, m, k, grads):
    a = random_form(random.Random(seed), kind, m, grads)
    assert_same_form(kron_identity_right(a, k), kron_by_index(a, k))


# -- operation results are well formed -----------------------------------------


@settings(max_examples=60)
@given(seeds, kinds, st.integers(1, 3), st.integers(1, 2))
def test_built_results_pass_the_input_checks(seed, kind, m, s):
    """Every operation builds its result without the constructor's index and
    shape checks; rebuilt through ``ExactForm(...)`` or ``JetForm(...)`` it is
    the same form."""
    rng = random.Random(seed)
    a = random_form(rng, kind, m)
    b = random_form(rng, kind, m)
    if kind is ExactForm:  # the exact trace of a product takes degree 0
        a0, b0 = a.degree_part(0), b.degree_part(0)
    else:
        a0, b0 = a, b
    big = a.amplify(s)
    results = [a.conj_transpose(), a.trace(), trace_of_product(a0, b0), big,
               big.block(s - 1, 0, m), MatrixForm.from_blocks([[a, b], [b, a]]),
               kron_identity_right(a, s + 1)]
    for r in results:
        assert_same_form(checked_like(r, r.m, r.comps), r)
