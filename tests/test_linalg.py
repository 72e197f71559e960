import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ncgkit import intlinalg, linalg
from ncgkit.scalars import QQI_ZERO, Chart, PolyScalar, QQi


def rand_qq_matrix(rng, n, m):
    return [[QQi(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(m)] for _ in range(n)]


def test_rank_nullity_against_numpy():
    rng = random.Random(0)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_qq_matrix(rng, n, m)
        a_np = np.array([[complex(x) for x in row] for row in a])
        assert linalg.qq_rank(a) == np.linalg.matrix_rank(a_np, tol=1e-9)
        assert linalg.qq_nullity(a) == m - np.linalg.matrix_rank(a_np, tol=1e-9)


def test_solve_and_kernel():
    rng = random.Random(1)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_qq_matrix(rng, n, m)
        x_true = [QQi(rng.randint(-3, 3)) for _ in range(m)]
        b = [sum((a[i][j] * x_true[j] for j in range(m)), QQi(0)) for i in range(n)]
        x = linalg.qq_solve(a, b)
        assert x is not None
        bx = [sum((a[i][j] * x[j] for j in range(m)), QQi(0)) for i in range(n)]
        assert bx == b
        for v in linalg.qq_kernel_basis(a):
            av = [sum((a[i][j] * v[j] for j in range(m)), QQi(0)) for i in range(n)]
            assert all(e.is_zero() for e in av)
        # one more equation: the sum of the others with its right side off by one
        a_bad = a + [[sum((row[j] for row in a), QQi(0)) for j in range(m)]]
        b_bad = b + [sum(b, QQi(1))]
        assert linalg.qq_solve(a_bad, b_bad) is None


def test_inverse_matrix():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = rand_qq_matrix(rng, n, n)
        a_np = np.array([[complex(x) for x in row] for row in a])
        if abs(np.linalg.det(a_np)) < 1e-6:
            continue
        inv = linalg.qq_inverse_matrix(a)
        prod = linalg.mat_mul(a, inv)
        assert linalg.mat_eq(prod, linalg.mat_eye(n, QQi(0), QQi(1)))
        # last row replaced by the sum of the others (a zero row when n == 1)
        singular = a[:-1] + [[sum((row[j] for row in a[:-1]), QQi(0)) for j in range(n)]]
        with pytest.raises(ValueError, match="singular"):
            linalg.qq_inverse_matrix(singular)


def test_inverse_rejects_non_square():
    a = [[QQi(1), QQi(0), QQi(5)], [QQi(0), QQi(1), QQi(7)]]
    with pytest.raises(ValueError, match="non-square"):
        linalg.qq_inverse_matrix(a)


def test_solve_rejects_mismatched_right_side():
    a = [[QQi(1), QQi(0), QQi(5)], [QQi(0), QQi(1), QQi(7)]]
    with pytest.raises(ValueError, match="right-hand sides"):
        linalg.qq_solve(a, [QQi(1)])


qq_entries = st.builds(
    lambda re, im, d: QQi(Fraction(re, d), Fraction(im, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
)


@st.composite
def qq_matrices(draw):
    """Small wide, tall or square QQi matrices, with some rows and columns
    zeroed and the last row optionally a multiple of the first."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [[draw(qq_entries) for _ in range(m)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        c = draw(qq_entries)
        rows[-1] = [c * x for x in rows[0]]
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    zero_cols = draw(st.sets(st.integers(0, m - 1)))
    return [[QQI_ZERO if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]


# explicit cases that a small profile can miss: one nonzero off-diagonal
# entry, a zero row, and mixed denominators in one elimination
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
OFF_DIAGONAL = [[QQI_ZERO, QQi(Fraction(3, 2))], [QQI_ZERO, QQI_ZERO]]
WITH_ZERO_ROW = [[QQi(1), QQi(2), QQi(THIRD)], [QQI_ZERO] * 3,
                 [QQi(0, 1), QQi(HALF), QQI_ZERO]]
MIXED_DENOMINATORS = [[QQi(HALF), QQi(0, THIRD), QQi(Fraction(5, 13))],
                      [QQi(Fraction(2, 5)), QQi(1, Fraction(-1, 7)),
                       QQi(0, Fraction(-1, 65))]]


@given(qq_matrices(), st.integers(0, 5))
@example(OFF_DIAGONAL, 2)
@example(WITH_ZERO_ROW, 2)
@example(MIXED_DENOMINATORS, 1)
def test_echelon_is_reduced(a, ncols):
    m = len(a[0])
    ncols = min(ncols, m)
    rows, pivots = linalg.qq_echelon(a)
    assert len(rows) == len(a) and all(len(r) == m for r in rows)
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for r, p in enumerate(pivots):
        assert rows[r][p] == QQi(1)
        assert all(x.is_zero() for x in rows[r][:p])
        assert all(rows[i][p].is_zero() for i in range(len(rows)) if i != r)
    assert all(x.is_zero() for row in rows[len(pivots):] for x in row)
    # pivoting in the first ncols columns reduces that block as on its own
    aug_rows, aug_pivots = linalg.qq_echelon(a, ncols)
    left_rows, left_pivots = linalg.qq_echelon([r[:ncols] for r in a])
    assert aug_pivots == left_pivots
    assert [r[:ncols] for r in aug_rows] == left_rows


@given(qq_matrices())
def test_kernel_basis_spans_the_nullity(a):
    basis = linalg.qq_kernel_basis(a)
    assert len(basis) == linalg.qq_nullity(a)
    if basis:
        assert linalg.qq_rank(basis) == len(basis)
    for v in basis:
        assert all(sum((x * y for x, y in zip(row, v)), QQi(0)).is_zero() for row in a)


def is_unimodular(a) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    return abs(_int_det(a)) == 1


def _int_det(a) -> int:
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    m = [list(map(int, row)) for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


small_int_matrices = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_int_matrices)
def test_smith_normal_form_properties(rows):
    u, s, v = intlinalg.smith_normal_form(rows)
    n, m = len(rows), len(rows[0])
    # S = U A V
    uav = [[sum(u[i][k] * rows[k][l] * v[l][j] for k in range(n) for l in range(m))
            for j in range(m)] for i in range(n)]
    assert uav == s
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = intlinalg.snf_diagonal(s)
    for i in range(n):
        for j in range(m):
            if i != j:
                assert s[i][j] == 0
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@given(small_int_matrices, st.integers(0, 7))
def test_integer_solver_on_consistent_systems(rows, seed):
    rng = random.Random(seed)
    m = len(rows[0])
    x_true = [rng.randint(-3, 3) for _ in range(m)]
    b = [sum(r * x for r, x in zip(row, x_true)) for row in rows]
    x = intlinalg.solve_integer(rows, b)
    assert x is not None
    assert [sum(r * xx for r, xx in zip(row, x)) for row in rows] == b


def test_integer_solver_detects_impossible():
    # 2x = 1 has no integer solution
    assert intlinalg.solve_integer([[2]], [1]) is None


def test_integer_kernel_basis():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = intlinalg.integer_kernel_basis(a)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in a)


@given(small_int_matrices, st.integers(0, 7))
def test_integer_solver_with_precomputed_smith_form(rows, seed):
    rng = random.Random(seed)
    snf = intlinalg.smith_normal_form(rows)
    for _ in range(3):
        b = [rng.randint(-6, 6) for _ in rows]
        assert intlinalg.solve_integer(rows, b, snf) == intlinalg.solve_integer(rows, b)


# -- the fused QQi product against the generic ring loop -------------------


def reference_product(a, b):
    """Entry-wise sum of QQi products, one ring operation at a time."""
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for t in range(1, len(row)):
                acc = acc + row[t] * b[t][j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def is_canonical(x):
    return x.d > 0 and gcd(x.a, x.b, x.d) == 1


mixed_entries = st.one_of(
    st.just(QQI_ZERO),
    st.builds(lambda re, d: QQi(Fraction(re, d)),
              st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 12, 13, 65])),
    st.builds(lambda im, d: QQi(0, Fraction(im, d)),
              st.integers(-9, 9), st.sampled_from([1, 2, 4, 5, 25])),
    st.builds(lambda re, im, d1, d2: QQi(Fraction(re, d1), Fraction(im, d2)),
              st.integers(-20, 20), st.integers(-20, 20),
              st.sampled_from([1, 3, 5, 13, 65]), st.sampled_from([1, 2, 5, 169])),
)


@st.composite
def qq_products(draw):
    """A composable pair of QQi matrices, 1-6 on each side (wide, tall,
    row times column), with some rows of the left and columns of the right
    factor zeroed."""
    n, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    a = [[draw(mixed_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(mixed_entries) for _ in range(m)] for _ in range(k)]
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    zero_cols = draw(st.sets(st.integers(0, m - 1)))
    a = [[QQI_ZERO if i in zero_rows else x for x in row] for i, row in enumerate(a)]
    b = [[QQI_ZERO if j in zero_cols else x for j, x in enumerate(row)] for row in b]
    return linalg.mat_from_rows(a), linalg.mat_from_rows(b)


@given(qq_products())
@example((linalg.mat_from_rows(OFF_DIAGONAL),
          linalg.mat_from_rows(MIXED_DENOMINATORS)))
@example((linalg.mat_from_rows(WITH_ZERO_ROW),
          linalg.mat_from_rows([row[:2] for row in WITH_ZERO_ROW])))
@example((linalg.mat_from_rows(MIXED_DENOMINATORS),
          linalg.mat_from_rows([list(col) for col in zip(*MIXED_DENOMINATORS)])))
def test_fused_qqi_product_matches_reference(pair):
    a, b = pair
    got = linalg.mat_mul(a, b)
    want = reference_product(a, b)
    assert linalg.mat_shape(got) == linalg.mat_shape(want)
    for grow, wrow in zip(got, want):
        for x, y in zip(grow, wrow):
            assert type(x) is QQi and is_canonical(x)
            assert (x.a, x.b, x.d) == (y.a, y.b, y.d)


@pytest.mark.parametrize("shape", [(1, 4, 1), (4, 1, 4), (1, 1, 1), (2, 6, 3)])
def test_fused_qqi_product_edge_shapes(shape):
    n, k, m = shape
    rng = random.Random(sum(shape))
    a, b = rand_qq_matrix(rng, n, k), rand_qq_matrix(rng, k, m)
    assert linalg.mat_mul(a, b) == reference_product(a, b)
    zero_a = [[QQI_ZERO] * k for _ in range(n)]
    assert linalg.mat_mul(zero_a, b) == linalg.mat_zero(n, m, QQI_ZERO)
    # a zero entry of the result is the canonical zero 0/1
    assert all((x.a, x.b, x.d) == (0, 0, 1)
               for row in linalg.mat_mul(zero_a, b) for x in row)


def test_only_all_qqi_operands_take_the_fused_path(monkeypatch):
    fused = []
    real = linalg._qqi_mat_mul
    monkeypatch.setattr(linalg, "_qqi_mat_mul",
                        lambda a, b: fused.append(1) or real(a, b))
    rng = random.Random(5)
    a, b = rand_qq_matrix(rng, 3, 2), rand_qq_matrix(rng, 2, 3)
    assert linalg.mat_mul(a, b) == reference_product(a, b)
    assert fused == [1]
    # an int anywhere in either factor keeps the generic loop
    late_int = [row[:] for row in b]
    late_int[-1][-1] = 3
    first_int = [row[:] for row in a]
    first_int[0][0] = -2
    for x, y in ((a, late_int), (first_int, b)):
        assert linalg.mat_mul(x, y) == reference_product(x, y)
    chart = Chart.affine(1)
    t = PolyScalar.coordinate(chart, 0)
    p = [[t, PolyScalar.const(chart, QQi(1, 2))],
         [PolyScalar.const(chart, 3), t * t]]
    assert linalg.mat_mul(p, p) == reference_product(p, p)
    assert fused == [1]


# -- the fused elimination step against the textbook row update -------------


def reference_echelon(rows, ncols=None):
    """Gauss-Jordan with the row update x - f * y, one ring operation at a
    time."""
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        prow = rows[rank] = [inv * x for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and not row[col].is_zero():
                f = row[col]
                rows[r] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(col)
    return rows, pivots


@st.composite
def echelon_inputs(draw):
    """A 0-6 x 1-7 matrix of mixed-denominator Gaussian entries with some
    rows and columns zeroed, the last row optionally a combination of the
    first two, and a pivot width from 0 to the full width."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    rows = [[draw(mixed_entries) for _ in range(m)] for _ in range(n)]
    if n > 2 and draw(st.booleans()):
        c1, c2 = draw(mixed_entries), draw(mixed_entries)
        rows[-1] = [c1 * x + c2 * y for x, y in zip(rows[0], rows[1])]
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, m - 1)))
    rows = [[QQI_ZERO if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return rows, draw(st.one_of(st.none(), st.integers(0, m)))


@settings(max_examples=200)
@given(echelon_inputs())
@example(([[QQi(1), QQi(2)], [QQi(3), QQi(4)]], None))
def test_fused_echelon_matches_the_textbook_update(case):
    a, ncols = case
    rows, pivots = linalg.qq_echelon(a, ncols)
    want_rows, want_pivots = reference_echelon(a, ncols)
    assert pivots == want_pivots
    assert len(rows) == len(want_rows)
    for grow, wrow in zip(rows, want_rows):
        assert len(grow) == len(wrow)
        for x, y in zip(grow, wrow):
            assert type(x) is QQi and is_canonical(x)
            assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
