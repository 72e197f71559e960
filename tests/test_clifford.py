import random
from fractions import Fraction

import pytest

from ncgkit import linalg
from ncgkit.clifford import (
    Chirality,
    CliffordElement,
    DimensionMismatch,
    SpinorRep,
    chirality,
    clifford_trace,
    degree_sign_matrix,
    fiber_basis,
    left_action,
    left_generator_action,
    left_matrix,
    right_action,
    right_generator_action,
    right_matrix,
)
from ncgkit.scalars import QQi


def gens(n):
    return [CliffordElement.blade(n, (i,)) for i in range(1, n + 1)]


def random_element(n, rng, terms=3):
    coeffs = {}
    for _ in range(terms):
        blade = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        coeffs[blade] = QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return CliffordElement(n, coeffs)


def test_generator_relations():
    for n in (1, 2, 3, 4):
        es = gens(n)
        one = CliffordElement.scalar(n, 1)
        for i in range(n):
            assert es[i] * es[i] == -one
            for j in range(i + 1, n):
                assert (es[i] * es[j] + es[j] * es[i]).is_zero()


def test_unit_law_and_dimension_mismatch():
    rng = random.Random(0)
    x = random_element(3, rng)
    one = CliffordElement.scalar(3, 1)
    assert one * x == x and x * one == x
    with pytest.raises(DimensionMismatch):
        CliffordElement.blade(2, (1,)) * CliffordElement.blade(3, (1,))


def test_associativity_random():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for _ in range(20):
            a, b, c = (random_element(n, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_chirality_squares_to_one():
    for n in range(1, 9):
        w = chirality(n)
        assert isinstance(w, Chirality)
        assert w.element * w.element == CliffordElement.scalar(n, 1)


def test_chirality_low_dims_explicit():
    w1 = chirality(1)
    assert w1.element == CliffordElement.blade(1, (1,), QQi(0, 1))
    w2 = chirality(2)
    assert w2.element == CliffordElement.blade(2, (1, 2), QQi(0, 1))
    w4 = chirality(4)
    assert w4.element == CliffordElement.blade(4, (1, 2, 3, 4), QQi(-1))


def test_chirality_commutation_pattern():
    for n in (2, 4, 6):
        w = chirality(n).element
        for e in gens(n):
            assert (w * e + e * w).is_zero()
    for n in (3, 5):
        w = chirality(n).element
        for e in gens(n):
            assert (w * e - e * w).is_zero()


def test_chirality_square_via_spinor_matrices():
    # independent oracle: the represented volume element squares to the
    # identity matrix
    for n in (1, 2, 3, 4, 5, 6):
        rep = SpinorRep(n)
        m = rep.chirality_matrix()
        assert linalg.mat_eq(
            linalg.mat_mul(m, m), linalg.mat_eye(rep.dim, QQi(0), QQi(1))
        )


def test_spinor_rep_defining_relations():
    for n in (1, 2, 3, 4, 5):
        rep = SpinorRep(n)
        assert rep.dim == 2 ** (n // 2)
        eye = linalg.mat_eye(rep.dim, QQi(0), QQi(1))
        for i in range(n):
            gi = rep.matrices[i]
            assert linalg.mat_eq(linalg.mat_mul(gi, gi), linalg.mat_scale(QQi(-1), eye))
            # anti-Hermitian, hence unitary generators
            assert linalg.mat_eq(linalg.mat_conj_transpose(gi), linalg.mat_scale(QQi(-1), gi))
            for j in range(i + 1, n):
                gj = rep.matrices[j]
                anti = linalg.mat_add(linalg.mat_mul(gi, gj), linalg.mat_mul(gj, gi))
                assert linalg.mat_is_zero(anti)


def test_spinor_rep_homomorphism_random_pairs():
    rng = random.Random(3)
    for n in (2, 3, 4):
        rep = SpinorRep(n)
        for _ in range(67):
            a = random_element(n, rng)
            b = random_element(n, rng)
            lhs = rep.of(a * b)
            rhs = linalg.mat_mul(rep.of(a), rep.of(b))
            assert linalg.mat_eq(lhs, rhs)


def test_chirality_matrix_is_diag_pm_one():
    rep = SpinorRep(2)
    assert linalg.mat_eq(
        rep.chirality_matrix(),
        linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(-1)]]),
    )
    rep4 = SpinorRep(4)
    m = rep4.chirality_matrix()
    for i in range(4):
        for j in range(4):
            if i == j:
                assert m[i][j] in (QQi(1), QQi(-1))
            else:
                assert m[i][j].is_zero()


def test_even_part_representation_n3():
    # c(w3 e1 e2) and c(w3 e2 e3) generate the full 2x2 matrix algebra
    rep = SpinorRep(3)
    w = chirality(3).element
    e1, e2, e3 = gens(3)
    a = rep.of(w * e1 * e2)
    b = rep.of(w * e2 * e3)
    eye = linalg.mat_eye(2, QQi(0), QQi(1))
    words = [eye, a, b, linalg.mat_mul(a, b)]
    flat = [[x for row in wd for x in row] for wd in words]
    assert linalg.qq_rank(flat) == 4


def test_clifford_trace_values():
    one = CliffordElement.scalar(2, 1)
    assert clifford_trace(one) == QQi(2)
    assert clifford_trace(CliffordElement.blade(2, (1, 2))) == QQi(0)


def test_clifford_trace_matches_matrix_trace_even():
    rng = random.Random(5)
    for n in (2, 4):
        rep = SpinorRep(n)
        for _ in range(40):
            a = random_element(n, rng)
            assert clifford_trace(a) == linalg.mat_trace(rep.of(a))


def test_clifford_trace_cyclic():
    rng = random.Random(6)
    for _ in range(67):
        a = random_element(3, rng)
        b = random_element(3, rng)
        assert clifford_trace(a * b) == clifford_trace(b * a)


class TestFiberActions:
    def test_left_action_on_scalar_fiber(self):
        one = CliffordElement.scalar(2, 1)
        e1 = CliffordElement.blade(2, (1,))
        assert left_action(e1, one) == e1

    def test_left_action_contraction_sign(self):
        e1 = CliffordElement.blade(2, (1,))
        assert left_action(e1, e1) == CliffordElement.scalar(2, -1)

    def test_left_action_equals_clifford_multiplication(self):
        rng = random.Random(7)
        for n in (2, 3):
            for _ in range(25):
                a = random_element(n, rng)
                v = random_element(n, rng)
                assert left_action(a, v) == a * v

    def test_generator_actions_satisfy_relations(self):
        for n in (2, 3, 4, 5, 6):
            for action in (left_generator_action, right_generator_action):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        for blade in fiber_basis(n):
                            v = CliffordElement.blade(n, blade)
                            lhs = action(n, i, action(n, j, v)) + action(
                                n, j, action(n, i, v)
                            )
                            want = CliffordElement.scalar(n, -2 if i == j else 0)
                            assert lhs == want * v if i == j else lhs.is_zero()

    def test_left_right_commute_bruteforce(self):
        for n in (2, 3, 4, 5, 6):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for blade in fiber_basis(n):
                        v = CliffordElement.blade(n, blade)
                        lr = left_generator_action(n, i, right_generator_action(n, j, v))
                        rl = right_generator_action(n, j, left_generator_action(n, i, v))
                        assert lr == rl

    def test_action_matrices_match_functional_form(self):
        n = 2
        basis = fiber_basis(n)
        lm = left_matrix(n, 1)
        for col, blade in enumerate(basis):
            v = left_generator_action(n, 1, CliffordElement.blade(n, blade))
            for row, target in enumerate(basis):
                assert lm[row][col] == v.coeffs.get(target, QQi(0))
        rm = right_matrix(n, 2)
        for col, blade in enumerate(basis):
            v = right_generator_action(n, 2, CliffordElement.blade(n, blade))
            for row, target in enumerate(basis):
                assert rm[row][col] == v.coeffs.get(target, QQi(0))

    def test_right_action_reverses_disjoint_blades(self):
        # on blades with disjoint support the generator composition is
        # anti-multiplicative; overlapping supports pick up the degree twist
        rng = random.Random(8)
        n = 4
        for _ in range(30):
            split = rng.randint(0, n)
            left = tuple(sorted(rng.sample(range(1, split + 1), rng.randint(0, split))))
            rest = [i for i in range(1, n + 1) if i not in left]
            right = tuple(sorted(rng.sample(rest, rng.randint(0, len(rest)))))
            a = CliffordElement.blade(n, left)
            b = CliffordElement.blade(n, right)
            v = random_element(n, rng, terms=2)
            # right-module law: acting by a*b is acting by a, then by b
            assert right_action(a * b, v) == right_action(b, right_action(a, v))

    def test_degree_sign_matrix(self):
        m = degree_sign_matrix(2)
        signs = [m[i][i] for i in range(4)]
        assert signs == [QQi(1), QQi(-1), QQi(-1), QQi(1)]
