import random
from fractions import Fraction

import pytest

from ncgkit import linalg
from ncgkit.clifford import (
    CliffordElement,
    DimensionMismatch,
    SpinorRep,
    chirality,
    clifford_trace,
    degree_sign_matrix,
    fiber_basis,
    left_action,
    left_matrix,
    right_action,
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


# -- reference: the fiber actions as wedge and contraction ----------------
#
# The library computes both actions as Clifford products; these are their
# definitions on the exterior algebra, kept here as the independent oracle.


def _wedge_gen(i, blade):
    if i in blade:
        return (), 0
    pos = sum(1 for j in blade if j < i)
    return tuple(sorted(blade + (i,))), (-1) ** pos


def _contract_gen(i, blade):
    if i not in blade:
        return (), 0
    pos = sum(1 for j in blade if j < i)
    return tuple(j for j in blade if j != i), (-1) ** pos


def _generator_action(n, i, v, wedge_sign, contract_sign):
    """Sum of wedge_sign(deg) (e_i wedge .) and contract_sign(deg)
    (contraction by e_i) on the fiber element v."""
    out = CliffordElement(n, {})
    for blade, c in v.coeffs.items():
        for (b, s), sign in ((_wedge_gen(i, blade), wedge_sign(len(blade))),
                             (_contract_gen(i, blade), contract_sign(len(blade)))):
            if s:
                out = out + CliffordElement.blade(n, b, c * (s * sign))
    return out


def left_generator_action(n, i, v):
    """c_L(e_i) = (e_i wedge .) - (contraction by e_i)."""
    return _generator_action(n, i, v, lambda d: 1, lambda d: -1)


def right_generator_action(n, i, v):
    """c_R(e_i) = (-1)^deg ((e_i wedge .) + (contraction by e_i))."""
    parity = lambda d: (-1) ** d  # noqa: E731
    return _generator_action(n, i, v, parity, parity)


def reference_left_action(a, v):
    """Generator actions composed in blade order: c_L(e_i e_j) = c_L(e_i) c_L(e_j)."""
    out = CliffordElement(a.n, {})
    for blade, c in a.coeffs.items():
        w = v
        for i in reversed(blade):
            w = left_generator_action(a.n, i, w)
        out = out + w * c
    return out


def reference_right_action(a, v):
    """A right-module action: acting by e_i e_j is acting by e_i, then by e_j."""
    out = CliffordElement(a.n, {})
    for blade, c in a.coeffs.items():
        w = v
        for i in blade:
            w = right_generator_action(a.n, i, w)
        out = out + w * c
    return out


def reference_matrix(n, action, i):
    basis = fiber_basis(n)
    cols = [action(n, i, CliffordElement.blade(n, b)) for b in basis]
    return linalg.mat_from_rows([[col.coeffs.get(row, QQi(0)) for col in cols] for row in basis])


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
        assert isinstance(w, CliffordElement)
        assert w * w == CliffordElement.scalar(n, 1)


def test_chirality_low_dims_explicit():
    assert chirality(1) == CliffordElement.blade(1, (1,), QQi(0, 1))
    assert chirality(2) == CliffordElement.blade(2, (1, 2), QQi(0, 1))
    assert chirality(4) == CliffordElement.blade(4, (1, 2, 3, 4), QQi(-1))


def test_chirality_commutation_pattern():
    for n in (2, 4, 6):
        w = chirality(n)
        for e in gens(n):
            assert (w * e + e * w).is_zero()
    for n in (3, 5):
        w = chirality(n)
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
    w = chirality(3)
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
        # a right-module action: acting by a*b is acting by a, then by b,
        # for blades of disjoint support as for all others
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
            assert right_action(a * b, v) == right_action(b, right_action(a, v))

    def test_actions_match_the_wedge_contraction_reference(self):
        """Every generator matrix, and the actions of every blade on every
        blade, for n = 1..6, then on random elements with several blades."""
        for n in range(1, 7):
            for i in range(1, n + 1):
                assert left_matrix(n, i) == reference_matrix(n, left_generator_action, i)
                assert right_matrix(n, i) == reference_matrix(n, right_generator_action, i)
            blades = [CliffordElement.blade(n, b) for b in fiber_basis(n)]
            for a in blades:
                for v in blades:
                    assert left_action(a, v) == reference_left_action(a, v)
                    assert right_action(a, v) == reference_right_action(a, v)
        rng = random.Random(9)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                a, v = random_element(n, rng), random_element(n, rng)
                assert left_action(a, v) == reference_left_action(a, v)
                assert right_action(a, v) == reference_right_action(a, v)

    def test_actions_check_dimensions(self):
        for action in (left_action, right_action):
            with pytest.raises(DimensionMismatch):
                action(CliffordElement.blade(2, (1,)), CliffordElement.blade(3, (1,)))

    def test_degree_sign_matrix(self):
        m = degree_sign_matrix(2)
        signs = [m[i][i] for i in range(4)]
        assert signs == [QQi(1), QQi(-1), QQi(-1), QQi(1)]
