import random
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ncgkit.characters import (
    NonTorsionTwist,
    compare_class_integrals,
    cyclic_defect,
    induction_defect,
    psi,
    psi_recursive,
    require_torsion_twist,
    rho,
    simplex_character,
    simplex_moment,
    verify_induction_identity,
)
from ncgkit.checks import _block_compositions as block_compositions
from ncgkit.checks import _FormalConnection, _FreeElement, _psi_by_enumeration
from ncgkit.cyclic import Chain, Projection, chern_cyclic, hochschild_b
from ncgkit.forms import Connection, ExactForm, MatrixForm, exterior_d
from ncgkit.randgen import (
    random_algebra_element,
    random_connection,
    random_exact_projection,
    random_matrix_form,
    random_poly,
)
from ncgkit.scalars import Chart, PolyScalar, QQi

from test_cyclic import chain_of

AFF3 = Chart.affine(3)
T2 = Chart.torus(2)


def beta_integral_oracle(powers):
    """Iterated one-dimensional integration of the simplex moment.

    Integrates the last coordinate against the rest by the exact Beta
    identity; independent of the closed product formula.
    """
    def inner(ms):
        # returns (c, e) with integral = c * T^e over the scaled simplex
        if len(ms) == 1:
            return Fraction(1), ms[0]
        c, e = inner(ms[:-1])
        mk = ms[-1]
        c2 = c * Fraction(factorial(mk) * factorial(e), factorial(mk + e + 1))
        return c2, mk + e + 1

    c, e = inner(list(powers))
    return c


def test_fibonacci_counts():
    counts = [len(block_compositions(k)) for k in range(11)]
    assert counts == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_psi_base_cases():
    rng = random.Random(0)
    conn = random_connection(AFF3, 2, rng)
    assert (psi(conn, []).total - ExactForm.identity(AFF3, 2)).is_zero()
    a = random_algebra_element(AFF3, 2, rng)
    assert (psi(conn, [a]).total - conn.nabla(a)).is_zero()


def test_psi_two_explicit():
    rng = random.Random(1)
    conn = random_connection(AFF3, 2, rng)
    a1 = random_algebra_element(AFF3, 2, rng)
    a2 = random_algebra_element(AFF3, 2, rng)
    want = conn.nabla(a1) * conn.nabla(a2) + a1 * conn.sigma * a2
    assert (psi(conn, [a1, a2]).total - want).is_zero()


def test_psi_five_has_eight_terms():
    rng = random.Random(2)
    conn = random_connection(AFF3, 2, rng)
    als = [random_algebra_element(AFF3, 2, rng) for _ in range(5)]
    assert psi(conn, als).term_count == 8


def test_recursion_matches_enumeration():
    rng = random.Random(3)
    chart = Chart.affine(4)
    conn = random_connection(chart, 2, rng, terms=1)
    for k in range(5):
        als = [random_algebra_element(chart, 2, rng, terms=1) for _ in range(k)]
        assert (psi(conn, als).total - psi_recursive(conn, als)).is_zero()


@pytest.mark.parametrize("chart", [Chart.affine(3), Chart.torus(2)])
def test_suffix_recursion_matches_both_oracles(chart):
    rng = random.Random(11)
    conn = random_connection(chart, 2, rng, terms=1)
    assert not conn.sigma.is_zero()
    for k in range(9):
        als = [random_algebra_element(chart, 2, rng, terms=1) for _ in range(k)]
        expansion = psi(conn, als)
        assert expansion.k == k
        assert expansion.term_count == len(block_compositions(k))
        assert (expansion.total - _psi_by_enumeration(conn, als)).is_zero()
        assert (expansion.total - psi_recursive(conn, als)).is_zero()
    assert psi(conn, []).total == ExactForm.identity(chart, 2)


@pytest.mark.parametrize("chart", [Chart.affine(3), Chart.torus(2)])
def test_tail_is_psi_of_all_but_the_first(chart):
    rng = random.Random(12)
    conn = random_connection(chart, 2, rng, terms=1)
    assert psi(conn, []).tail is None
    for k in range(1, 6):
        als = [random_algebra_element(chart, 2, rng, terms=1) for _ in range(k)]
        assert psi(conn, als).tail == psi(conn, als[1:]).total


def free_letters(k):
    return [_FreeElement.letter(f"a{i}") for i in range(k)]


@pytest.mark.parametrize("k", range(11))
def test_free_algebra_psi_is_every_partition_word_once(k):
    total = psi(_FormalConnection(), free_letters(k)).total
    assert sorted(total.terms.values()) == [1] * len(block_compositions(k))
    assert (total - _psi_by_enumeration(_FormalConnection(), free_letters(k))).is_zero()


def test_free_algebra_words_are_the_partitions():
    # psi_3(a0, a1, a2): three words, one per composition of 3 into 1s and 2s
    total = psi(_FormalConnection(), free_letters(3)).total
    assert total.terms == {
        ("da0", "da1", "da2"): 1,
        ("da0", "a1", "sigma", "a2"): 1,
        ("a0", "sigma", "a1", "da2"): 1,
    }
    x, y = _FreeElement.letter("x"), _FreeElement.letter("y")
    assert (x * y - y * x).terms == {("x", "y"): 1, ("y", "x"): -1}
    assert (x * y + x * y - x * y - x * y).is_zero()


def reference_induction_defect(conn, a_list):
    """The induction defect with its three psi evaluations written out."""
    k = len(a_list) - 1
    a0, ak = a_list[0], a_list[-1]
    sign = -1 if (k - 1) % 2 else 1
    lhs = (a0 * psi(conn, a_list[1:]).total).scale(sign)
    lhs = lhs + psi(conn, a_list[:-1]).total * ak
    if k == 0:
        return lhs
    return lhs - conn.nabla(a0 * psi(conn, a_list[1:-1]).total * ak)


@pytest.mark.parametrize("k", range(6))
def test_induction_defect_matches_three_psi_formula(k):
    rng = random.Random(30 + k)
    chart = Chart.affine(max(k, 1))
    conn = random_connection(chart, 2, rng, terms=1)
    # a noncentral 2-form added to sigma breaks the identity, so for k >= 2
    # the defect is nonzero and the comparison can fail
    conn.sigma = conn.sigma + random_matrix_form(chart, 2, rng, 2, terms=1)
    als = [random_algebra_element(chart, 2, rng, poly_deg=0, terms=1)
           for _ in range(k + 1)]
    defect = induction_defect(conn, als)
    assert defect == reference_induction_defect(conn, als)
    assert defect.is_zero() == (k < 2)


def reference_cyclic_defect(conn, a_list):
    """The cyclic defect with its three psi evaluations written out."""
    k = len(a_list) - 1
    ch = Chain(k, [(QQi(1), tuple(a_list))])
    rot = Chain(k, [(QQi(1), (a_list[-1],) + tuple(a_list[:-1]))])
    sign = -1 if (k - 1) % 2 else 1
    lhs = rho(conn, ch).scale(sign) + rho(conn, rot)
    if k == 0:
        return lhs
    inner = (a_list[0] * psi(conn, a_list[1:-1]).total * a_list[-1]).trace()
    return lhs - exterior_d(inner)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_cyclic_defect_matches_three_psi_formula(k, seed):
    rng = random.Random(seed)
    chart = Chart.affine(max(k, 1))
    conn = random_connection(chart, 2, rng, terms=1)
    # a noncentral 2-form added to sigma breaks the identity, so the
    # comparison also covers nonzero defects
    conn.sigma = conn.sigma + random_matrix_form(chart, 2, rng, 2, terms=1)
    als = [random_algebra_element(chart, 2, rng, poly_deg=0, terms=1)
           for _ in range(k + 1)]
    defect = cyclic_defect(conn, als)
    assert defect == reference_cyclic_defect(conn, als)
    if k < 2:  # no pair block, so sigma does not enter
        assert defect.is_zero()


class TestInduction:
    def test_degenerate_k0(self):
        rng = random.Random(4)
        conn = random_connection(AFF3, 2, rng)
        a0 = random_algebra_element(AFF3, 2, rng)
        ok, defect = verify_induction_identity(conn, [a0])
        assert ok and defect.is_zero()

    def test_k2_flat_lift_reduces_to_leibniz(self):
        rng = random.Random(5)
        theta = MatrixForm.from_scalar(random_poly(AFF3, rng), 2, (0,))
        conn = Connection(theta)
        assert conn.sigma.is_zero()
        als = [random_algebra_element(AFF3, 2, rng) for _ in range(3)]
        ok, _ = verify_induction_identity(conn, als)
        assert ok

    def test_random_small(self):
        rng = random.Random(6)
        for k in range(1, 4):
            conn = random_connection(AFF3, 2, rng)
            als = [random_algebra_element(AFF3, 2, rng) for _ in range(k + 1)]
            assert induction_defect(conn, als).is_zero()

    def test_k5_full_dimension(self):
        rng = random.Random(7)
        chart = Chart.affine(5)
        conn = random_connection(chart, 2, rng, terms=1)
        als = [random_algebra_element(chart, 2, rng, terms=1) for _ in range(6)]
        assert induction_defect(conn, als).is_zero()


class TestChainCharacter:
    def test_degree_zero_is_trace(self):
        rng = random.Random(8)
        conn = random_connection(AFF3, 2, rng)
        a = random_algebra_element(AFF3, 2, rng)
        assert (rho(conn, chain_of(a)) - a.trace()).is_zero()

    def test_kills_boundaries(self):
        rng = random.Random(9)
        conn = random_connection(AFF3, 2, rng)
        for k in (2, 3, 4):
            ch = Chain(k, [(QQi(1), tuple(
                random_algebra_element(AFF3, 2, rng) for _ in range(k + 1)
            ))])
            assert rho(conn, hochschild_b(ch)).is_zero()

    def test_cyclic_defect_identity(self):
        rng = random.Random(10)
        conn = random_connection(AFF3, 2, rng)
        for k in (1, 2, 3):
            als = [random_algebra_element(AFF3, 2, rng) for _ in range(k + 1)]
            assert cyclic_defect(conn, als).is_zero()

    def test_compressed_odd_derivative_vanishes(self):
        # differentiating p^2 = p gives nabla p = (nabla p) p + p (nabla p),
        # hence p (nabla p)^(2i+1) p = 0; this collapses the expansion of
        # the projection character.  A 3-torus chart keeps the cubed case
        # above the degree-truncation floor.
        t3 = Chart.torus(3)

        def rot(i, j, coord, n=4):
            c = PolyScalar.cos(t3, coord)
            s = PolyScalar.sin(t3, coord)
            zero = PolyScalar.const(t3, 0)
            one = PolyScalar.const(t3, 1)
            m = [[one if a == b else zero for b in range(n)] for a in range(n)]
            m[i][i] = c
            m[i][j] = s
            m[j][i] = -s
            m[j][j] = c
            return MatrixForm.from_entries(t3, (), m)

        # rotations must cross the block boundary of q or their
        # generators commute with it and drop out of dp
        u = rot(0, 2, 0) * rot(1, 3, 1) * rot(0, 3, 2)
        q = ExactForm.const_matrix(
            t3, [[QQi(1 if i == j and i < 2 else 0) for j in range(4)]
                 for i in range(4)]
        )
        p_form = u * q * u.conj_transpose()
        dp = exterior_d(p_form)
        assert (p_form * dp * p_form).is_zero()
        cube = dp * dp * dp
        assert not cube.is_zero()
        assert (p_form * cube * p_form).is_zero()

    def test_projection_character_closed_and_collapses(self):
        rng = random.Random(11)
        conn = random_connection(T2, 1, rng)
        p_form = random_exact_projection(T2, 2, rng)
        p = Projection(p_form, 2, 1)
        r2 = rho(conn, chern_cyclic(p, 1))
        assert exterior_d(r2).is_zero()
        conn_a = conn.amplify(2)
        direct = (p_form * psi(conn_a, [p_form, p_form]).total).trace()
        assert (r2 - direct.scale(QQi(-2))).is_zero()

    def test_degree_above_chart_vanishes(self):
        rng = random.Random(12)
        conn = random_connection(T2, 1, rng)
        p = Projection(random_exact_projection(T2, 2, rng), 2, 1)
        assert rho(conn, chern_cyclic(p, 2)).is_zero()


class TestSimplexCharacter:
    def test_moment_formula_against_beta_oracle(self):
        import itertools

        for k in range(4):
            for powers in itertools.product(range(3), repeat=k + 1):
                assert simplex_moment(powers) == beta_integral_oracle(powers)

    def test_moment_example(self):
        assert simplex_moment((1, 0, 0)) == Fraction(1, 6)

    def test_degree_zero_chain_is_exponential_trace(self):
        rng = random.Random(13)
        conn = random_connection(AFF3, 2, rng)
        a = random_algebra_element(AFF3, 2, rng)
        out = simplex_character(conn, chain_of(a))
        sig = conn.sigma
        want = (a * (ExactForm.identity(AFF3, 2) - sig
                     + (sig * sig).scale(Fraction(1, 2)))).trace()
        # sigma^2 has degree 4 > 3 and dies; keep the general expression
        assert (out - want).is_zero()

    def test_flat_lift_reduces_to_weighted_trace(self):
        rng = random.Random(14)
        theta = MatrixForm.from_scalar(random_poly(AFF3, rng), 2, (1,))
        conn = Connection(theta)
        als = [random_algebra_element(AFF3, 2, rng) for _ in range(3)]
        ch = chain_of(*als)
        out = simplex_character(conn, ch)
        want = (als[0] * conn.nabla(als[1]) * conn.nabla(als[2])).trace()
        assert (out - want.scale(Fraction(1, 2))).is_zero()


class TestComparison:
    def test_torsion_gate(self):
        require_torsion_twist("flat")
        require_torsion_twist("torsion")
        with pytest.raises(NonTorsionTwist):
            require_torsion_twist("non-torsion")

    def test_torsion_gate_check_lets_other_errors_through(self, monkeypatch):
        """The gate of ``character-comparison`` counts only a refusal: a gate
        that fails for another reason does not read as torsion_gate true."""
        from ncgkit import checks
        from ncgkit.checks import check_character_comparison

        gate = checks.require_torsion_twist

        def broken_gate(declaration):
            if declaration == "non-torsion":
                raise TypeError("broken gate")
            gate(declaration)

        monkeypatch.setattr(checks, "require_torsion_twist", broken_gate)
        with pytest.raises(TypeError, match="broken gate"):
            check_character_comparison(seed=7)

    def test_flat_exact_agreement_on_torus(self):
        rng = random.Random(15)
        theta = MatrixForm.from_scalar(random_poly(T2, rng), 1, (0,))
        conn = Connection(theta)
        p = Projection(random_exact_projection(T2, 2, rng), 2, 1)
        jlo = ExactForm.zero(T2, 1)
        chain_side = ExactForm.zero(T2, 1)
        for m in (0, 1):
            ch = chern_cyclic(p, m)
            jlo = jlo + simplex_character(conn, ch)
            chain_side = chain_side + rho(conn, ch)
        for k in (0, 2):
            assert (jlo.degree_part(k).scale(QQi(factorial(k)))
                    - chain_side.degree_part(k)).is_zero()

    def test_symbolic_integrals_agree_nonflat(self):
        rng = random.Random(16)
        conn = random_connection(T2, 1, rng)
        p = Projection(random_exact_projection(T2, 2, rng), 2, 1)

        def integrate(form, k):
            part = form.degree_part(k)
            mat = part.comps.get((0, 1) if k == 2 else ())
            if mat is None:
                return 0.0
            # the constant coefficient: the mean over the torus
            return complex(mat[0][0].coeffs.get((0, 0), 0))

        report = compare_class_integrals(conn, p, integrate)
        assert report["agree"]
