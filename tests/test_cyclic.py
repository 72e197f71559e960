import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from ncgkit.cyclic import (
    BlockMap,
    Chain,
    Projection,
    chern_bB,
    chern_cyclic,
    connes_B,
    cyclic_permute,
    find_boundary_witness,
    hochschild_b,
    pushforward_chain,
    tensor_is_zero,
)
from ncgkit.forms import ExactForm, MatrixForm
from ncgkit.geom import Geometry, bott_projection, constant_projection, kron_identity_right
from ncgkit.randgen import (
    random_algebra_element,
    random_exact_projection,
    random_exact_unitary,
    random_qqi,
)
from ncgkit.scalars import PERIODIC, Chart, PolyScalar, QQi

T2 = Chart.torus(2)
T1 = Chart.torus(1)


def chain_of(*entries):
    """The chain a_0 (x) a_1 (x) ... (x) a_k with coefficient 1."""
    return Chain(len(entries) - 1, [(QQi(1), tuple(entries))])


def rand_chain(rng, k, m=2, chart=T2, terms=2):
    return Chain(k, [
        (random_qqi(rng),
         tuple(random_algebra_element(chart, m, rng) for _ in range(k + 1)))
        for _ in range(terms)
    ])


def reduced_zero(ch):
    return ch.is_zero() or tensor_is_zero(ch)


def cyclic_project(ch: Chain) -> Chain:
    """Average over signed cyclic rotations.

    This is the projection onto lambda-invariants along the image of
    (1 - lambda); a chain vanishes in the cyclic quotient complex exactly
    when its projection is zero.
    """
    out = ch
    rotated = ch
    for _ in range(ch.degree):
        rotated = cyclic_permute(rotated)
        out = out + rotated
    w = QQi(Fraction(1, ch.degree + 1))
    return Chain(out.degree, [(w * c, t) for c, t in out.terms])


def torus_pullback_projection(chart: Chart) -> MatrixForm:
    """Exact rank-one projection (1 + n.sigma)/2 pulled back to the torus.

    n = (sin t1 cos t2, sin t1 sin t2, cos t1) has unit length as a trig
    identity, so idempotence and Hermiticity hold exactly over the
    Gaussian rationals.  The class is trivial (the map has degree zero)
    but the entries are genuinely nonconstant.
    """
    assert chart.kinds == (PERIODIC, PERIODIC)
    half = Fraction(1, 2)
    s1 = PolyScalar.sin(chart, 0)
    c1 = PolyScalar.cos(chart, 0)
    c2 = PolyScalar.cos(chart, 1)
    s2 = PolyScalar.sin(chart, 1)
    n1 = s1 * c2
    n2 = s1 * s2
    n3 = c1
    i = QQi(0, 1)
    e11 = (n3 + 1) * half
    e22 = (PolyScalar.const(chart, 1) - n3) * half
    e12 = (n1 - n2 * i) * half
    e21 = (n1 + n2 * i) * half
    return MatrixForm.from_entries(chart, (), [[e11, e12], [e21, e22]])


def test_boundary_degree_one_is_commutator():
    rng = random.Random(0)
    a = random_algebra_element(T2, 2, rng)
    b = random_algebra_element(T2, 2, rng)
    out = hochschild_b(chain_of(a, b))
    want = Chain(0, [(QQi(1), (a * b,)), (QQi(-1), (b * a,))])
    assert (out - want).is_zero()


def test_boundary_squares_to_zero():
    rng = random.Random(1)
    for k in (2, 3, 4):
        ch = rand_chain(rng, k)
        assert reduced_zero(hochschild_b(hochschild_b(ch)))


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 2))
def test_complex_relations_under_random_data(seed, k, m):
    rng = random.Random(seed)
    ch = rand_chain(rng, k, m=m, chart=T1, terms=1)
    assert reduced_zero(hochschild_b(hochschild_b(ch)))
    assert reduced_zero(connes_B(connes_B(ch)))
    assert reduced_zero(hochschild_b(connes_B(ch)) + connes_B(hochschild_b(ch)))


def test_suspension_degree_zero():
    rng = random.Random(2)
    a = random_algebra_element(T2, 2, rng)
    one = ExactForm.identity(T2, 2)
    assert (connes_B(chain_of(a)) - chain_of(one, a)).is_zero()


def test_suspension_squares_to_zero():
    rng = random.Random(3)
    for k in (1, 2, 3):
        ch = rand_chain(rng, k)
        assert connes_B(connes_B(ch)).is_zero()


def test_mixed_anticommute():
    rng = random.Random(4)
    for k in (1, 2, 3, 4):
        ch = rand_chain(rng, k, m=k % 3 + 1)
        mixed = hochschild_b(connes_B(ch)) + connes_B(hochschild_b(ch))
        assert reduced_zero(mixed)


def test_scalar_slots_annihilate():
    rng = random.Random(5)
    a = random_algebra_element(T2, 2, rng)
    one = ExactForm.identity(T2, 2)
    assert chain_of(a, one).is_zero()
    assert chain_of(a, one.scale(QQi(Fraction(2, 3))), a).is_zero()
    # slot zero is the unitalized factor and may carry the identity
    assert not chain_of(one, a).is_zero()


def test_idempotent_boundary_formula():
    # b(p (x) p (x) p) = p (x) p in the free module; the cyclic projection
    # kills it, which is the cycle condition in the cyclic complex
    rng = random.Random(6)
    p_form = random_exact_projection(T2, 2, rng)
    p = Projection(p_form, 2, 1)
    ch = chern_cyclic(p, 1)
    born = hochschild_b(ch)
    assert not born.is_zero()
    assert tensor_is_zero(cyclic_project(born))


class TestTensorIsZeroMetamorphic:
    """Relations the reduced tensor product must respect, on exact random
    chains: verdicts do not depend on term order, slots are linear, and
    the identity is quotiented out of interior slots only."""

    @staticmethod
    def elements(seed, m, count):
        rng = random.Random(seed)
        return rng, [random_algebra_element(T1, m, rng) for _ in range(count)]

    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 2))
    def test_verdict_ignores_term_order(self, seed, k, m):
        rng = random.Random(seed)
        ch = rand_chain(rng, k, m=m, chart=T1, terms=3)
        mixed = hochschild_b(connes_B(ch)) + connes_B(hochschild_b(ch))
        for c in (ch, hochschild_b(hochschild_b(ch)), mixed):
            terms = list(c.terms)
            rng.shuffle(terms)
            assert tensor_is_zero(Chain(c.degree, terms)) == tensor_is_zero(c)
            assert tensor_is_zero(Chain(c.degree, terms[::-1])) == tensor_is_zero(c)

    @given(st.integers(0, 10 ** 6), st.integers(1, 2))
    def test_slots_are_linear(self, seed, m):
        rng, (a, b, c, d) = self.elements(seed, m, 4)
        lam, mu = random_qqi(rng), random_qqi(rng)
        ab = a.scale(lam) + b.scale(mu)
        one = QQi(1)
        first = Chain(1, [(one, (ab, c)), (-lam, (a, c)), (-mu, (b, c))])
        assert tensor_is_zero(first)
        inner = Chain(2, [(one, (d, ab, c)), (-lam, (d, a, c)), (-mu, (d, b, c))])
        assert tensor_is_zero(inner)

    @given(st.integers(0, 10 ** 6), st.integers(1, 2))
    def test_identity_is_quotiented_in_interior_slots_only(self, seed, m):
        rng, (a, b) = self.elements(seed, m, 2)
        lam = random_qqi(rng)
        assume(not lam.is_zero() and not a.is_scalar_multiple_of_identity())
        shifted = b + ExactForm.identity(T1, m).scale(lam)
        one = QQi(1)
        assert tensor_is_zero(Chain(1, [(one, (a, shifted)), (-one, (a, b))]))
        assert not tensor_is_zero(Chain(1, [(one, (shifted, a)), (-one, (b, a))]))

    @given(st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(1, 2))
    def test_single_elementary_tensor_is_not_zero(self, seed, k, m):
        rng, entries = self.elements(seed, m, k + 1)
        ch = Chain(k, [(random_qqi(rng), tuple(entries))])
        assume(not ch.is_zero())
        assert not tensor_is_zero(ch)


def _chern_terms_by_definition(p, m):
    """The terms of chern_cyclic(p, m) from its definition: the index
    cycles of blocks built afresh for every slot, less those with a zero
    slot or an interior slot that a fresh test finds to be a scalar
    multiple of the identity; exact like tensors merged in first-seen
    order."""
    k = 2 * m
    coef = QQi(Fraction((-1) ** m * factorial(k), factorial(m)))
    exact = isinstance(p.form, ExactForm)
    merged, terms = {}, []
    for idx in itertools.product(range(p.blocks), repeat=k + 1):
        tensor = tuple(p.block(idx[t], idx[(t + 1) % (k + 1)]) for t in range(k + 1))
        if any(a.is_zero() for a in tensor) or any(
                a._scalar_id_test() for a in tensor[1:]):
            continue
        if not exact:
            terms.append((coef, tensor))
        elif tensor in merged:
            merged[tensor] = merged[tensor] + coef
        else:
            merged[tensor] = coef
    if exact:
        terms = [(c, t) for t, c in merged.items() if not c.is_zero()]
    return terms


def _chern_projections():
    out = [Projection(random_exact_projection(T2, size, random.Random(seed)), size, 1)
           for seed, size in ((7, 2), (8, 3))]
    geom = Geometry.sphere2(4, 8)
    for p_form in (bott_projection(geom), constant_projection(geom, 1, 2)):
        # as pairing_index forms its chains: each entry a 4 x 4 block
        out.append(Projection(kron_identity_right(p_form, 4), 2, 4, check=False))
    return out


@pytest.mark.parametrize("which,scalar_blocks", [
    (0, False), (1, False), (2, False), (3, True)],
    ids=["exact-2", "exact-3", "jet-bott", "jet-constant"])
def test_chern_cyclic_keeps_its_terms(which, scalar_blocks):
    """Sharing the block forms between slots and keeping the slot test on
    each form drops no term of the Chern cycle and keeps none too many.
    The blocks of a constant projection are all scalar, so its cycles of
    degree 2 and 4 are empty."""
    p = _chern_projections()[which]
    for m in (0, 1, 2):
        got = chern_cyclic(p, m).terms
        want = _chern_terms_by_definition(p, m)
        assert len(got) == len(want)
        assert bool(got) == (m == 0 or not scalar_blocks)
        for (c, tensor), (c_want, tensor_want) in zip(got, want):
            assert c == c_want
            assert all(a == b for a, b in zip(tensor, tensor_want))


class TestChernCharacters:
    def setup_method(self):
        rng = random.Random(7)
        self.p = Projection(random_exact_projection(T2, 2, rng), 2, 1)

    def test_degree_zero_coefficient(self):
        ch = chern_cyclic(self.p, 0)
        want = Chain(0, [(QQi(1), (self.p.block(i, i),)) for i in range(2)])
        assert (ch - want).is_zero()

    def test_degree_two_coefficient(self):
        ch = chern_cyclic(self.p, 1)
        assert all(c == QQi(-2) for c, _ in ch.terms)
        assert len(ch.terms) <= 8

    def test_lambda_invariance(self):
        for m in (0, 1):
            ch = chern_cyclic(self.p, m)
            assert (cyclic_project(ch) - ch).is_zero()

    def test_mixed_complex_cycle(self):
        c0, c1, c2 = (chern_bB(self.p, m) for m in (0, 1, 2))
        assert tensor_is_zero(hochschild_b(c1) + connes_B(c0))
        assert tensor_is_zero(hochschild_b(c2) + connes_B(c1))

    def test_bB_degree_zero_has_half_shift(self):
        c0 = chern_bB(self.p, 0)
        half = ExactForm.identity(T2, 1).scale(QQi(Fraction(1, 2)))
        want = Chain(0, [
            (QQi(1), (self.p.block(i, i) - half,)) for i in range(2)
        ])
        assert (c0 - want).is_zero()

    def test_reference_pullback_mixed_cycle_degrees_0_to_2(self):
        p = Projection(torus_pullback_projection(T2), 2, 1)
        c0, c1 = chern_bB(p, 0), chern_bB(p, 1)
        assert tensor_is_zero(hochschild_b(c1) + connes_B(c0))
        assert tensor_is_zero(cyclic_project(hochschild_b(chern_cyclic(p, 1))))


class TestProjectionValidation:
    def test_rejects_non_idempotent(self):
        rng = random.Random(8)
        a = random_algebra_element(T2, 2, rng)
        with pytest.raises(ValueError):
            Projection(a + a.conj_transpose(), 2, 1)

    def test_rejects_non_hermitian(self):
        chart = T2
        mat = ExactForm.const_matrix(chart, [[QQi(1), QQi(1)], [QQi(0), QQi(0)]])
        assert (mat * mat - mat).is_zero()
        with pytest.raises(ValueError):
            Projection(mat, 2, 1)

    def test_size_factorization(self):
        with pytest.raises(ValueError):
            Projection(ExactForm.identity(T2, 3), 2, 2)


class TestPushforward:
    def test_identity_on_chains(self):
        rng = random.Random(9)
        unit = ExactForm.identity(T1, 1)
        alpha = BlockMap.corner_embedding(1, 0, unit)
        ch = rand_chain(rng, 2, m=1, chart=T1)
        assert (pushforward_chain(alpha, ch) - ch).is_zero()

    def test_non_unital_rejected(self):
        unit = ExactForm.identity(T1, 1)
        zero = ExactForm.zero(T1, 2)

        with pytest.raises(ValueError):
            BlockMap(lambda b: zero, 2, 1, unit, ExactForm.identity(T1, 2))

    def test_commutes_with_boundary(self):
        rng = random.Random(10)
        unit = ExactForm.identity(T1, 1)
        for _ in range(10):
            alpha = BlockMap.corner_embedding(2, 0, unit).conjugate(
                random_exact_unitary(2, rng)
            )
            ch = rand_chain(rng, 2, m=1, chart=T1)
            lhs = hochschild_b(pushforward_chain(alpha, ch))
            rhs = pushforward_chain(alpha, hochschild_b(ch))
            assert reduced_zero(lhs - rhs)

    def test_character_of_pushed_projection(self):
        rng = random.Random(11)
        unit = ExactForm.identity(T1, 1)
        alpha = BlockMap.corner_embedding(2, 1, unit).conjugate(
            random_exact_unitary(2, rng)
        )
        q = Projection(random_exact_projection(T1, 2, rng), 2, 1)
        pushed = pushforward_chain(alpha, chern_cyclic(q, 1))
        blocks = [[alpha.apply(q.block(i, j)) for j in range(2)] for i in range(2)]
        aq = MatrixForm.from_blocks(blocks)
        direct = chern_cyclic(Projection(aq, 4, 1, check=False), 1)
        assert tensor_is_zero(pushed - direct)


class TestBoundaryWitness:
    def test_finds_witness_for_known_boundary(self):
        rng = random.Random(12)
        ch = rand_chain(rng, 3, m=1, chart=T1, terms=3)
        target = hochschild_b(ch)
        w = find_boundary_witness(target, [t for _, t in ch.terms])
        assert w is not None
        assert (hochschild_b(w) - target).is_zero()

    def test_equal_hashes_keep_distinct_rows(self, monkeypatch):
        """Rows are keyed by the tensors themselves: with every form hashing
        alike, each seeded two-candidate boundary still finds its witness."""
        monkeypatch.setattr(ExactForm, "__hash__", lambda self: 0)
        for seed in range(20):
            ch = rand_chain(random.Random(seed), 2, m=1, chart=T1, terms=2)
            target = hochschild_b(ch)
            w = find_boundary_witness(target, [t for _, t in ch.terms])
            assert w is not None, seed
            assert (hochschild_b(w) - target).is_zero()

    def test_rejects_non_boundary(self):
        rng = random.Random(13)
        ch = rand_chain(rng, 2, m=1, chart=T1)
        # a generic degree-2 chain is not a boundary of the listed tensors
        cand = [t for _, t in rand_chain(rng, 3, m=1, chart=T1).terms]
        w = find_boundary_witness(ch, cand)
        if w is not None:
            assert (hochschild_b(w) - ch).is_zero()
