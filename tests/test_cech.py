import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ncgkit import intlinalg, linalg
from ncgkit.cech import (
    Nerve,
    NotProjectiveCocycle,
    TransitionData,
    boundary_of_4_simplex,
    h3_class,
    normalize_determinant,
    pauli_triangle,
    phase_cocycle,
    torsion_witness,
)
from ncgkit.randgen import EXACT_PHASES, random_exact_unitary
from ncgkit.scalars import QQi

SZ = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(-1)]])


def coboundary_data(rng, nerve, rank=2, phases=True):
    hs = {v: random_exact_unitary(rank, rng) for v in nerve.vertices}
    edges = {}
    for (i, j) in nerve.k_simplices(1):
        lam = rng.choice(EXACT_PHASES) if phases else QQi(1)
        mat = linalg.mat_scale(
            lam, linalg.mat_mul(hs[i], linalg.mat_conj_transpose(hs[j]))
        )
        edges[(i, j)] = mat
    return TransitionData(nerve, rank, edges)


def phase_mu_reference(data):
    """mu from the full triple product g(i,j) (g(j,k) g(k,i)) = lambda I."""
    mu = {}
    for tri in data.nerve.k_simplices(2):
        i, j, k = tri
        prod = linalg.mat_mul(data.g(i, j),
                              linalg.mat_mul(data.g(j, k), data.g(k, i)))
        lam = prod[0][0]
        eye = linalg.mat_eye(data.rank, QQi(0), QQi(1))
        if not linalg.mat_eq(prod, linalg.mat_scale(lam, eye)):
            raise NotProjectiveCocycle("transition data is not a projective cocycle")
        mu[tri] = lam
    return mu


def simplex_boundary_check(nerve: Nerve) -> bool:
    """Coboundary of coboundary vanishes on every degree present."""
    top = max((len(s) - 1 for s in nerve.simplices), default=0)
    for k in range(top - 1):
        d1 = nerve.coboundary_matrix(k)
        d2 = nerve.coboundary_matrix(k + 1)
        n = len(d1)
        m = len(d1[0]) if d1 else 0
        for j in range(m):
            col = [d1[i][j] for i in range(n)]
            image = [sum(d2[r][i] * col[i] for i in range(n)) for r in range(len(d2))]
            if any(image):
                return False
    return True


class TestNerve:
    def test_face_closure(self):
        n = Nerve([(0, 1, 2)])
        assert (0, 1) in n.simplices and (2,) in n.simplices

    def test_boundary_of_boundary(self):
        assert simplex_boundary_check(boundary_of_4_simplex())
        assert simplex_boundary_check(Nerve([(0, 1, 2, 3)]))

    def test_coboundary_shape(self):
        n = boundary_of_4_simplex()
        d2 = n.coboundary_matrix(2)
        assert len(d2) == 5 and len(d2[0]) == 10

    def test_nerve_is_immutable(self):
        n = Nerve([(0, 1, 2)])
        assert isinstance(n.simplices, frozenset)
        with pytest.raises(AttributeError):
            n.simplices = {(0,)}
        with pytest.raises(AttributeError):
            n.vertices = [0]
        assert n.k_simplices(1) == ((0, 1), (0, 2), (1, 2))
        assert isinstance(n.k_simplices(1), tuple)
        d1 = n.coboundary_matrix(1)
        assert d1 == ((1, -1, 1),) and d1 is n.coboundary_matrix(1)


class TestPhaseCocycle:
    def test_identity_data(self):
        nerve = Nerve([(0, 1, 2)])
        eye = linalg.mat_eye(2, QQi(0), QQi(1))
        data = TransitionData(nerve, 2, {
            (0, 1): eye, (1, 2): eye, (0, 2): eye,
        })
        pc = phase_cocycle(data)
        assert pc.mu[(0, 1, 2)] == QQi(1)
        assert pc.nu[(0, 1, 2)] == 0.0

    def test_pauli_triangle_phase(self):
        pc = phase_cocycle(pauli_triangle())
        assert pc.mu[(0, 1, 2)] == QQi(0, 1)
        assert abs(pc.nu[(0, 1, 2)] - 0.25) < 1e-12

    def test_non_projective_data_rejected(self):
        nerve = Nerve([(0, 1, 2)])
        eye = linalg.mat_eye(2, QQi(0), QQi(1))
        # one edge breaks the scalar triple-product property
        rot = linalg.mat_from_rows([
            [QQi(Fraction(3, 5)), QQi(Fraction(4, 5))],
            [QQi(Fraction(-4, 5)), QQi(Fraction(3, 5))],
        ])
        data = TransitionData(nerve, 2, {(0, 1): rot, (1, 2): eye, (0, 2): eye})
        with pytest.raises(NotProjectiveCocycle, match="projective cocycle"):
            phase_cocycle(data)

    def test_broken_edge_rejected_although_the_pivot_agrees(self):
        # g(0,1) g(1,2) = diag(1, -1) agrees with 1 * g(0,2) at the first
        # nonzero entry of g(0,2) only, and the ratio there has modulus one
        nerve = Nerve([(0, 1, 2)])
        eye = linalg.mat_eye(2, QQi(0), QQi(1))
        data = TransitionData(nerve, 2, {(0, 1): SZ, (1, 2): eye, (0, 2): eye})
        with pytest.raises(NotProjectiveCocycle, match="projective cocycle"):
            phase_cocycle(data)
        # the same defect planted in one edge of cocycle data on the 3-sphere
        good = coboundary_data(random.Random(5), boundary_of_4_simplex())
        edges = dict(good.edges)
        edges[(0, 1)] = linalg.mat_mul(edges[(0, 1)], SZ)
        with pytest.raises(NotProjectiveCocycle, match="projective cocycle"):
            phase_cocycle(TransitionData(good.nerve, 2, edges))

    def test_rephasing_changes_mu_by_coboundary(self):
        rng = random.Random(0)
        nerve = boundary_of_4_simplex()
        data = coboundary_data(rng, nerve)
        pc = phase_cocycle(data)
        phases = {e: rng.choice(EXACT_PHASES) for e in data.edges}
        pc2 = phase_cocycle(data.rephased(phases))
        for tri in nerve.k_simplices(2):
            i, j, k = tri
            lam = phases[(i, j)] * phases[(j, k)] * phases[(i, k)].inverse()
            assert pc2.mu[tri] == pc.mu[tri] * lam

    def test_delta_integer_and_closed(self):
        rng = random.Random(1)
        nerve = boundary_of_4_simplex()
        pc = phase_cocycle(coboundary_data(rng, nerve))
        assert pc.residual < 1e-9
        assert all(isinstance(v, int) for v in pc.delta_vector())


def coboundary_reference(simplices, k):
    """C^k -> C^{k+1} straight from the simplex list, without a nerve cache."""
    rows = sorted(s for s in simplices if len(s) == k + 2)
    cols = {s: i for i, s in enumerate(sorted(s for s in simplices if len(s) == k + 1))}
    out = [[0] * len(cols) for _ in rows]
    for r, s in enumerate(rows):
        for j in range(len(s)):
            out[r][cols[s[:j] + s[j + 1:]]] += (-1) ** j
    return out


def h3_class_reference(delta, simplices):
    """The class recomputed from scratch with one Smith form per solve."""
    d3 = coboundary_reference(simplices, 3)
    d2 = coboundary_reference(simplices, 2)
    n3 = len(d2)
    n2 = len(d2[0]) if d2 else 0
    kernel = intlinalg.integer_kernel_basis(d3) if d3 else [
        [1 if i == j else 0 for i in range(n3)] for j in range(n3)]
    r = len(kernel)
    k_mat = [[kernel[b][i] for b in range(r)] for i in range(n3)]
    y = intlinalg.solve_integer(k_mat, delta)
    gens = [intlinalg.solve_integer(k_mat, [d2[i][j] for i in range(n3)])
            for j in range(n2)]
    u, s, _ = intlinalg.smith_normal_form(
        [[gens[j][i] for j in range(n2)] for i in range(r)])
    diag = intlinalg.snf_diagonal(s)
    z = [sum(u[i][k] * y[k] for k in range(r)) for i in range(r)]
    invariants, coordinates = [], []
    for i in range(r):
        d = diag[i] if i < len(diag) else 0
        if d != 1:
            invariants.append(d)
            coordinates.append(z[i] % d if d else z[i])
    return invariants, coordinates


def random_cocycle(rng, nerve):
    """A multiple of a single-face indicator plus a random integer
    coboundary; on a nerve without 4-simplices every 3-cochain is closed."""
    d2 = coboundary_reference(nerve.simplices, 2)
    w = [rng.randint(-3, 3) for _ in range(len(d2[0]))]
    base = [rng.randint(-2, 2)] + [0] * (len(d2) - 1)
    return [b + sum(x * y for x, y in zip(row, w)) for b, row in zip(base, d2)]


class TestIntegralClass:
    def test_cached_presentation_matches_reference(self):
        # interleaved nerves, one a fresh copy of another, so a presentation
        # cached on the wrong nerve would answer for a different complex
        rng = random.Random(6)
        nerves = [boundary_of_4_simplex(), Nerve([(0, 1, 2, 3)]),
                  boundary_of_4_simplex()]
        for _ in range(4):
            for nerve in nerves:
                delta = random_cocycle(rng, nerve)
                cls = h3_class(delta, nerve)
                want = h3_class_reference(delta, sorted(nerve.simplices))
                assert (cls.invariants, cls.coordinates) == want
        assert h3_class([1, 0, 0, 0, 0], nerves[0]).invariants == [0]
        assert h3_class([1], nerves[1]).is_zero

    def test_class_ignores_added_coboundaries(self):
        rng = random.Random(8)
        nerve = boundary_of_4_simplex()
        d2 = nerve.coboundary_matrix(2)
        for _ in range(5):
            delta = random_cocycle(rng, nerve)
            w = [rng.randint(-5, 5) for _ in d2[0]]
            shifted = [x + sum(a * b for a, b in zip(row, w))
                       for x, row in zip(delta, d2)]
            assert h3_class(shifted, nerve) == h3_class(delta, nerve)

    def test_rejects_non_integer_entries(self):
        nerve = boundary_of_4_simplex()
        for bad in (0.5, Fraction(1, 2), 1e-9):
            with pytest.raises(ValueError, match="not an integer"):
                h3_class([bad, 0, 0, 0, 0], nerve)
        assert h3_class([1.0, 0, 0, 0, 0], nerve) == h3_class([1, 0, 0, 0, 0], nerve)

    def test_sphere_nerve_free_rank_one(self):
        nerve = boundary_of_4_simplex()
        n3 = nerve.k_simplices(3)
        gen = h3_class([1 if s == n3[0] else 0 for s in n3], nerve)
        assert gen.invariants == [0]
        assert gen.coordinates in ([1], [-1])

    def test_coboundary_has_zero_class(self):
        rng = random.Random(2)
        nerve = boundary_of_4_simplex()
        d2 = nerve.coboundary_matrix(2)
        w = [rng.randint(-4, 4) for _ in nerve.k_simplices(2)]
        delta = [sum(r * x for r, x in zip(row, w)) for row in d2]
        assert h3_class(delta, nerve).is_zero

    def test_fundamental_pairing_counts_multiplicity(self):
        nerve = boundary_of_4_simplex()
        n3 = nerve.k_simplices(3)
        gen = h3_class([1 if s == n3[0] else 0 for s in n3], nerve)
        doubled = h3_class([2 if s == n3[0] else 0 for s in n3], nerve)
        assert doubled.coordinates == [2 * c for c in gen.coordinates]

    def test_rejects_non_cocycle(self):
        nerve = Nerve([(0, 1, 2, 3, 4)])  # solid 4-simplex has 4-cells
        n3 = nerve.k_simplices(3)
        bad = [1] + [0] * (len(n3) - 1)
        with pytest.raises(ValueError, match="cocycle"):
            h3_class(bad, nerve)

    def test_class_invariance_under_rephasing(self):
        rng = random.Random(3)
        nerve = boundary_of_4_simplex()
        data = coboundary_data(rng, nerve)
        ref = h3_class(phase_cocycle(data).delta_vector(), nerve)
        for _ in range(10):
            phases = {e: rng.choice(EXACT_PHASES) for e in data.edges}
            cls = h3_class(
                phase_cocycle(data.rephased(phases)).delta_vector(), nerve
            )
            assert cls == ref


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.lists(st.integers(0, len(EXACT_PHASES) - 1), min_size=10, max_size=10))
def test_class_is_invariant_under_rephasing_and_reseeding(seed, other_seed, picks):
    nerve = boundary_of_4_simplex()
    data = coboundary_data(random.Random(seed), nerve)
    ref = h3_class(phase_cocycle(data).delta_vector(), nerve)
    phases = {e: EXACT_PHASES[i] for e, i in zip(sorted(data.edges), picks)}
    rephased = phase_cocycle(data.rephased(phases))
    assert h3_class(rephased.delta_vector(), nerve) == ref
    reseeded = phase_cocycle(coboundary_data(random.Random(other_seed), nerve))
    assert h3_class(reseeded.delta_vector(), nerve) == ref


class TestTorsion:
    def test_witness_for_rank_times_class(self):
        rng = random.Random(4)
        nerve = boundary_of_4_simplex()
        found_nonzero_delta = False
        for trial in range(8):
            pc = phase_cocycle(coboundary_data(rng, nerve))
            dv = pc.delta_vector()
            if any(dv):
                found_nonzero_delta = True
            w = torsion_witness(pc, 2)
            assert w is not None
            d2 = nerve.coboundary_matrix(2)
            image = [sum(r * x for r, x in zip(row, w)) for row in d2]
            assert image == [2 * v for v in dv]
        assert found_nonzero_delta

    def test_determinant_normalization_pauli(self):
        norm = normalize_determinant(pauli_triangle())
        assert norm.exact
        pc = phase_cocycle(norm)
        mu = pc.mu[(0, 1, 2)]
        assert mu ** 2 == QQi(1)
        two_nu = 2 * pc.nu[(0, 1, 2)]
        assert abs(two_nu - round(two_nu)) < 1e-12

    def test_unit_determinant_after_lift(self):
        from ncgkit.cech import _det_exact

        norm = normalize_determinant(pauli_triangle())
        for mat in norm.edges.values():
            assert _det_exact(mat) == QQi(1)


@st.composite
def exact_transition_cases(draw):
    """Exact unitary data on a triangle or the 3-sphere nerve: a projective
    cocycle (coboundary type or the Pauli triangle), optionally with one edge
    broken or replaced by a random unitary, plus unit phases per edge."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        data = pauli_triangle()
    else:
        nerve = boundary_of_4_simplex() if draw(st.booleans()) else Nerve([(0, 1, 2)])
        data = coboundary_data(rng, nerve, rank=draw(st.integers(1, 3)))
    defect = draw(st.sampled_from((None, "sz", "random")))
    if defect is not None and data.rank == 2:
        edges = dict(data.edges)
        e = rng.choice(sorted(edges))
        edges[e] = (linalg.mat_mul(edges[e], SZ) if defect == "sz"
                    else random_exact_unitary(2, rng))
        data = TransitionData(data.nerve, data.rank, edges)
    picks = draw(st.lists(st.integers(0, len(EXACT_PHASES) - 1),
                          min_size=10, max_size=10))
    phases = {e: EXACT_PHASES[i] for e, i in zip(sorted(data.edges), picks)}
    return data, phases


@settings(max_examples=60, deadline=None)
@given(exact_transition_cases())
def test_one_product_mu_matches_triple_product_reference(case):
    data, phases = case
    for d in (data, data.rephased(phases)):
        # rephased edges are built without a second unitarity product
        eye = linalg.mat_eye(d.rank, QQi(0), QQi(1))
        for mat in d.edges.values():
            assert linalg.mat_mul(mat, linalg.mat_conj_transpose(mat)) == eye
        try:
            want = phase_mu_reference(d)
        except NotProjectiveCocycle:
            with pytest.raises(NotProjectiveCocycle, match="projective cocycle"):
                phase_cocycle(d)
            continue
        got = phase_cocycle(d).mu
        assert got == want
        # the canonical triple, so every rendered mu is the same
        assert [(x.a, x.b, x.d) for x in got.values()] == [
            (x.a, x.b, x.d) for x in want.values()]


def test_rephasing_needs_unit_modulus():
    data = pauli_triangle()
    for lam in (QQi(2), QQi(Fraction(3, 5), Fraction(3, 5)), QQi(0, Fraction(1, 2))):
        with pytest.raises(ValueError, match="unit modulus"):
            data.rephased({(0, 1): lam})
        with pytest.raises(ValueError, match="unit modulus"):
            data.rephased({(1, 0): lam})


def test_rephasing_rejects_keys_that_are_not_one_edge():
    data = pauli_triangle()
    with pytest.raises(ValueError, match="not in the nerve"):
        data.rephased({(7, 9): QQi(0, 1), (0, 1): QQi(0, 1), (1, 0): QQi(-1)})
    for key in ((7, 9), (9, 7), (1, 1)):
        with pytest.raises(ValueError, match="not in the nerve"):
            data.rephased({key: QQi(0, 1)})
    with pytest.raises(ValueError, match="given twice"):
        data.rephased({(0, 1): QQi(0, 1), (1, 0): QQi(-1)})
    # a phase keyed against the orientation acts by its inverse
    assert (data.rephased({(1, 0): QQi(0, 1)}).edges
            == data.rephased({(0, 1): QQi(0, -1)}).edges)


def test_transition_data_is_immutable():
    eye = [[QQi(1), QQi(0)], [QQi(0), QQi(1)]]
    data = TransitionData(Nerve([(0, 1, 2)]), 2,
                          {(0, 1): eye, (1, 2): SZ, (0, 2): SZ})
    assert data.edges[(0, 1)] == linalg.mat_from_rows(eye)
    assert all(isinstance(m, tuple) and all(isinstance(r, tuple) for r in m)
               for m in data.edges.values())
    with pytest.raises(AttributeError):
        data.edges = {}
    with pytest.raises(TypeError):
        data.edges[(0, 1)] = SZ
    for name, value in (("nerve", Nerve([(0, 1)])), ("rank", 3), ("exact", False)):
        with pytest.raises(AttributeError):
            setattr(data, name, value)
    # changing the input dict afterwards does not reach the verified data
    given_edges = {(0, 1): SZ, (1, 2): SZ, (0, 2): eye}
    data = TransitionData(Nerve([(0, 1, 2)]), 2, given_edges)
    given_edges[(0, 1)] = linalg.mat_scale(QQi(2), SZ)
    assert data.edges[(0, 1)] == SZ


def test_edge_given_in_both_orientations_is_rejected():
    eye = linalg.mat_eye(2, QQi(0), QQi(1))
    sx = linalg.mat_from_rows([[QQi(0), QQi(1)], [QQi(1), QQi(0)]])
    with pytest.raises(ValueError, match="given twice"):
        TransitionData(Nerve([(0, 1, 2)]), 2,
                       {(0, 1): eye, (1, 0): sx, (1, 2): eye, (0, 2): eye})


def numeric_pauli_triangle():
    """The Pauli triangle with np.complex128 entries."""
    return TransitionData(Nerve([(0, 1, 2)]), 2, {
        e: np.array([[complex(x) for x in row] for row in mat])
        for e, mat in pauli_triangle().edges.items()
    })


def test_numeric_transition_data_is_read_as_numeric():
    data = numeric_pauli_triangle()
    assert not data.exact
    assert pauli_triangle().exact
    pc = phase_cocycle(data)
    assert pc.mu[(0, 1, 2)] == 1j
    assert abs(pc.nu[(0, 1, 2)] - 0.25) < 1e-12
    # unitarity is checked to a tolerance on numeric data
    edges = dict(data.edges)
    edges[(0, 1)] = 2 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        TransitionData(data.nerve, 2, edges)


def test_exact_only_operations_reject_numeric_data():
    data = numeric_pauli_triangle()
    with pytest.raises(ValueError, match="needs exact data"):
        data.rephased({(0, 1): QQi(0, 1)})
    with pytest.raises(ValueError, match="needs exact data"):
        normalize_determinant(data)


def test_unitarity_enforced():
    nerve = Nerve([(0, 1)])
    bad = linalg.mat_from_rows([[QQi(2), QQi(0)], [QQi(0), QQi(1)]])
    with pytest.raises(ValueError, match="unitary"):
        TransitionData(nerve, 2, {(0, 1): bad})
