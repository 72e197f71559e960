import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ncgkit import linalg
from ncgkit.checks import _graded_projection_exact
from ncgkit.scalars import QQi
from ncgkit.spectral import (
    FourierTorusTriple,
    SobolevVector,
    SpectralTriple,
    circle_dirac,
    finite_triple_exact,
    inner_fluctuation,
    kernel_index_exact,
    morita_lift,
    sobolev_chain_slack,
    sobolev_norm,
    spectra_equal,
    spectral_dimension_probe,
)


def test_rejects_non_selfadjoint():
    with pytest.raises(ValueError):
        finite_triple_exact([[0, 1], [2, 0]])


def test_grading_contract_enforced():
    with pytest.raises(ValueError):
        finite_triple_exact([[1, 0], [0, -1]], grading_diag=[1, -1])


class TestSobolev:
    def test_single_eigenspace_formula(self):
        lam = 3.0
        mu = np.array([1.0 / (lam ** 2 + 1.0)])
        v = SobolevVector([2.0])
        for s in (0.0, 1.0, 2.0):
            want = (lam ** 2 + 1.0) ** (s / 2.0) * 2.0
            assert abs(sobolev_norm(mu, v, s, 2.0) - want) < 1e-12

    def test_plain_norm_at_s0_p2(self):
        mu = np.array([1.0, 0.5, 0.2])
        v = SobolevVector([1.0, 2.0, 2.0])
        assert abs(sobolev_norm(mu, v, 0.0, 2.0) - 3.0) < 1e-12

    def test_monotone_in_s(self):
        triple = circle_dirac(50)
        mu, _ = triple.resolvent_weights()
        rng = np.random.default_rng(0)
        v = SobolevVector(np.abs(rng.standard_normal(len(mu))) * mu)
        norms = [sobolev_norm(mu, v, s, 2.0) for s in (0.0, 0.5, 1.0)]
        assert norms[0] <= norms[1] <= norms[2]

    def test_embedding_chain(self):
        triple = circle_dirac(200)
        mu, _ = triple.resolvent_weights()
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = SobolevVector(np.abs(rng.standard_normal(len(mu))) * mu ** 1.5)
            s = rng.uniform(0, 2)
            p = float(rng.choice([1.0, 2.0, 4.0]))
            s1, s2 = sobolev_chain_slack(mu, v, s, p, 1.0)
            assert s1 >= -1e-12 and s2 >= -1e-12

    def test_invalid_parameters(self):
        mu = np.array([1.0])
        v = SobolevVector([1.0])
        with pytest.raises(ValueError):
            sobolev_norm(mu, v, -1.0, 2.0)
        with pytest.raises(ValueError):
            sobolev_norm(mu, v, 1.0, 0.0)


def test_spectrum_is_computed_once_and_read_only(monkeypatch):
    triple = circle_dirac(20)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append(1) or eigvalsh(m))
    lam = triple.eigenvalues()
    triple.resolvent_weights()
    spectral_dimension_probe(triple, 1.0)
    spectral_dimension_probe(triple, 0.4)
    assert len(calls) == 1
    assert triple.eigenvalues() is lam
    assert np.array_equal(lam, np.arange(-20.0, 21.0))
    with pytest.raises(ValueError):
        lam[0] = 0.0
    # a compressed triple drops the inflated kernel from its one spectrum
    p = finite_triple_exact([[1, 0], [0, 0]]).d
    compressed = SpectralTriple(p, subspace=p)
    assert compressed.eigenvalues().tolist() == [1.0]
    assert len(calls) == 2


class TestSummability:
    def test_finite_always_summable(self):
        t = finite_triple_exact([[0, 5], [5, 0]])
        assert spectral_dimension_probe(t, 0.01)["verdict"] == "summable"

    def test_circle_verdicts(self):
        c = circle_dirac(200)
        assert spectral_dimension_probe(c, 1.0)["verdict"] == "summable"
        assert spectral_dimension_probe(c, 0.4)["verdict"] == "divergent-trend"

    def test_partial_sums_reported(self):
        c = circle_dirac(100)
        out = spectral_dimension_probe(c, 1.0)
        sums = list(out["partial_sums"].values())
        assert sums == sorted(sums)


def mckean_singer(d: np.ndarray, g: np.ndarray, p: np.ndarray, t: float) -> float:
    """Supertrace of the heat semigroup at time t of the numeric compression
    p D p, graded by p g p, on the range of the projection p: the oracle of
    the exact kernel count of a Morita lift with m = 1."""
    d_e = p @ d @ p
    g_e = p @ g @ p
    vals, vecs = np.linalg.eigh(d_e)
    weights = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), g_e, vecs))
    # modes in ker P have e^{-t*0} - 1 = 0 contribution; start from str(P gamma)
    base = float(np.real(np.trace(g_e @ p)))
    return base + float(np.sum(weights * (np.exp(-t * vals ** 2) - 1.0)))


class TestMoritaLift:
    def test_identity_returns_same_triple(self):
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        eye = linalg.mat_eye(2, QQi(0), QQi(1))
        assert morita_lift(t, eye, 1) is t

    def test_corner_example_index_one(self):
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        p = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(0)]])
        lift = morita_lift(t, p, 1)
        assert kernel_index_exact(lift) == 1

    def test_zero_projection_zero_index(self):
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        p = linalg.mat_zero(2, 2, QQi(0))
        assert kernel_index_exact(morita_lift(t, p, 1)) == 0

    def test_rejects_non_projection(self):
        t = finite_triple_exact([[0, 1], [1, 0]])
        bad = linalg.mat_from_rows([[QQi(1), QQi(1)], [QQi(0), QQi(0)]])
        with pytest.raises(ValueError):
            morita_lift(t, bad, 1)

    def test_lift_selfadjoint_and_graded(self):
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        p = linalg.mat_from_rows([
            [QQi(1), QQi(0), QQi(0), QQi(0)],
            [QQi(0), QQi(0), QQi(0), QQi(0)],
            [QQi(0), QQi(0), QQi(1), QQi(0)],
            [QQi(0), QQi(0), QQi(0), QQi(1)],
        ])
        lift = morita_lift(t, p, 2)
        assert linalg.mat_eq(lift.d, linalg.mat_conj_transpose(lift.d))
        anti = linalg.mat_add(
            linalg.mat_mul(lift.grading, lift.d),
            linalg.mat_mul(lift.d, lift.grading),
        )
        assert linalg.mat_is_zero(anti)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3))
    def test_compressed_grading_is_p_g_p(self, seed, m, c):
        t = finite_triple_exact([[0, c], [c, 0]], grading_diag=[1, -1])
        p = _graded_projection_exact(random.Random(seed), m, 2)
        zero = QQi(0)
        g_m = tuple(tuple(t.grading[i % 2][j % 2] if i // 2 == j // 2 else zero
                          for j in range(2 * m)) for i in range(2 * m))
        lift = morita_lift(t, p, m)
        assert lift.grading == linalg.mat_mul(p, linalg.mat_mul(g_m, p))

    @pytest.mark.parametrize("m", [1, 2])
    def test_rejects_projection_that_mixes_the_grading(self, m):
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        half, zero = QQi(Fraction(1, 2)), QQi(0)
        p = tuple(tuple(half if i // 2 == j // 2 else zero for j in range(2 * m))
                  for i in range(2 * m))  # Id_m (x) [[1, 1], [1, 1]] / 2
        with pytest.raises(ValueError, match="does not preserve the grading"):
            morita_lift(t, p, m)

    def test_mckean_singer_matches_kernel_count(self):
        # numeric supertrace against the exact kernel index on the same data
        rng = random.Random(2)
        for _ in range(10):
            c = rng.randint(1, 3)
            t = finite_triple_exact([[0, c], [c, 0]], grading_diag=[1, -1])
            p = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(0)]])
            lift = morita_lift(t, p, 1)
            exact = kernel_index_exact(lift)
            d = np.array([[0, c], [c, 0]], dtype=complex)
            g = np.diag([1.0, -1.0]).astype(complex)
            pn = np.diag([1.0, 0.0]).astype(complex)
            for t_heat in (0.5, 1.0, 2.0):
                assert abs(mckean_singer(d, g, pn, t_heat) - exact) < 1e-10


class TestExactness:
    """Exactness is read off the entries; exact-only operations refuse
    numeric data with a ValueError."""

    def test_exact_is_read_off_the_entries(self):
        assert SpectralTriple(linalg.mat_from_rows([[QQi(0), QQi(1)],
                                                    [QQi(1), QQi(0)]])).exact
        assert finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1]).exact
        assert not circle_dirac(3).exact
        # one numeric matrix makes the whole triple numeric
        d = finite_triple_exact([[0, 1], [1, 0]]).d
        assert not SpectralTriple(d, {"a": np.eye(2, dtype=complex)}).exact

    def test_exact_only_operations_reject_numeric_data(self):
        d = np.array([[0, 1], [1, 0]], dtype=complex)
        g = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="needs exact data"):
            SpectralTriple(d, grading=g)
        numeric = SpectralTriple(d)
        exact = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        p = np.diag([1.0, 0.0]).astype(complex)
        for triple, proj in ((numeric, linalg.mat_eye(2, QQi(0), QQi(1))), (exact, p)):
            with pytest.raises(ValueError, match="needs exact data"):
                morita_lift(triple, proj, 1)
        e12 = linalg.mat_from_rows([[QQi(0), QQi(1)], [QQi(0), QQi(0)]])
        for triple, pairs in ((numeric, [(e12, e12)]), (exact, [(p, p)])):
            with pytest.raises(ValueError, match="needs exact data"):
                inner_fluctuation(triple, pairs)
        with pytest.raises(ValueError, match="needs exact data"):
            kernel_index_exact(numeric)


class TestPairingFunctoriality:
    def test_report_shape_and_agreement(self):
        from ncgkit.spectral import pairing_functoriality_check

        t = finite_triple_exact([[0, 2], [2, 0]], grading_diag=[1, -1])
        p = linalg.mat_from_rows([
            [QQi(1), QQi(0), QQi(0), QQi(0)],
            [QQi(0), QQi(0), QQi(0), QQi(0)],
            [QQi(0), QQi(0), QQi(1), QQi(0)],
            [QQi(0), QQi(0), QQi(0), QQi(1)],
        ])
        q_small = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(0)]])
        out = pairing_functoriality_check(t, p, 2, q_small, 2)
        assert out["commutes"]
        assert out["pushforward_pairing"] == out["lifted_pairing"]

    def test_full_module_projection_gives_lift_index(self):
        # q = 1 over the corner: both pairings reduce to the lift's index
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        p = linalg.mat_from_rows([
            [QQi(1), QQi(0), QQi(0), QQi(0)],
            [QQi(0), QQi(0), QQi(0), QQi(0)],
            [QQi(0), QQi(0), QQi(1), QQi(0)],
            [QQi(0), QQi(0), QQi(0), QQi(1)],
        ])
        lifted = morita_lift(t, p, 2)
        want = kernel_index_exact(lifted)
        r = 2
        blocks = [[p if i == j else linalg.mat_zero(4, 4, QQi(0))
                   for j in range(r)] for i in range(r)]
        q_big = linalg.mat_from_blocks(blocks)
        lhs = kernel_index_exact(morita_lift(t, q_big, 2 * r))
        rhs = kernel_index_exact(morita_lift(lifted, q_big, r))
        assert lhs == rhs == r * want

    def test_trivial_module_reduces_to_direct_pairing(self):
        t = finite_triple_exact([[0, 1], [1, 0]], grading_diag=[1, -1])
        eye = linalg.mat_eye(2, QQi(0), QQi(1))
        q = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(0)]])
        direct = kernel_index_exact(morita_lift(t, q, 1))
        via_trivial = kernel_index_exact(morita_lift(morita_lift(t, eye, 1), q, 1))
        assert direct == via_trivial == 1


class TestInnerFluctuation:
    def test_witness_to_zero_but_not_back(self):
        t = finite_triple_exact(
            [[1, 0], [0, -1]],
            algebra={"e12": [[0, 1], [0, 0]], "e21": [[0, 0], [1, 0]]},
        )
        half = QQi(Fraction(1, 2))
        pairs = [
            (linalg.mat_scale(half, t.algebra["e12"]), t.algebra["e21"]),
            (linalg.mat_scale(half, t.algebra["e21"]), t.algebra["e12"]),
        ]
        fluct = inner_fluctuation(t, pairs)
        assert linalg.mat_is_zero(fluct.d)
        zero = finite_triple_exact([[0, 0], [0, 0]])
        assert linalg.mat_is_zero(inner_fluctuation(zero, pairs).d)
        assert not spectra_equal(t, zero)


class TestFourierTorus:
    def test_grading_contract(self):
        ft = FourierTorusTriple(6)
        rep = ft.grading_report()
        assert rep["ok"]

    def test_index_zero(self):
        ft = FourierTorusTriple(8)
        assert round(ft.mckean_singer(1.0)) == 0

    def test_supertrace_t_independent(self):
        ft = FourierTorusTriple(8)
        vals = [ft.mckean_singer(t) for t in (0.5, 1.0, 2.0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-10

    def test_commutator_norm_stable_across_truncations(self):
        norms = [FourierTorusTriple(n).commutator_norm_shift(0) for n in (4, 8, 12)]
        assert max(norms) - min(norms) < 1e-12

    def test_spectrum_symmetric(self):
        ft = FourierTorusTriple(4)
        vals = ft.dirac_eigenvalues()
        assert np.max(np.abs(vals + vals[::-1])) < 1e-10

    def test_commutator_is_right_clifford_action(self):
        # locks the fiber-action sign convention: [D, z_j] acts blockwise
        # as the right action of d(z_j) = i z_j e_j
        from ncgkit import clifford

        ft = FourierTorusTriple(4)
        n = ft.n_max
        cr = [clifford.to_numpy(clifford.right_matrix(2, i)) for i in (1, 2)]

        def blk(k1, k2):
            return ft.blocks[(k1 + n) * (2 * n + 1) + (k2 + n)]

        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                assert np.allclose(blk(k1 + 1, k2) - blk(k1, k2), 1j * cr[0])
                assert np.allclose(blk(k1, k2 + 1) - blk(k1, k2), 1j * cr[1])


def reference_supertrace(ft, t):
    """The heat supertrace with both eigendecompositions redone per call."""
    vals = np.linalg.eigvalsh(ft.blocks)
    vecs = np.linalg.eigh(ft.blocks)[1]
    w = np.real(np.einsum("mij,ik,mkj->mj", vecs.conj(), ft.gamma, vecs))
    return float(np.sum(w * np.exp(-t * vals ** 2)))


def reference_commutator_norm(ft, axis):
    """Largest 2-norm of D_{k+e} - D_k, one block pair at a time."""
    n = ft.n_max
    best = 0.0
    for k1 in range(-n, n + 1):
        for k2 in range(-n, n + 1):
            t1, t2 = k1 + (axis == 0), k2 + (axis == 1)
            if abs(t1) > n or abs(t2) > n:
                continue
            diff = (ft.blocks[(t1 + n) * (2 * n + 1) + t2 + n]
                    - ft.blocks[(k1 + n) * (2 * n + 1) + k2 + n])
            best = max(best, float(np.linalg.norm(diff, 2)))
    return best


def reference_grading_report(ft, tol=1e-12):
    g = ft.gamma
    sq = np.max(np.abs(g @ g - np.eye(4)))
    sa = np.max(np.abs(g - g.conj().T))
    anti = max(float(np.max(np.abs(g @ b + b @ g))) for b in ft.blocks)
    return {"square": sq <= tol, "selfadjoint": sa <= tol,
            "anticommutes_d": anti <= tol,
            "ok": sq <= tol and sa <= tol and anti <= tol}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.lists(
    st.one_of(st.floats(0.01, 5.0), st.sampled_from(["axis0", "axis1", "eig", "grading"])),
    min_size=1, max_size=6))
def test_torus_fast_paths_match_the_per_block_loops(n_max, calls):
    """Bitwise: one spectrum serves every t, in any order of calls."""
    ft = FourierTorusTriple(n_max)
    ref = FourierTorusTriple(n_max)
    for call in calls:
        if call in ("axis0", "axis1"):
            axis = int(call[-1])
            got, want = ft.commutator_norm_shift(axis), reference_commutator_norm(ref, axis)
            assert got.hex() == want.hex()
        elif call == "eig":
            want = np.sort(np.linalg.eigvalsh(ref.blocks).ravel())
            assert ft.dirac_eigenvalues().tobytes() == want.tobytes()
        elif call == "grading":
            assert ft.grading_report() == reference_grading_report(ref)
        else:
            assert ft.mckean_singer(call).hex() == reference_supertrace(ref, call).hex()


def test_torus_commutator_norm_without_neighbours_is_zero():
    ft = FourierTorusTriple(0)
    assert ft.commutator_norm_shift(0) == ft.commutator_norm_shift(1) == 0.0


def test_amplified_projection_layout():
    blk = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(0)]])
    zero = linalg.mat_zero(2, 2, QQi(0))
    big = linalg.mat_from_blocks([[blk, zero], [zero, blk]])
    assert big[0][0] == QQi(1) and big[2][2] == QQi(1)
    assert big[1][1] == QQi(0) and big[3][3] == QQi(0)
