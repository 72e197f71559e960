"""Spectral triples with explicit eigendata.

Two concrete models: dense finite triples (exact Gaussian-rational or
complex matrices, possibly living on a compressed subspace P H) and the
Fourier-truncated flat-torus triple, which is block diagonal over modes
and therefore stored as a batch of 4 x 4 blocks.

A finite triple is exact when every entry of its matrices is a Gaussian
rational (``linalg.all_qqi``); exactness is read off the entries, never
declared.  The grading contract, Morita lifts, inner fluctuations and
kernel counting take exact data only and raise ``ValueError`` on numeric
data; eigendata (spectra, Sobolev weights, summability) take either.

Index pairings come in two flavors: exact kernel counting over the
Gaussian rationals (stacked nullspace systems, no eigensolver) and the
heat-kernel supertrace of the torus model, whose t-independence is
itself one of the checks.  Morita lifts compress the amplified Dirac
operator by a projection, D^E = p (D x Id_m) p.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from . import linalg
from ._numpy import np
from .scalars import QQi


def _to_numpy(mat) -> np.ndarray:
    if isinstance(mat, np.ndarray):
        return mat.astype(complex)
    return np.array([[complex(x) for x in row] for row in mat], dtype=complex)


class SpectralTriple:
    """Finite-model triple: Dirac matrix, algebra action, optional grading.

    ``subspace`` is a projection matrix P when the triple lives on the
    compressed space P H; all operators then satisfy X = P X P.  The
    triple is exact when all its matrices have QQi entries only; a
    grading needs exact data.
    """

    def __init__(self, d_matrix, algebra: Optional[Dict[str, object]] = None,
                 grading=None, subspace=None, model: str = "finite",
                 check: bool = True):
        self.d = d_matrix
        self.algebra = dict(algebra or {})
        self.grading = grading
        self.subspace = subspace
        self.exact = all(linalg.all_qqi(m) for m in (d_matrix, grading, subspace,
                                                     *self.algebra.values())
                         if m is not None)
        self.model = model
        self._eigenvalues = None
        if check:
            self._check_contracts()

    # -- contracts -------------------------------------------------------

    def _dim(self) -> int:
        return len(self.d)

    def _check_contracts(self):
        """D is self-adjoint; a grading squares to 1 (to P on a compressed
        triple), is self-adjoint, anticommutes with D and commutes with
        every registered algebra element."""
        d, g = self.d, self.grading
        if not self.exact:
            d = np.asarray(d, dtype=complex)
            if np.max(np.abs(d - d.conj().T)) > 1e-10:
                raise ValueError("Dirac matrix is not self-adjoint")
            if g is not None:
                raise ValueError("the grading contract needs exact data")
            return
        if not linalg.mat_eq(d, linalg.mat_conj_transpose(d)):
            raise ValueError("Dirac matrix is not self-adjoint")
        if g is None:
            return
        eye = self.subspace
        if eye is None:
            eye = linalg.mat_eye(self._dim(), QQi(0), QQi(1))
        report = {
            "square": linalg.mat_eq(linalg.mat_mul(g, g), eye),
            "selfadjoint": linalg.mat_eq(g, linalg.mat_conj_transpose(g)),
            "anticommutes_d": linalg.mat_is_zero(
                linalg.mat_add(linalg.mat_mul(g, d), linalg.mat_mul(d, g))),
            "commutes_algebra": all(
                linalg.mat_eq(linalg.mat_mul(g, a), linalg.mat_mul(a, g))
                for a in self.algebra.values()),
        }
        if not all(report.values()):
            raise ValueError(f"grading contract failed: {report}")

    # -- eigendata ---------------------------------------------------------

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of D on the effective space (compressed modes only).

        Computed once per triple and returned read-only.
        """
        if self._eigenvalues is not None:
            return self._eigenvalues
        d = _to_numpy(self.d)
        vals = np.linalg.eigvalsh(d)
        if self.subspace is not None:
            p = _to_numpy(self.subspace)
            rank = int(round(np.real(np.trace(p))))
            drop = len(vals) - rank
            # compressed operator has the ambient kernel inflated by ker P
            zeros = np.argsort(np.abs(vals))[:drop]
            keep = np.ones(len(vals), dtype=bool)
            keep[zeros] = False
            vals = vals[keep]
        vals = np.sort(vals)
        vals.flags.writeable = False
        self._eigenvalues = vals
        return vals

    def resolvent_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct mu_i = (lambda^2+1)^{-1} (decreasing) and multiplicities."""
        lam = self.eigenvalues()
        mu = 1.0 / (lam ** 2 + 1.0)
        vals, counts = np.unique(np.round(mu, 12), return_counts=True)
        order = np.argsort(vals)[::-1]
        return vals[order], counts[order]


def finite_triple_exact(d_rows, algebra=None, grading_diag=None) -> SpectralTriple:
    d = linalg.mat_from_rows([[QQi.coerce(x) for x in row] for row in d_rows])
    alg = {}
    for name, rows in (algebra or {}).items():
        alg[name] = linalg.mat_from_rows([[QQi.coerce(x) for x in row] for row in rows])
    g = None
    if grading_diag is not None:
        n = len(d_rows)
        g = linalg.mat_from_rows(
            [[QQi.coerce(grading_diag[i]) if i == j else QQi(0) for j in range(n)]
             for i in range(n)]
        )
    return SpectralTriple(d, alg, g)


# -- Sobolev scales ------------------------------------------------------


class SobolevVector:
    """Component norms per eigenspace of (D^2+1)^{-1}, largest mu first."""

    def __init__(self, component_norms: Sequence[float]):
        self.norms = np.asarray(component_norms, dtype=float)
        if np.any(self.norms < 0):
            raise ValueError("component norms must be nonnegative")


def sobolev_norm(mu: np.ndarray, v: SobolevVector, s: float, p: float) -> float:
    """|| v ||_{s,p} = (sum mu_i^{-s p/2} ||v_i||^p)^{1/p}; sup form at p=inf."""
    if s < 0:
        raise ValueError("the scale parameter must be nonnegative")
    mu = np.asarray(mu, dtype=float)[: len(v.norms)]
    weights = mu ** (-s / 2.0)
    if p == np.inf:
        return float(np.max(weights * v.norms)) if len(v.norms) else 0.0
    if p <= 0:
        raise ValueError("p must be positive")
    return float(np.sum((weights * v.norms) ** p) ** (1.0 / p))


def sobolev_chain_slack(mu: np.ndarray, v: SobolevVector, s: float, p: float,
                        d: float) -> Tuple[float, float]:
    """Slacks of the embedding chain
    ||v||_{s,inf} <= ||v||_{s,p} <= (sum mu_j^d)^{1/p} ||v||_{s+2d/p,inf}.
    Both are nonnegative up to rounding when (D^2+1)^{-d} is traceable.
    """
    left = sobolev_norm(mu, v, s, np.inf)
    mid = sobolev_norm(mu, v, s, p)
    zd = float(np.sum(np.asarray(mu, dtype=float) ** d))
    right = zd ** (1.0 / p) * sobolev_norm(mu, v, s + 2.0 * d / p, np.inf)
    return mid - left, right - mid


def circle_dirac(n_max: int) -> SpectralTriple:
    """Dirac operator on the circle truncated to modes |n| <= n_max.

    The algebra carries the generating unitary (mode shift), whose
    commutator with D has norm 1 at every truncation.
    """
    modes = list(range(-n_max, n_max + 1))
    dim = len(modes)
    d = np.diag(np.array(modes, dtype=float)).astype(complex)
    shift = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        shift[i + 1, i] = 1.0
    return SpectralTriple(d, {"u": shift}, model="truncated")


def spectral_dimension_probe(triple: SpectralTriple, d: float) -> dict:
    """Partial sums of mu_i^d with a tail-slope convergence verdict.

    mu_i ~ i^(-alpha) gives summability iff alpha*d > 1; alpha is fitted
    on the tail of the truncation.  Finite models are always summable.
    """
    mu, counts = triple.resolvent_weights()
    expanded = np.repeat(mu, counts)
    sums = {}
    npts = len(expanded)
    for frac in (4, 2, 1):
        k = max(1, npts // frac)
        sums[k] = float(np.sum(expanded[:k] ** d))
    if triple.model == "finite":
        return {"partial_sums": sums, "verdict": "summable",
                "reason": "finite spectrum"}
    tail = expanded[npts // 2:]
    idx = np.arange(npts // 2, npts) + 1.0
    alpha = -np.polyfit(np.log(idx), np.log(tail), 1)[0]
    summable = alpha * d > 1.0
    return {
        "partial_sums": sums,
        "alpha": float(alpha),
        "verdict": "summable" if summable else "divergent-trend",
        "reason": f"tail exponent {alpha:.3f}, threshold 1/d = {1.0 / d:.3f}",
    }


# -- Morita lifts and index pairings -------------------------------------


def _block_diag_exact(mat, m: int):
    """Id_m (x) mat for an exact square matrix."""
    zero = linalg.mat_zero(len(mat), len(mat), QQi(0))
    return linalg.mat_from_blocks([[mat if i == j else zero for j in range(m)]
                                   for i in range(m)])


def morita_lift(triple: SpectralTriple, p, m: int) -> SpectralTriple:
    """Compress the m-fold amplification of an exact triple by a projection.

    p must be an exact projection matrix of size m * dim(H).  For p = 1,
    m = 1 the original triple is returned unchanged.
    """
    if not (triple.exact and linalg.all_qqi(p)):
        raise ValueError("a Morita lift needs exact data")
    eye = linalg.mat_eye(m * triple._dim(), QQi(0), QQi(1))
    if m == 1 and linalg.mat_eq(p, eye):
        return triple
    if not linalg.mat_eq(linalg.mat_mul(p, p), p):
        raise ValueError("input is not idempotent")
    if not linalg.mat_eq(p, linalg.mat_conj_transpose(p)):
        raise ValueError("input is not Hermitian")
    d_m = _block_diag_exact(triple.d, m)
    d_e = linalg.mat_mul(p, linalg.mat_mul(d_m, p))
    g_e = None
    if triple.grading is not None:
        g_m = _block_diag_exact(triple.grading, m)
        # p is idempotent and commutes with g_m, so p g_m p = g_m p
        g_e = linalg.mat_mul(g_m, p)
        if not linalg.mat_eq(g_e, linalg.mat_mul(p, g_m)):
            raise ValueError("projection does not preserve the grading")
    return SpectralTriple(d_e, {}, g_e, subspace=p, model=triple.model, check=False)


def _stacked_nullity_exact(mats) -> int:
    rows = []
    for m in mats:
        rows.extend(list(r) for r in m)
    return linalg.qq_nullity(rows)


def kernel_index_exact(triple: SpectralTriple) -> int:
    """dim ker D_+ - dim ker D_- by exact rank computation.

    Works on compressed triples: membership in range(P) is one more
    linear condition, so no orthonormal basis of the subspace is needed.
    """
    if not triple.exact:
        raise ValueError("exact kernel counting needs exact data")
    if triple.grading is None:
        raise ValueError("index needs a grading")
    n = len(triple.d)
    eye = linalg.mat_eye(n, QQi(0), QQi(1))
    constraints = [triple.d]
    if triple.subspace is not None:
        constraints.append(linalg.mat_sub(eye, triple.subspace))
        gamma_plus = linalg.mat_sub(triple.grading, triple.subspace)
        gamma_minus = linalg.mat_add(triple.grading, triple.subspace)
    else:
        gamma_plus = linalg.mat_sub(triple.grading, eye)
        gamma_minus = linalg.mat_add(triple.grading, eye)
    return (_stacked_nullity_exact(constraints + [gamma_plus])
            - _stacked_nullity_exact(constraints + [gamma_minus]))


def pairing_functoriality_check(triple: SpectralTriple, p, m: int,
                                q_small, r: int) -> dict:
    """Commutation of the index pairing with a module change of algebra.

    The module E = p H^m carries the corner algebra; a projection q over
    that corner (here q_small (x) p) pairs with the lifted triple, and
    its image pairs with the original one.  Both indices are computed by
    exact kernel counting and must agree.
    """
    q_big = linalg.mat_kron(q_small, p)
    pushed_side = kernel_index_exact(morita_lift(triple, q_big, m * r))
    lifted = morita_lift(triple, p, m)
    lifted_side = kernel_index_exact(morita_lift(lifted, q_big, r))
    return {
        "pushforward_pairing": pushed_side,
        "lifted_pairing": lifted_side,
        "commutes": pushed_side == lifted_side,
    }


def inner_fluctuation(triple: SpectralTriple, pairs) -> SpectralTriple:
    """D' = D + sum a_i [D, b_i] for algebra pairs (a_i, b_i).

    The data must be exact.  The perturbation must come out self-adjoint
    for the result to be a triple; callers arrange symmetric combinations.
    """
    if not (triple.exact and all(linalg.all_qqi(x) for pair in pairs for x in pair)):
        raise ValueError("an inner fluctuation needs exact data")
    d = acc = triple.d
    for a, b in pairs:
        comm = linalg.mat_sub(linalg.mat_mul(d, b), linalg.mat_mul(b, d))
        acc = linalg.mat_add(acc, linalg.mat_mul(a, comm))
    return SpectralTriple(acc, triple.algebra, triple.grading, model=triple.model)


def spectra_equal(t1: SpectralTriple, t2: SpectralTriple) -> bool:
    v1, v2 = t1.eigenvalues(), t2.eigenvalues()
    if len(v1) != len(v2):
        return False
    return bool(np.max(np.abs(v1 - v2)) <= 1e-9)


# -- Fourier-truncated flat torus model ----------------------------------


class FourierTorusTriple:
    """(d - d*)(-1)^deg on the flat 2-torus, truncated at |k_i| <= n_max.

    Block diagonal over Fourier modes; each block acts on the four form
    components (1, dt1, dt2, dt1^dt2).  The grading is the constant
    signature-type involution; its contract is verified blockwise.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        ks = np.arange(-n_max, n_max + 1)
        # mode (k1, k2) is block (k1 + n_max) * (2 n_max + 1) + k2 + n_max
        k1, k2 = (k.ravel() for k in np.meshgrid(ks, ks, indexing="ij"))
        a = np.zeros((len(k1), 4, 4), dtype=complex)
        a[:, 1, 0] = 1j * k1
        a[:, 2, 0] = 1j * k2
        a[:, 3, 1] = -1j * k2
        a[:, 3, 2] = 1j * k1
        form_sign = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        self.blocks = (a - np.conj(np.transpose(a, (0, 2, 1)))) @ form_sign
        g = np.zeros((4, 4), dtype=complex)
        g[3, 0] = -1j
        g[0, 3] = 1j
        g[2, 1] = 1j
        g[1, 2] = -1j
        self.gamma = g

    def grading_report(self) -> dict:
        g = self.gamma
        sq = np.max(np.abs(g @ g - np.eye(4))) <= 1e-12
        sa = np.max(np.abs(g - g.conj().T)) <= 1e-12
        anti = float(np.max(np.abs(g @ self.blocks + self.blocks @ g))) <= 1e-12
        return {"square": sq, "selfadjoint": sa, "anticommutes_d": anti,
                "ok": sq and sa and anti}

    @functools.cached_property
    def _spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of every block and the grading weights <v, gamma v>
        of their eigenvectors: the same for every t, so computed once."""
        vals = np.linalg.eigvalsh(self.blocks)
        vecs = np.linalg.eigh(self.blocks)[1]
        w = np.real(
            np.einsum("mij,ik,mkj->mj", vecs.conj(), self.gamma, vecs)
        )
        return vals, w

    def mckean_singer(self, t: float) -> float:
        vals, w = self._spectrum
        return float(np.sum(w * np.exp(-t * vals ** 2)))

    def commutator_norm_shift(self, axis: int) -> float:
        """Norm of [D, z_axis] estimated blockwise away from the edge.

        The shift moves mode k to k + e_axis, so the commutator acts as
        D_{k+e} - D_k on each block.
        """
        side = 2 * self.n_max + 1
        grid = self.blocks.reshape(side, side, 4, 4)
        diff = np.diff(grid, axis=axis)
        norms = np.linalg.norm(diff.reshape(-1, 4, 4), 2, axis=(1, 2))
        return float(np.max(norms, initial=0.0))

    def dirac_eigenvalues(self) -> np.ndarray:
        return np.sort(self._spectrum[0].ravel())
