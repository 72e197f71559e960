"""Finite-nerve transition-cocycle machinery.

Unitary lifts of projective transition data live on the edges of a
nerve; the scalar defects of triple products give a phase 2-cochain mu,
a real logarithm branch nu in [0,1), and an integer 3-cochain delta
whose class in H^3 of the nerve obstructs global de-projectivization.

Certification is two-step: the multiplicative cocycle identity for mu
is checked exactly (Gaussian-rational backend), which forces the
coboundary of nu to be integer-valued; floating point then only has to
identify which integer, with a residual far below one half.

Transition data are exact when every edge entry is a Gaussian rational
(``linalg.all_qqi``); exactness is read off the entries, never declared.
``phase_cocycle`` also takes numeric (complex) data, checked to a
tolerance; ``TransitionData.rephased`` and ``normalize_determinant`` take
exact data only and raise ``ValueError`` on numeric data.

Integer simplicial cohomology is computed by Smith normal form with
deterministic pivoting, including explicit witness cochains for the
rank-n torsion relation n*[delta] = 0.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import intlinalg, linalg
from ._numpy import np
from .scalars import QQI_ONE, QQI_ZERO, QQi, _qqi

Simplex = Tuple[int, ...]


class NotProjectiveCocycle(ValueError):
    pass


class Nerve:
    """Abstract simplicial complex, face-closed, oriented by vertex order.

    A nerve is immutable, so everything that depends on it alone (sorted
    simplices, coboundary matrices, the H^3 presentation) is computed once
    per nerve and kept on it.
    """

    def __init__(self, simplices: Sequence[Sequence[int]]):
        closed = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not s:
                continue
            for mask in range(1, 1 << len(s)):
                face = tuple(v for i, v in enumerate(s) if mask >> i & 1)
                closed.add(face)
        self._simplices = frozenset(closed)
        self._vertices = tuple(sorted({v for s in closed for v in s}))
        self._cache: Dict[tuple, object] = {}

    @property
    def simplices(self) -> FrozenSet[Simplex]:
        return self._simplices

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    def _cached(self, key: tuple, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def k_simplices(self, k: int) -> Tuple[Simplex, ...]:
        return self._cached(("simplices", k), lambda: tuple(
            sorted(s for s in self._simplices if len(s) == k + 1)))

    def edge_set(self) -> FrozenSet[Simplex]:
        return self._cached(("edges",), lambda: frozenset(self.k_simplices(1)))

    def coboundary_matrix(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        """Matrix of the coboundary C^k -> C^{k+1} in sorted-simplex bases."""
        return self._cached(("coboundary", k), lambda: self._coboundary(k))

    def _coboundary(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        rows = self.k_simplices(k + 1)
        cols = {s: i for i, s in enumerate(self.k_simplices(k))}
        out = [[0] * len(cols) for _ in rows]
        for r, s in enumerate(rows):
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                out[r][cols[face]] += (-1) ** j
        return tuple(map(tuple, out))

    def h3_presentation(self) -> "H3Presentation":
        return self._cached(("h3",), lambda: H3Presentation(self))

    def __repr__(self):
        counts = {}
        for s in self._simplices:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return f"Nerve<{dict(sorted(counts.items()))}>"


class TransitionData:
    """Unitary matrices on nerve edges with inverse symmetry across flips.

    Exact data (every entry a QQi) are unitary exactly; numeric data
    (complex entries) are unitary to 1e-10.

    Transition data are immutable: ``edges`` is a read-only mapping of
    tuple matrices, so an edge verified at construction stays verified,
    and data derived from verified edges (``rephased``) can rely on it.
    """

    def __init__(self, nerve: Nerve, rank: int,
                 edges: Dict[Tuple[int, int], tuple]):
        self._nerve = nerve
        self._rank = rank
        checked = {}
        nerve_edges = nerve.edge_set()
        for (i, j), mat in edges.items():
            if i > j:
                i, j = j, i
                mat = self._inverse(mat)
            if (i, j) not in nerve_edges:
                raise ValueError(f"edge ({i},{j}) not in the nerve")
            if (i, j) in checked:
                raise ValueError(f"edge ({i},{j}) is given twice")
            checked[(i, j)] = linalg.mat_from_rows(mat)
        for s in nerve.k_simplices(1):
            if tuple(s) not in checked:
                raise ValueError(f"missing transition data on edge {s}")
        self._exact = all(map(linalg.all_qqi, checked.values()))
        for mat in checked.values():
            self._check_unitary(mat)
        self._edges = MappingProxyType(checked)

    @classmethod
    def _from_verified(cls, parent: "TransitionData",
                       edges: Dict[Tuple[int, int], tuple]) -> "TransitionData":
        """Exact data whose edges the caller derived from ``parent``'s.

        Each edge must equal a unit-modulus scalar times the parent's
        (exactly verified, immutable) edge on the same key, so
        (lam U)(lam U)* = |lam|^2 U U* = I holds without a second product.
        """
        out = cls.__new__(cls)
        out._nerve = parent._nerve
        out._rank = parent._rank
        out._exact = True
        out._edges = MappingProxyType(edges)
        return out

    @property
    def nerve(self) -> Nerve:
        return self._nerve

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def exact(self) -> bool:
        return self._exact

    @property
    def edges(self) -> Mapping[Tuple[int, int], tuple]:
        return self._edges

    def _check_unitary(self, mat):
        n = self.rank
        if linalg.mat_shape(mat) != (n, n):
            raise ValueError("transition matrix has wrong size")
        prod = linalg.mat_mul(mat, linalg.mat_conj_transpose(mat))
        if self.exact:
            if not linalg.mat_eq(prod, linalg.mat_eye(n, QQI_ZERO, QQI_ONE)):
                raise ValueError("transition matrix is not unitary")
        else:
            for i in range(n):
                for j in range(n):
                    want = 1.0 if i == j else 0.0
                    if abs(complex(prod[i][j]) - want) > 1e-10:
                        raise ValueError("transition matrix is not unitary")

    def _inverse(self, mat):
        return linalg.mat_conj_transpose(mat)

    def g(self, i: int, j: int):
        """Lift on the ordered edge (i, j); reversal inverts."""
        if i < j:
            return self._edges[(i, j)]
        return self._inverse(self._edges[(j, i)])

    def rephased(self, phases: Dict[Tuple[int, int], QQi]) -> "TransitionData":
        """Multiply each edge lift of exact data by a unit-modulus scalar.

        A phase keyed (j, i) acts on the edge (i, j) by its inverse; a key
        that is not an edge, an edge keyed in both orientations, or a phase
        that is not a ``QQi`` raises ``ValueError``.
        """
        if not self.exact:
            raise ValueError("rephasing needs exact data")
        given = {}
        for (i, j), lam in phases.items():
            edge = (i, j) if i < j else (j, i)
            if edge not in self._edges:
                raise ValueError(f"edge ({i},{j}) not in the nerve")
            if edge in given:
                raise ValueError(f"edge ({i},{j}) is given twice")
            if not isinstance(lam, QQi):
                raise ValueError(f"the phase of edge ({i},{j}) must be a QQi, "
                                 f"not {type(lam).__name__}")
            given[edge] = lam if i < j else lam.inverse()
        new_edges = {}
        for (i, j), mat in self._edges.items():
            lam = given.get((i, j), QQI_ONE)
            if lam.abs2() != 1:
                raise ValueError("rephasing must have unit modulus")
            new_edges[(i, j)] = linalg.mat_scale(lam, mat)
        return TransitionData._from_verified(self, new_edges)


class PhaseCocycle:
    """Derived cochains: mu on triangles, nu its log branch, delta = d nu."""

    def __init__(self, mu: Dict[Simplex, QQi], nu: Dict[Simplex, float],
                 delta: Dict[Simplex, int], nerve: Nerve,
                 residual: float):
        self.mu = mu
        self.nu = nu
        self.delta = delta
        self.nerve = nerve
        self.residual = residual

    def delta_vector(self) -> List[int]:
        return [self.delta[s] for s in self.nerve.k_simplices(3)]


def _scalar_of(mat, rank: int) -> complex:
    """Extract lambda when mat = lambda * Id to 1e-9, else raise."""
    lam = mat[0][0]
    for i in range(rank):
        for j in range(rank):
            want = lam if i == j else 0.0
            if abs(complex(mat[i][j]) - complex(want)) > 1e-9:
                raise NotProjectiveCocycle(
                    "transition data is not a projective cocycle"
                )
    return lam


def _exact_ratio(p, g) -> QQi:
    """lambda with p = lambda * g exactly, for QQi matrices and g != 0.

    lambda is read at the first nonzero entry of g; every other entry is
    compared by cross-multiplying Gaussian integers, so no QQi is built
    per entry.
    """
    r, c = next((r, c) for r, row in enumerate(g)
                for c, x in enumerate(row) if x.a or x.b)
    pv, gv = p[r][c], g[r][c]
    pa, pb, pd = pv.a, pv.b, pv.d
    ga, gb, gd = gv.a, gv.b, gv.d
    for prow, grow in zip(p, g):
        for x, y in zip(prow, grow):
            # x = (pv / gv) y  <=>  x gv = pv y, with denominators cleared
            lhs_d = pd * y.d
            rhs_d = x.d * gd
            if ((x.a * ga - x.b * gb) * lhs_d != (pa * y.a - pb * y.b) * rhs_d
                    or (x.a * gb + x.b * ga) * lhs_d != (pa * y.b + pb * y.a) * rhs_d):
                raise NotProjectiveCocycle(
                    "transition data is not a projective cocycle"
                )
    # pv / gv = (pa + i pb) gd (ga - i gb) / (pd |ga + i gb|^2), reduced once
    return _qqi((pa * ga + pb * gb) * gd, (pb * ga - pa * gb) * gd,
                pd * (ga * ga + gb * gb))


def phase_cocycle(data: TransitionData) -> PhaseCocycle:
    """Scalar check and derived cochains mu, nu, delta.

    mu lives on sorted triangles; its multiplicative coboundary is
    verified to be 1; nu uses the principal branch in [0,1); the integer
    certification of delta reports the worst rounding residual.

    Exact data take one product per triangle i < j < k: g(i,k) is exactly
    unitary (checked at construction), so g(i,j) g(j,k) g(k,i) = lambda I
    holds exactly when g(i,j) g(j,k) = lambda g(i,k).
    """
    nerve = data.nerve
    edges = data.edges
    mu: Dict[Simplex, QQi] = {}
    nu: Dict[Simplex, float] = {}
    for tri in nerve.k_simplices(2):
        i, j, k = tri
        if data.exact:
            lam = _exact_ratio(linalg.mat_mul(edges[(i, j)], edges[(j, k)]),
                               edges[(i, k)])
            if lam.abs2() != 1:
                raise NotProjectiveCocycle("triple-product scalar is not unit modulus")
        else:
            prod = linalg.mat_mul(data.g(i, j),
                                  linalg.mat_mul(data.g(j, k), data.g(k, i)))
            lam = _scalar_of(prod, data.rank)
        mu[tri] = lam
        angle = cmath.phase(complex(lam)) / (2 * cmath.pi)
        if angle < 0:
            angle += 1.0
        if angle >= 1.0:
            angle -= 1.0
        nu[tri] = angle
    # multiplicative cocycle identity for mu on every tetrahedron
    worst = 0.0
    delta: Dict[Simplex, int] = {}
    for tet in nerve.k_simplices(3):
        prod_exact = QQI_ONE
        prod_num = 1 + 0j
        val = 0.0
        for j in range(4):
            face = tet[:j] + tet[j + 1:]
            if data.exact:
                f = mu[face]
                prod_exact = prod_exact * (f if j % 2 == 0 else f.inverse())
            else:
                f = complex(mu[face])
                prod_num = prod_num * (f if j % 2 == 0 else 1 / f)
            val += nu[face] if j % 2 == 0 else -nu[face]
        if data.exact:
            if prod_exact != QQI_ONE:
                raise NotProjectiveCocycle("mu fails the cocycle identity")
        else:
            if abs(prod_num - 1) > 1e-9:
                raise NotProjectiveCocycle("mu fails the cocycle identity")
        rounded = round(val)
        worst = max(worst, abs(val - rounded))
        delta[tet] = int(rounded)
    if worst > 1e-6:
        raise NotProjectiveCocycle(
            f"integer certification residual too large: {worst}"
        )
    # closedness of delta
    d3 = data.nerve.coboundary_matrix(3)
    cols = data.nerve.k_simplices(3)
    vec = [delta[s] for s in cols]
    for row in d3:
        if sum(a * b for a, b in zip(row, vec)):
            raise NotProjectiveCocycle("delta is not closed")
    return PhaseCocycle(mu, nu, delta, nerve, worst)


class ClassDescriptor:
    """H^3 class in invariant-factor coordinates.

    ``invariants`` lists the torsion orders (> 1) followed by one 0 per
    free factor; ``coordinates`` are the matching reduced coordinates.
    """

    def __init__(self, invariants: List[int], coordinates: List[int]):
        self.invariants = invariants
        self.coordinates = coordinates

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)

    def __eq__(self, other):
        return (
            isinstance(other, ClassDescriptor)
            and self.invariants == other.invariants
            and self.coordinates == other.coordinates
        )

    def __repr__(self):
        return f"ClassDescriptor<inv={self.invariants}, coords={self.coordinates}>"


class H3Presentation:
    """H^3(nerve; Z) presented once per nerve for repeated class lookups.

    The cocycle lattice ker d^3 has the basis columns of ``k_mat``, whose
    Smith form ``k_snf`` solves for kernel coordinates; the Smith form of
    the relation matrix (the coboundaries d^2 e_j in those coordinates)
    gives the transform ``u`` and the invariant factors ``diag``.
    """

    def __init__(self, nerve: Nerve):
        d3 = nerve.coboundary_matrix(3)
        n3 = len(nerve.k_simplices(3))
        kernel = intlinalg.integer_kernel_basis(d3) if d3 else [
            [1 if i == j else 0 for i in range(n3)] for j in range(n3)
        ]
        r = len(kernel)
        k_mat = [[kernel[b][i] for b in range(r)] for i in range(n3)]
        k_snf = intlinalg.smith_normal_form(k_mat) if k_mat else None
        d2 = nerve.coboundary_matrix(2)
        n2 = len(nerve.k_simplices(2))
        gens = []
        for j in range(n2):
            col = [d2[i][j] for i in range(n3)]
            yj = intlinalg.solve_integer(k_mat, col, k_snf)
            if yj is None:
                raise ValueError("coboundary image escaped the cocycle lattice")
            gens.append(yj)
        m_mat = [[gens[j][i] for j in range(n2)] for i in range(r)]
        u, s, _ = intlinalg.smith_normal_form(m_mat) if n2 else (
            intlinalg._identity(r), [[0] * 0 for _ in range(r)], [],
        )
        self.rank = r
        self.k_mat = k_mat
        self.k_snf = k_snf
        self.u = u
        self.diag = intlinalg.snf_diagonal(s) if n2 else []


def h3_class(delta_vec: Sequence[int], nerve: Nerve) -> ClassDescriptor:
    """Class of an integer 3-cocycle in H^3(nerve; Z) via Smith normal form."""
    d3 = nerve.coboundary_matrix(3)
    n3 = len(nerve.k_simplices(3))
    for x in delta_vec:
        if int(x) != x:
            raise ValueError(f"3-cochain entry {x!r} is not an integer")
    delta_vec = list(map(int, delta_vec))
    if len(delta_vec) != n3:
        raise ValueError("cochain length does not match the 3-skeleton")
    for row in d3:
        if sum(a * b for a, b in zip(row, delta_vec)):
            raise ValueError("input 3-cochain is not a cocycle")
    pres = nerve.h3_presentation()
    y = intlinalg.solve_integer(pres.k_mat, delta_vec, pres.k_snf)
    if y is None:
        raise ValueError("cocycle failed to express in the kernel lattice")
    r, u, diag = pres.rank, pres.u, pres.diag
    z = [sum(u[i][k] * y[k] for k in range(r)) for i in range(r)]
    invariants = []
    coordinates = []
    for i in range(r):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        invariants.append(d)
        coordinates.append(z[i] % d if d else z[i])
    return ClassDescriptor(invariants, coordinates)


def torsion_witness(cocycle: PhaseCocycle, n: int) -> Optional[List[int]]:
    """Integer 2-cochain w with coboundary(w) = n * delta, when one exists."""
    nerve = cocycle.nerve
    d2 = nerve.coboundary_matrix(2)
    target = [n * v for v in cocycle.delta_vector()]
    if not d2:
        return [0] * len(nerve.k_simplices(2)) if not any(target) else None
    return intlinalg.solve_integer(d2, target)


def is_torsion_witness(cocycle: PhaseCocycle, w: Optional[List[int]],
                       n: int) -> bool:
    """Whether w is a 2-cochain with coboundary(w) = n * delta exactly."""
    if w is None:
        return False
    d2 = cocycle.nerve.coboundary_matrix(2)
    image = [sum(r * x for r, x in zip(row, w)) for row in d2]
    return image == [n * v for v in cocycle.delta_vector()]


def _det_exact(mat) -> QQi:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = QQi(0)
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in mat[1:])
        term = mat[0][j] * _det_exact(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


_SNAP_DENOMS = tuple(range(1, 66))


def _snap_unit(z: complex) -> Optional[QQi]:
    """Try to express a unit-modulus complex as an exact Gaussian rational."""
    for d in _SNAP_DENOMS:
        a = round(z.real * d)
        b = round(z.imag * d)
        if abs(z.real - a / d) < 1e-9 and abs(z.imag - b / d) < 1e-9:
            cand = QQi(Fraction(a, d), Fraction(b, d))
            if cand.abs2() == 1:
                return cand
    return None


def normalize_determinant(data: TransitionData) -> TransitionData:
    """Rescale each edge lift of exact data to unit determinant.

    After this lift the triangle scalars take values in rank-th roots of
    unity, which makes the torsion of the class manifest.  When every
    root snaps to an exact Gaussian rational the result is exact;
    otherwise all its edges are numeric.
    """
    if not data.exact:
        raise ValueError("determinant normalization needs exact data")
    n = data.rank
    new_edges = {}
    all_exact = True
    for (i, j), mat in data.edges.items():
        det = _det_exact(mat)
        root_num = complex(det) ** (1.0 / n)
        root = _snap_unit(root_num)
        if root is not None and root ** n == det:
            new_edges[(i, j)] = linalg.mat_scale(root.inverse(), mat)
            continue
        all_exact = False
        new_edges[(i, j)] = tuple(
            tuple(np.complex128(complex(x) / root_num) for x in row)
            for row in mat
        )
    if not all_exact:
        new_edges = {
            e: tuple(tuple(np.complex128(complex(x)) for x in row) for row in m)
            for e, m in new_edges.items()
        }
    return TransitionData(data.nerve, n, new_edges)


# -- built-in scenarios ------------------------------------------------


def pauli_triangle() -> TransitionData:
    """One triangle with the three Pauli matrices as edge lifts."""
    sx = linalg.mat_from_rows([[QQi(0), QQi(1)], [QQi(1), QQi(0)]])
    sy = linalg.mat_from_rows([[QQi(0), QQi(0, -1)], [QQi(0, 1), QQi(0)]])
    sz = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(-1)]])
    nerve = Nerve([(0, 1, 2)])
    # g(2,0) = sz means g(0,2) = sz^{-1} = sz
    return TransitionData(nerve, 2, {(0, 1): sx, (1, 2): sy, (0, 2): sz})


def boundary_of_4_simplex() -> Nerve:
    """The 3-sphere triangulation: all proper faces of the 4-simplex."""
    import itertools

    faces = list(itertools.combinations(range(5), 4))
    return Nerve(faces)
