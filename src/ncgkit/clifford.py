"""Complex Clifford algebra arithmetic with exact scalars.

Generators satisfy e_i e_j + e_j e_i = -2 delta_ij, so every generator
squares to -1.  Elements are blade-indexed coefficient tables over the
Gaussian rationals; a numeric (complex) variant is obtained by calling
``to_numpy`` on the derived matrices.

The module also houses the spinor representation (recursive gamma-matrix
construction), the chirality element, the normalized trace, and the left
and right Clifford actions on the exterior algebra fiber, which are the
Clifford products a v and v a under the symbol identification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from ._numpy import np
from .scalars import QQI_I, QQI_ONE, QQI_ZERO, QQi

Blade = Tuple[int, ...]  # strictly increasing generator indices, 1-based


class DimensionMismatch(ValueError):
    pass


def blade_mul(a: Blade, b: Blade) -> Tuple[Blade, int]:
    """Product of two basis blades: resulting blade and sign.

    Sign collects anticommutation inversions and one factor -1 per common
    generator (e_i^2 = -1).
    """
    inv = 0
    for i in a:
        for j in b:
            if i > j:
                inv += 1
    common = set(a) & set(b)
    sign = -1 if (inv + len(common)) % 2 else 1
    out = tuple(sorted(set(a) ^ set(b)))
    return out, sign


class CliffordElement:
    """Element of Cl_n as a map from canonical blades to exact scalars."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Dict[Blade, QQi] = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n
        clean: Dict[Blade, QQi] = {}
        if coeffs:
            for blade, c in coeffs.items():
                blade = tuple(blade)
                if any(not (1 <= i <= n) for i in blade):
                    raise ValueError(f"blade {blade} outside 1..{n}")
                if tuple(sorted(set(blade))) != blade:
                    raise ValueError(f"blade {blade} is not canonical")
                c = QQi.coerce(c)
                if not c.is_zero():
                    clean[blade] = c
        self.coeffs = clean

    @staticmethod
    def scalar(n: int, c) -> "CliffordElement":
        return CliffordElement(n, {(): QQi.coerce(c)})

    @staticmethod
    def blade(n: int, blade: Blade, c=1) -> "CliffordElement":
        return CliffordElement(n, {tuple(blade): QQi.coerce(c)})

    def _check(self, other: "CliffordElement"):
        if self.n != other.n:
            raise DimensionMismatch(
                f"Clifford dimensions differ: {self.n} vs {other.n}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = CliffordElement.scalar(self.n, other)
        self._check(other)
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            s = out.get(b, QQI_ZERO) + c
            if s.is_zero():
                out.pop(b, None)
            else:
                out[b] = s
        return CliffordElement(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement(self.n, {b: -c for b, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = CliffordElement.scalar(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            c = QQi.coerce(other)
            return CliffordElement(
                self.n, {b: x * c for b, x in self.coeffs.items()}
            )
        self._check(other)
        out: Dict[Blade, QQi] = {}
        for b1, c1 in self.coeffs.items():
            for b2, c2 in other.coeffs.items():
                blade, sign = blade_mul(b1, b2)
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = out.get(blade, QQI_ZERO) + c
                if s.is_zero():
                    out.pop(blade, None)
                else:
                    out[blade] = s
        return CliffordElement(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = CliffordElement.scalar(self.n, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        # a scalar element hashes as the scalar it equals
        if self.coeffs.keys() <= {()}:
            return hash(self.coeffs.get((), QQI_ZERO))
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> List[int]:
        return sorted({len(b) for b in self.coeffs})

    def __repr__(self):
        if not self.coeffs:
            return "Cl<0>"
        parts = []
        for b, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "1" if not b else "e" + "".join(str(i) for i in b)
            parts.append(f"({c}){name}")
        return "Cl<" + " + ".join(parts) + ">"


def chirality(n: int) -> CliffordElement:
    """Volume element scaled so that its Clifford square is +1."""
    power = (n + 1) // 2
    return CliffordElement.blade(n, tuple(range(1, n + 1)), QQI_I ** power)


def clifford_trace(a: CliffordElement) -> QQi:
    """Normalized trace: 2^(n//2) times the empty-blade coefficient.

    For even n this equals the matrix trace of the spinor representation;
    the blade formula is used so that odd n stays basis-independent.
    """
    dim = 2 ** (a.n // 2)
    return a.coeffs.get((), QQI_ZERO) * dim


# -- spinor representation --------------------------------------------

_SIGMA_X = linalg.mat_from_rows([[QQI_ZERO, QQI_ONE], [QQI_ONE, QQI_ZERO]])
_SIGMA_Y = linalg.mat_from_rows([[QQI_ZERO, -QQI_I], [QQI_I, QQI_ZERO]])
_SIGMA_Z = linalg.mat_from_rows([[QQI_ONE, QQI_ZERO], [QQI_ZERO, -QQI_ONE]])


def _gamma_matrices(n: int):
    """Anti-Hermitian gamma matrices of size 2^(n//2), built recursively.

    Even step: append i*sigma_x and i*sigma_y on a new tensor factor and
    pad the old generators with sigma_z.  Odd step: the extra generator is
    i times the chirality matrix of the even predecessor.
    """
    if n == 1:
        return [linalg.mat_from_rows([[QQI_I]])]
    if n == 2:
        return [linalg.mat_scale(QQI_I, _SIGMA_X), linalg.mat_scale(QQI_I, _SIGMA_Y)]
    if n % 2 == 1:
        prev = SpinorRep(n - 1)
        return prev.matrices + [linalg.mat_scale(QQI_I, prev.chirality_matrix())]
    prev = _gamma_matrices(n - 2)
    eye2 = linalg.mat_eye(len(prev[0]), QQI_ZERO, QQI_ONE)
    out = [linalg.mat_kron(g, _SIGMA_Z) for g in prev]
    out.append(linalg.mat_kron(eye2, linalg.mat_scale(QQI_I, _SIGMA_X)))
    out.append(linalg.mat_kron(eye2, linalg.mat_scale(QQI_I, _SIGMA_Y)))
    return out


class SpinorRep:
    """The representation c: Cl_n -> End(S_n), S_n of dimension 2^(n//2).

    c is an algebra homomorphism on all of Cl_n; it is faithful on Cl_n
    for even n and on the even part for odd n.
    """

    def __init__(self, n: int):
        self.n = n
        self.matrices = _gamma_matrices(n)
        self.dim = len(self.matrices[0])

    def of_blade(self, blade: Blade):
        m = linalg.mat_eye(self.dim, QQI_ZERO, QQI_ONE)
        for i in blade:
            m = linalg.mat_mul(m, self.matrices[i - 1])
        return m

    def of(self, a: CliffordElement):
        if a.n != self.n:
            raise DimensionMismatch("element dimension does not match representation")
        out = linalg.mat_zero(self.dim, self.dim, QQI_ZERO)
        for blade, c in a.coeffs.items():
            out = linalg.mat_add(out, linalg.mat_scale(c, self.of_blade(blade)))
        return out

    def chirality_matrix(self):
        return self.of(chirality(self.n))


# -- left/right Clifford actions on the exterior algebra ----------------


def fiber_basis(n: int) -> List[Blade]:
    """Blades of the exterior fiber in bitmask order (fixed convention)."""
    out = []
    for mask in range(1 << n):
        out.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    return out


def left_action(a: CliffordElement, v: CliffordElement) -> CliffordElement:
    """Left Clifford action of a on the exterior fiber v: the product a v.

    On a generator it is wedge minus contraction by e_i under the symbol
    identification of the fiber with Cl_n.
    """
    if a.n != v.n:
        raise DimensionMismatch("dimension mismatch between element and fiber")
    return a * v


def right_action(a: CliffordElement, v: CliffordElement) -> CliffordElement:
    """Right Clifford action of a on the exterior fiber v: the product v a.

    On a generator it is (-1)^deg times wedge plus contraction by e_i.  As
    a right-module action, acting by a b is acting by a, then by b.
    """
    if a.n != v.n:
        raise DimensionMismatch("dimension mismatch between element and fiber")
    return v * a


def _action_matrix(n: int, apply_gen) -> list:
    basis = fiber_basis(n)
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    cols = []
    for b in basis:
        v = apply_gen(CliffordElement.blade(n, b))
        col = [QQI_ZERO] * dim
        for blade, c in v.coeffs.items():
            col[index[blade]] = c
        cols.append(col)
    return linalg.mat_from_rows(
        [[cols[j][i] for j in range(dim)] for i in range(dim)]
    )


def left_matrix(n: int, i: int):
    """Matrix of c_L(e_i) on the fiber, bitmask basis order."""
    e = CliffordElement.blade(n, (i,))
    return _action_matrix(n, lambda v: e * v)


def right_matrix(n: int, i: int):
    """Matrix of c_R(e_i) on the fiber, bitmask basis order."""
    e = CliffordElement.blade(n, (i,))
    return _action_matrix(n, lambda v: v * e)


def degree_sign_matrix(n: int):
    """Matrix of (-1)^deg on the fiber."""
    basis = fiber_basis(n)
    return linalg.mat_from_rows(
        [
            [
                (QQI_ONE if len(basis[i]) % 2 == 0 else -QQI_ONE)
                if i == j
                else QQI_ZERO
                for j in range(len(basis))
            ]
            for i in range(len(basis))
        ]
    )


def to_numpy(m) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in m], dtype=complex)
