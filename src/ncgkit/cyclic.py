"""Reduced Hochschild/cyclic chains over a matrix-form algebra.

A chain of degree k is a formal linear combination of elementary tensors
(a_0, ..., a_k) of degree-0 matrix forms.  Slots i >= 1 live in the
algebra modulo constant scalars: any tensor whose interior slot equals a
constant multiple of the identity is annihilated at canonicalization
time, which realizes the normalized (reduced) complex.

The boundary b, the normalized cyclic suspension B, Chern-character
cycles of projections, and the module pushforward of chains all operate
term by term and merge like terms exactly on exact forms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .forms import ExactForm, MatrixForm
from .scalars import QQI_ZERO, QQi


class Chain:
    """Formal linear combination of elementary tensors of algebra elements."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Sequence[Tuple[QQi, Tuple[MatrixForm, ...]]] = ()):
        self.degree = degree
        exact = True
        raw = []
        for coef, tensor in terms:
            coef = QQi.coerce(coef)
            tensor = tuple(tensor)
            if len(tensor) != degree + 1:
                raise ValueError("tensor arity does not match chain degree")
            for a in tensor:
                if a.degrees() not in ([], [0]):
                    raise ValueError("chain entries must be degree-0 forms")
                exact = exact and isinstance(a, ExactForm)
            if coef.is_zero():
                continue
            if any(a.is_zero() for a in tensor):
                continue
            # reduced normalization: interior scalar slots annihilate
            if any(a.is_scalar_multiple_of_identity() for a in tensor[1:]):
                continue
            raw.append((coef, tensor))
        if exact:  # like tensors merge, in the order of their first term
            merged = {}
            for coef, tensor in raw:
                merged[tensor] = merged[tensor] + coef if tensor in merged else coef
            raw = [(c, t) for t, c in merged.items() if not c.is_zero()]
        self.terms = tuple(raw)

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise ValueError("cannot add chains of different degree")
        return Chain(self.degree, list(self.terms) + list(other.terms))

    def __neg__(self) -> "Chain":
        return Chain(self.degree, [(-c, t) for c, t in self.terms])

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return f"Chain<deg={self.degree}, terms={len(self.terms)}>"


def hochschild_b(ch: Chain) -> Chain:
    """Boundary b: alternating contraction of neighbors, wrap-around last."""
    k = ch.degree
    if k < 1:
        return Chain(max(k - 1, 0), [])
    out = []
    for coef, t in ch.terms:
        for i in range(k):
            sign = -1 if i % 2 else 1
            merged = t[:i] + (t[i] * t[i + 1],) + t[i + 2:]
            out.append((coef * sign, merged))
        sign = -1 if k % 2 else 1
        out.append((coef * sign, (t[k] * t[0],) + t[1:k]))
    return Chain(k - 1, out)


def connes_B(ch: Chain) -> Chain:
    """Normalized cyclic suspension B on the reduced complex."""
    k = ch.degree
    out = []
    for coef, t in ch.terms:
        probe = t[0]
        one = probe.identity_like(probe.m)
        for i in range(k + 1):
            sign = -1 if (k * i) % 2 else 1
            rotated = t[i:] + t[:i]
            out.append((coef * sign, (one,) + rotated))
    return Chain(k + 1, out)


def cyclic_permute(ch: Chain) -> Chain:
    """Signed cyclic rotation lambda(a_0,...,a_k) = (-1)^k (a_k, a_0, ...)."""
    k = ch.degree
    sign = QQi(-1 if k % 2 else 1)
    return Chain(k, [(c * sign, (t[-1],) + t[:-1]) for c, t in ch.terms])


def _form_coordinates(a: MatrixForm) -> dict:
    """Finite QQi-coordinate vector of an exact degree-0 form."""
    out = {}
    for idx, mat in a.comps.items():
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                for mono, c in entry.coeffs.items():
                    out[(idx, i, j, mono)] = c
    return out


def tensor_is_zero(ch: Chain) -> bool:
    """Zero test in the reduced tensor product.

    The free-module representation of chains does not merge tensors that
    agree only after expanding slots linearly; this test expands every
    slot over an exact basis of the values appearing at that position:
    the reduced echelon rows of their coordinate vectors, in which a
    vector's coordinates are its entries in the pivot columns.
    Interior slots (position >= 1) are expanded modulo the constant
    identity, matching the normalized complex.
    """
    if not ch.terms:
        return True
    k = ch.degree
    probe = ch.terms[0][1][0]
    id_vec = _form_coordinates(probe.identity_like(probe.m))
    p0 = min(id_vec)  # id_vec[p0] == 1
    coords = []
    for pos in range(k + 1):
        vecs = [_form_coordinates(t[pos]) for _, t in ch.terms]
        if pos >= 1:
            # v - v[p0] id kills exactly the identity direction (quotient)
            for v in vecs:
                c = v.get(p0)
                if c is not None:
                    for key, x in id_vec.items():
                        v[key] = v.get(key, QQI_ZERO) - c * x
        keys = sorted(set().union(*vecs))
        dense = [[v.get(key, QQI_ZERO) for key in keys] for v in vecs]
        _, pivots = linalg.qq_echelon(dense)
        coords.append([[row[p] for p in pivots] for row in dense])
    cells: dict = {}
    for ti, (coef, _) in enumerate(ch.terms):
        # distribute the multilinear expansion over basis cells
        stack = [((), coef)]
        for pos in range(k + 1):
            stack = [
                (cell + (bi,), c * x)
                for cell, c in stack
                for bi, x in enumerate(coords[pos][ti])
                if not x.is_zero()
            ]
        for cell, c in stack:
            s = cells.get(cell, QQI_ZERO) + c
            if s.is_zero():
                cells.pop(cell, None)
            else:
                cells[cell] = s
    return not cells


class Projection:
    """Hermitian idempotent matrix over the degree-0 algebra.

    ``form`` is the full (blocks*base_m) x (blocks*base_m) matrix form;
    ``blocks`` is the auxiliary matrix factor traced out by the partial
    trace, ``base_m`` the size of the underlying algebra.
    """

    def __init__(self, form: MatrixForm, blocks: int, base_m: int,
                 check: bool = True):
        if form.m != blocks * base_m:
            raise ValueError("projection size does not factor as blocks*base_m")
        if form.degrees() not in ([], [0]):
            raise ValueError("projection must be a degree-0 form")
        if check:
            if not (form * form - form).vanishes(1e-12):
                raise ValueError("matrix is not idempotent")
            if not (form - form.conj_transpose()).vanishes(1e-12):
                raise ValueError("matrix is not Hermitian")
        self.form = form
        self.blocks = blocks
        self.base_m = base_m

    def block(self, i: int, j: int) -> MatrixForm:
        return self.form.block(i, j, self.base_m)


def _partial_trace_tensor(blocks_entries, s: int, scale: QQi) -> List[Tuple[QQi, tuple]]:
    """All index cycles (i0 i1, i1 i2, ..., ik i0) of a block matrix power."""
    k = len(blocks_entries) - 1
    out = []
    for idx in itertools.product(range(s), repeat=k + 1):
        tensor = tuple(
            blocks_entries[t][idx[t]][idx[(t + 1) % (k + 1)]]
            for t in range(k + 1)
        )
        out.append((scale, tensor))
    return out


def chern_cyclic(p: Projection, m: int) -> Chain:
    """Cyclic Chern cycle of degree 2m: (-1)^m (2m)!/m! tr(p tensor 2m+1).

    tr is the partial trace over the auxiliary block factor, producing a
    chain over the base algebra.
    """
    coef = QQi(Fraction((-1) ** m * factorial(2 * m), factorial(m)))
    s = p.blocks
    # every slot takes the same block forms, so each is built and
    # slot-tested once
    blocks = [[p.block(i, j) for j in range(s)] for i in range(s)]
    return Chain(2 * m, _partial_trace_tensor([blocks] * (2 * m + 1), s, coef))


def chern_bB(p: Projection, m: int) -> Chain:
    """Normalized mixed-complex cycle: first slot carries p - 1/2."""
    coef = QQi(Fraction((-1) ** m * factorial(2 * m), factorial(m)))
    s = p.blocks
    half_id = p.form.identity_like(p.base_m).scale(Fraction(1, 2))
    rest = [[p.block(i, j) for j in range(s)] for i in range(s)]
    first = [[b - half_id if i == j else b for j, b in enumerate(row)]
             for i, row in enumerate(rest)]
    return Chain(2 * m, _partial_trace_tensor([first] + [rest] * (2 * m), s, coef))


class BlockMap:
    """Algebra morphism alpha: B -> p M_s(A) p given by a matrix of images.

    ``apply`` sends a source element to an (s*target_m) matrix form.  The
    unit must land on the corner projection p.
    """

    def __init__(self, apply: Callable[[MatrixForm], MatrixForm], s: int,
                 target_m: int, unit_source: MatrixForm,
                 corner: MatrixForm):
        self.apply = apply
        self.s = s
        self.target_m = target_m
        if not (apply(unit_source) - corner).vanishes(1e-10):
            raise ValueError("morphism is not unital onto the corner projection")
        self.corner = corner

    @staticmethod
    def corner_embedding(s: int, slot: int, unit_source: MatrixForm) -> "BlockMap":
        """b -> diag(0, ..., b, ..., 0) with the unit in one slot."""
        chart = unit_source.chart
        mb = unit_source.m

        def apply(b: MatrixForm) -> MatrixForm:
            zero = b.zero_like(mb)
            rows = [
                [b if (i == slot and j == slot) else zero for j in range(s)]
                for i in range(s)
            ]
            return MatrixForm.from_blocks(rows)

        return BlockMap(apply, s, mb, unit_source, apply(unit_source))

    def conjugate(self, u) -> "BlockMap":
        """Compose with conjugation by a constant exact unitary u (s*m)."""
        u_form = self._unitary_form(u)
        u_inv = u_form.conj_transpose()
        inner = self.apply

        def apply(b: MatrixForm) -> MatrixForm:
            return u_form * inner(b) * u_inv

        new = object.__new__(BlockMap)
        new.apply = apply
        new.s = self.s
        new.target_m = self.target_m
        new.corner = u_form * self.corner * u_inv
        return new

    def _unitary_form(self, u) -> MatrixForm:
        return self.corner.const_like(u)


def pushforward_chain(alpha: BlockMap, ch: Chain) -> Chain:
    """Image chain sum over index cycles of the block entries."""
    out = []
    s = alpha.s
    for coef, t in ch.terms:
        images = [alpha.apply(a) for a in t]
        blocks = [
            [[img.block(i, j, alpha.target_m) for j in range(s)] for i in range(s)]
            for img in images
        ]
        out.extend(_partial_trace_tensor(blocks, s, coef))
    return Chain(ch.degree, out)


def find_boundary_witness(target: Chain,
                          candidates: Sequence[Tuple[MatrixForm, ...]]) -> Optional[Chain]:
    """Search an exact chain w supported on ``candidates`` with b(w) = target.

    Solves the linear system over the Gaussian rationals spanned by the
    boundaries of the candidate tensors; returns the witness chain or
    None when the target is not a combination of those boundaries.
    """
    if not candidates:
        return None if not target.is_zero() else Chain(target.degree + 1, [])
    cand_chains = [Chain(target.degree + 1, [(QQi(1), tuple(t))]) for t in candidates]
    boundaries = [hochschild_b(c) for c in cand_chains]
    # row of each tensor, keyed by the tensor: exact forms compare and hash
    # canonically
    index: dict = {}
    for b in boundaries + [target]:
        for _, tensor in b.terms:
            index.setdefault(tensor, len(index))
    a_mat = [[QQi(0)] * len(boundaries) for _ in range(len(index))]
    for cidx, b in enumerate(boundaries):
        for coef, tensor in b.terms:
            a_mat[index[tensor]][cidx] = coef
    rhs = [QQi(0)] * len(index)
    for coef, tensor in target.terms:
        rhs[index[tensor]] = coef
    x = linalg.qq_solve(a_mat, rhs)
    if x is None:
        return None
    return Chain(
        target.degree + 1,
        [(xi, tuple(t)) for xi, t in zip(x, candidates)],
    )
