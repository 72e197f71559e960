"""Graded algebra of matrix-valued differential forms on a chart.

A ``MatrixForm`` stores, for each sorted coordinate index tuple I, an
m x m matrix of scalar coefficients.  Its kind is its type: an
``ExactForm`` has exact ``PolyScalar`` entries, a ``JetForm`` sampled
``JetScalar`` entries, and only this module tells them apart.  The product
carries the Koszul sign on form indices only; matrices multiply without
extra signs.

On top of that sit gauge connections: theta is a matrix 1-form, the
curvature is omega = d theta + theta^theta, and the traceless lift
sigma = omega - (tr omega / m) Id.  The covariant derivative acts as the
graded commutator nabla a = da + theta^a - (-1)^|a| a^theta, which is
the unique graded-derivation extension compatible with tr o nabla =
d o tr.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, isnan, lcm as _lcm, nan
from typing import Dict, List, Optional, Tuple

from . import linalg
from ._numpy import np
from .scalars import (
    Chart,
    JetScalar,
    PolyScalar,
    QQI_ONE,
    QQi,
    content,
    linear_sum,
    packed_diff,
    packed_matrices,
    sum_of_products,
)

IdxTuple = Tuple[int, ...]
QQI_MINUS_ONE = QQi(-1)


class ShapeMismatch(ValueError):
    pass


def merge_sign(i_tuple: IdxTuple, j_tuple: IdxTuple) -> int:
    inv = 0
    for i in i_tuple:
        for j in j_tuple:
            if i > j:
                inv += 1
    return -1 if inv % 2 else 1


def _jet_factors(vectors):
    """(positions of the nonzero entries, whether every entry has gradients)
    for each row or column of jets."""
    return [([k for k, x in enumerate(v) if not x.is_zero()],
             all(x.grads is not None for x in v)) for v in vectors]


def _jet_entry(row, terms, col, col_terms, keep_grads: bool, zeros):
    """Entry sum_k row[k] col[k] of a jet matrix product over the k of
    ``terms`` (in order) that are in ``col_terms``: the products with a zero
    factor left out.  It has gradients only when ``keep_grads``, and with no
    term it is ``zeros[keep_grads]``, of the pair (gradient-free zero, zero)."""
    acc = None
    for k in terms:
        if k in col_terms:
            p = row[k] * col[k]
            acc = p if acc is None else acc + p
    if acc is None:
        return zeros[keep_grads]
    if not keep_grads and acc.grads is not None:
        return JetScalar(acc.chart, acc.values, None)
    return acc


def _jet_zeros(chart: Chart, n: int):
    return JetScalar.zero(chart, n, grads=False), JetScalar.zero(chart, n)


def _jet_mat_mul(a, b, chart: Chart):
    """``linalg.mat_mul`` for jet matrices, skipping products with a zero factor.

    The nonzero terms are added in the same k order, and a product with a
    structural one is the other factor, so each entry equals the full sum up
    to the sign of a zero sample (the signed-zero contract of
    ``JetScalar``).  An entry keeps gradients only when every product in its
    full sum had them, as the full sum would; an entry with no nonzero term
    is a shared zero.
    """
    bt = list(zip(*b))
    b_factors = [(set(terms), grads) for terms, grads in _jet_factors(bt)]
    zeros = _jet_zeros(chart, len(a[0][0].values))
    return tuple(
        tuple(_jet_entry(row, terms, col, col_terms, row_grads and col_grads, zeros)
              for col, (col_terms, col_grads) in zip(bt, b_factors))
        for row, (terms, row_grads) in zip(a, _jet_factors(a)))


def _accumulate(out: dict, k: IdxTuple, mat, negative: bool) -> None:
    """out[k] += mat, or -= mat when ``negative``, entrywise on jet
    matrices: a difference is x - y, with no negated matrix built first."""
    if k not in out:
        out[k] = linalg.mat_neg(mat) if negative else mat
    elif negative:
        out[k] = linalg.mat_sub(out[k], mat)
    else:
        out[k] = linalg.mat_add(out[k], mat)


def _component_pairs(ca: dict, cb: dict, dim: int):
    """(I, A_I, J, B_J) for the component pairs of a graded product of forms
    with components ca and cb, in product order: I and J disjoint and
    |I| + |J| within the chart."""
    for i_idx, x in ca.items():
        i_set = set(i_idx)
        for j_idx, y in cb.items():
            if not i_set & set(j_idx) and len(i_idx) + len(j_idx) <= dim:
                yield i_idx, x, j_idx, y


def _canonical(d: int, nums: dict, fresh: bool = False):
    """(d, nums) for ``packed_matrices`` matrices nums over d, with the
    content of all their numerators divided out, so that d is the lcm of the
    coefficient denominators and equal forms have equal numerators: in place
    when the numerator lists are ``fresh``, else into new ones."""
    if d > 1:
        entries = [x for mat in nums.values() for row in mat for x in row
                   if x is not None]
        g = content(d, entries)
        if g > 1:
            d //= g
            if fresh:
                for terms in entries:
                    for v in terms.values():
                        v[0] //= g
                        v[1] //= g
            else:
                nums = {k: tuple(tuple(
                    None if x is None else
                    {key: [a // g, b // g] for key, (a, b) in x.items()}
                    for x in row) for row in mat) for k, mat in nums.items()}
    return d, nums


def _packed_form(chart: Chart, m: int, d: int, nums,
                 fresh: bool = False) -> "ExactForm":
    """The exact form with the nonzero packed components nums[K]: a
    ``packed_matrices`` matrix with numerators over d.

    The matrices, put in ``_canonical`` form, are kept as the form's
    ``_numerators()``; the PolyScalar entries are built from them when
    ``comps`` is first read.
    """
    return ExactForm._built(chart, m, None, _canonical(d, nums, fresh))


def _exact_product(a, b) -> "ExactForm":
    """Graded product of exact forms, one of them 1 x 1 or both of size m.

    Entry (r, c) of component K is sum over I u J = K of sign(I, J) times
    sum_t A_I[r][t] B_J[t][c], or the scalar factor times the other entry:
    one ``scalars.sum_of_products`` with one group per component pair, in
    product order, so it equals the fold of ``linalg.mat_mul`` (or
    ``mat_scale`` by the scalar, which stands left), ``mat_neg`` and
    ``mat_add`` in value and key order, and raises OverflowError where a
    monomial of an entry leaves the packed window.
    """
    da, pa = a._numerators()
    db, pb = b._numerators()
    chart, m = a.chart, max(a.m, b.m)
    if a.m == b.m:
        if m > 1:
            pb = {j: tuple(zip(*y)) for j, y in pb.items()}  # columns of B_J

        def pairs(x, y, r, c):
            return [(u, v) for u, v in zip(x[r], y[c]) if u and v]
    elif a.m == 1:
        def pairs(x, y, r, c):
            return [(x[0][0], y[r][c])] if x[0][0] and y[r][c] else []
    else:
        def pairs(x, y, r, c):
            return [(y[0][0], x[r][c])] if y[0][0] and x[r][c] else []
    groups: Dict[IdxTuple, list] = {}
    for i_idx, x, j_idx, y in _component_pairs(pa, pb, chart.dim):
        k = tuple(sorted(i_idx + j_idx))
        groups.setdefault(k, []).append((merge_sign(i_idx, j_idx) < 0, x, y))
    span = range(m)
    sums = {}
    for k, groups_k in groups.items():
        mat = []
        for r in span:
            row = []
            for c in span:
                row.append(sum_of_products(chart, [
                    (negate, ps) for negate, x, y in groups_k
                    if (ps := pairs(x, y, r, c))]) or None)
            mat.append(tuple(row))
        if any(map(any, mat)):
            sums[k] = tuple(mat)
    return _packed_form(chart, m, da * db, sums, fresh=True)


def _parts(a: "ExactForm", c: QQi = QQI_ONE):
    """c * a as parts of ``_linear``: one per component."""
    d, nums = a._numerators()
    return [(k, c, d, mat) for k, mat in nums.items()]


def _linear(chart: Chart, m: int, parts) -> "ExactForm":
    """Sum of parts (K, c, d, matrix): c times a ``packed_matrices`` matrix
    over d, placed at component K, in the order given.

    Each entry is folded part by part as ``PolyScalar.__add__`` folds it
    (``scalars.linear_sum``), in value and key order, and components
    appear in the order of their first part.
    """
    d = _lcm(*[c.d * dp for _, c, dp, _ in parts])
    groups: Dict[IdxTuple, list] = {}
    for k, c, dp, mat in parts:
        f = d // (c.d * dp)
        groups.setdefault(k, []).append((mat, c.a * f, c.b * f))
    span = range(m)
    sums = {}
    for k, items in groups.items():
        if len(items) == 1:
            # one part: its entries scaled by a nonzero p + qi, so its zero
            # entries stay zero
            mat, p, q = items[0]
            if any(map(any, mat)):
                if p != 1 or q:
                    mat = tuple(tuple(x and linear_sum([(x, p, q)]) for x in row)
                                for row in mat)
                sums[k] = mat
            continue
        out = []
        for r in span:
            row = []
            for c in span:
                summands = [(y, p, q) for mat, p, q in items if (y := mat[r][c])]
                row.append(summands and linear_sum(summands) or None)
            out.append(tuple(row))
        if any(map(any, out)):
            sums[k] = tuple(out)
    return _packed_form(chart, m, d, sums)


def _diff_numerators(chart: Chart, mat, j: int):
    """The packed matrix of d/dx_j of a packed matrix, over its denominator."""
    return tuple(tuple(x and packed_diff(chart, x, j) or None for x in row)
                 for row in mat)


def _nonzero(comps: Dict[IdxTuple, tuple]) -> Dict[IdxTuple, tuple]:
    return {i: mat for i, mat in comps.items() if not linalg.mat_is_zero(mat)}


def _checked(chart: Chart, m: int, comps) -> Dict[IdxTuple, tuple]:
    """The nonzero components of outside input, index tuples and shapes checked."""
    comps = {tuple(idx): mat for idx, mat in (comps or {}).items()}
    for idx, mat in comps.items():
        if len(set(idx)) != len(idx) or tuple(sorted(idx)) != idx:
            raise ValueError(f"index tuple {idx} is not strictly increasing")
        if any(not (0 <= i < chart.dim) for i in idx):
            raise ValueError(f"index tuple {idx} outside chart")
        if linalg.mat_shape(mat) != (m, m):
            raise ShapeMismatch("component matrix has wrong shape")
    return _nonzero(comps)


class MatrixForm:
    """Mixed-degree matrix-valued differential form on a chart: what both
    kinds share.  ``ExactForm(...)`` and ``JetForm(...)`` check their index
    tuples and matrix shapes and are for outside input; ``from_scalar`` and
    ``from_entries`` read the kind off the entry.  Other forms are built like
    an existing one (``zero_like``, ``identity_like``, ``const_like``, and
    ``_like`` in every operation), and ``vanishes`` is the zero test of
    either kind."""

    __slots__ = ("chart", "m", "_comps", "_scalar_id")

    def __init__(self, chart: Chart, m: int, comps: Dict[IdxTuple, tuple]):
        self.chart = chart
        self.m = m
        self._comps = _checked(chart, m, comps)
        self._scalar_id = None

    @classmethod
    def _built(cls, chart: Chart, m: int, comps) -> "MatrixForm":
        """An operation's result, well formed by construction; each kind adds its fields."""
        f = cls.__new__(cls)
        f.chart = chart
        f.m = m
        f._comps = comps
        f._scalar_id = None
        return f

    @property
    def comps(self) -> Dict[IdxTuple, tuple]:
        """Component index tuple -> m x m matrix of scalars."""
        return self._comps

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_scalar(s, m: int = 1, idx: IdxTuple = ()) -> "MatrixForm":
        """Wrap one scalar coefficient as an m x m multiple of the identity."""
        zero = (JetScalar.zero(s.chart, len(s.values)) if isinstance(s, JetScalar)
                else PolyScalar.const(s.chart, 0))
        mat = tuple(tuple(s if i == j else zero for j in range(m)) for i in range(m))
        return MatrixForm.from_entries(s.chart, idx, mat)

    @staticmethod
    def from_entries(chart: Chart, idx: IdxTuple, entries) -> "MatrixForm":
        """The form with the one component ``entries`` at idx, of the kind of
        its entries."""
        entries = tuple(tuple(row) for row in entries)
        probe, comps = entries[0][0], {tuple(idx): entries}
        if isinstance(probe, JetScalar):
            return JetForm(chart, len(entries), comps, len(probe.values))
        return ExactForm(chart, len(entries), comps)

    def zero_like(self, m: int) -> "MatrixForm":
        """The zero m x m form of this form's kind."""
        return self._like(m, {})

    def identity_like(self, m: int) -> "MatrixForm":
        """The m x m identity of this form's kind."""
        return self.const_like(linalg.mat_eye(m, QQi(0), QQi(1)))

    # -- structure ------------------------------------------------------

    def _keys(self):
        """The component index tuples, in order, without building comps."""
        return self._comps

    def _check(self, other: "MatrixForm"):
        if self.chart != other.chart or type(self) is not type(other):
            raise ShapeMismatch("forms live on different charts or are of different kinds")

    def degrees(self) -> List[int]:
        return sorted({len(i) for i in self._keys()})

    def degree_part(self, k: int) -> "MatrixForm":
        return self._like(self.m, {i: mat for i, mat in self.comps.items() if len(i) == k})

    def is_zero(self) -> bool:
        return not self._keys()

    def component(self, idx: IdxTuple):
        return self.comps.get(tuple(idx), linalg.mat_zero(self.m, self.m, self._zero_scalar()))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return self._plus(other, QQI_ONE)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self + (-QQi.coerce(other))
        return self._plus(other, QQI_MINUS_ONE)

    def __rsub__(self, other):
        return (-self) + other

    def _plus(self, other, sign: QQi) -> "MatrixForm":
        """self + sign * other, sign being 1 or -1."""
        if isinstance(other, (int, Fraction, QQi)):
            other = self.const_like(linalg.mat_eye(self.m, QQi(0), QQi.coerce(other)))
        self._check(other)
        if self.m != other.m:
            raise ShapeMismatch(f"matrix sizes differ: {self.m} vs {other.m}")
        return self._sum(other, sign)

    def __mul__(self, other):
        """Graded product; a 1 x 1 factor acts as a scalar form."""
        if isinstance(other, (int, Fraction, QQi)):
            return self.scale(QQi.coerce(other))
        if isinstance(other, (PolyScalar, JetScalar)):
            other = MatrixForm.from_scalar(other, 1)
        self._check(other)
        if self.m != other.m and 1 not in (self.m, other.m):
            raise ShapeMismatch(f"matrix sizes differ: {self.m} vs {other.m}")
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        if isinstance(other, (PolyScalar, JetScalar)):
            return MatrixForm.from_scalar(other, 1) * self
        return NotImplemented

    def conj_transpose(self) -> "MatrixForm":
        """Entrywise conjugate transpose per component (degree-0 adjoint)."""
        return self._like(self.m, {idx: linalg.mat_conj_transpose(mat)
                                   for idx, mat in self.comps.items()})

    def amplify(self, s: int) -> "MatrixForm":
        """Block-diagonal amplification Id_s (x) A."""
        zero = self.zero_like(self.m)
        return MatrixForm.from_blocks(
            [[self if i == j else zero for j in range(s)] for i in range(s)])

    def block(self, i: int, j: int, mb: int) -> "MatrixForm":
        """The (i, j) block of size mb when the form is s*mb x s*mb."""
        out = {idx: linalg.mat_block(mat, i, j, mb) for idx, mat in self.comps.items()}
        return self._like(mb, out)

    @staticmethod
    def from_blocks(blocks) -> "MatrixForm":
        """Assemble an s x s grid of equal-size forms into one form, per
        component, the components in order of first appearance."""
        probe = blocks[0][0]
        mb = probe.m
        zero = linalg.mat_zero(mb, mb, probe._zero_scalar())
        idxs = dict.fromkeys(idx for row in blocks for blk in row for idx in blk.comps)
        out = {
            idx: linalg.mat_from_blocks(
                [[blk.comps.get(idx, zero) for blk in row] for row in blocks])
            for idx in idxs
        }
        return probe._like(len(blocks) * mb, out)

    # -- predicates -------------------------------------------------------

    def is_scalar_multiple_of_identity(self) -> bool:
        """Degree-0 test: equals lambda * Id for a constant lambda.  The
        answer is kept in ``_scalar_id``, as a form is not changed after it
        is built."""
        if self._scalar_id is None:
            self._scalar_id = self._scalar_id_test()
        return self._scalar_id

    def _scalar_id_test(self) -> bool:
        """The test of ``is_scalar_multiple_of_identity``, made afresh."""
        return self.is_zero() or (self.degrees() == [0] and self._constant_diagonal())

    def __repr__(self):
        degs = ",".join(map(str, self.degrees())) or "-"
        return f"{type(self).__name__}<m={self.m}, deg={degs}>"


class ExactForm(MatrixForm):
    """A form with ``PolyScalar`` entries; its identities hold at zero
    tolerance, and equal forms are equal and hash alike.

    The ring operations work on the packed numerators of ``_numerators``;
    the PolyScalar entries are built from them when ``comps`` is first read.
    """

    __slots__ = ("_packed", "_hash")

    def __init__(self, chart: Chart, m: int, comps: Dict[IdxTuple, tuple]):
        super().__init__(chart, m, comps)
        self._packed = None
        self._hash = None

    @classmethod
    def _built(cls, chart: Chart, m: int, comps: Optional[Dict[IdxTuple, tuple]],
               packed=None) -> "ExactForm":
        """With ``packed`` (its ``_numerators()``, components all nonzero), comps
        is None or the matching entries; without, zero components are dropped."""
        f = super()._built(chart, m, _nonzero(comps) if packed is None else comps)
        f._packed = packed
        f._hash = None
        return f

    @staticmethod
    def zero(chart: Chart, m: int) -> "ExactForm":
        return ExactForm(chart, m, {})

    @staticmethod
    def identity(chart: Chart, m: int) -> "ExactForm":
        return ExactForm.const_matrix(chart, linalg.mat_eye(m, QQi(0), QQi(1)))

    @staticmethod
    def const_matrix(chart: Chart, mat) -> "ExactForm":
        """Degree-0 form with constant matrix entries (QQi-valued input)."""
        rows = tuple(tuple(PolyScalar.const(chart, QQi.coerce(x)) for x in row) for row in mat)
        return ExactForm(chart, len(mat), {(): rows})

    def const_like(self, mat) -> "ExactForm":
        return ExactForm.const_matrix(self.chart, mat)

    def _like(self, m: int, comps) -> "ExactForm":
        return ExactForm._built(self.chart, m, comps)

    @property
    def comps(self) -> Dict[IdxTuple, tuple]:
        """Component index tuple -> m x m matrix of scalars; for a form
        built from packed numerators, made on first read, each entry a
        PolyScalar sharing its numerators."""
        if self._comps is None:
            chart, (d, nums) = self.chart, self._packed
            self._comps = {k: tuple(tuple(
                PolyScalar._from_packed(chart, d, x) if x is not None
                else PolyScalar._from_packed(chart, 1, {})
                for x in row) for row in mat) for k, mat in nums.items()}
        return self._comps

    def _zero_scalar(self):
        return PolyScalar.const(self.chart, 0)

    def _numerators(self):
        """(d, {I: numerator matrix of A_I}), every entry over the one
        denominator d (``scalars.packed_matrices``), d the lcm of the
        coefficient denominators (``_canonical``), so equal forms have equal
        numerators.  An operation hands its result these directly;
        otherwise they are packed on first use.  They are kept, as a form is
        not changed after it is built."""
        if self._packed is None:
            comps = self._comps
            d, mats = packed_matrices(comps.values())
            self._packed = _canonical(d, dict(zip(comps, mats)))
        return self._packed

    def _keys(self):
        return self._comps if self._comps is not None else self._packed[1]

    def degree_part(self, k: int) -> "ExactForm":
        d, nums = self._numerators()
        return _packed_form(self.chart, self.m, d, {i: mat for i, mat in nums.items() if len(i) == k})

    def __neg__(self):
        return _linear(self.chart, self.m, _parts(self, QQI_MINUS_ONE))

    def _sum(self, other: "ExactForm", sign: QQi) -> "ExactForm":
        return _linear(self.chart, self.m, _parts(self) + _parts(other, sign))

    def scale(self, c) -> "ExactForm":
        if not self._keys():
            return self
        c = QQi.coerce(c)
        if c.is_zero():
            return ExactForm._built(self.chart, self.m, {}, (1, {}))
        return _linear(self.chart, self.m, _parts(self, c))

    _product = _exact_product

    def trace(self) -> "ExactForm":
        # the diagonal summed in order, as linalg.mat_trace folds it
        d, nums = self._numerators()
        span = range(self.m)
        sums = {}
        for idx, mat in nums.items():
            diag = [(x, 1, 0) for x in (mat[i][i] for i in span) if x]
            x = diag and linear_sum(diag)
            if x:
                sums[idx] = ((x,),)
        return _packed_form(self.chart, 1, d, sums)

    def _trace_of_product(self, b: "ExactForm") -> "ExactForm":
        if self.degrees() not in ([], [0]) or b.degrees() not in ([], [0]):
            raise ValueError("the exact trace of a product takes degree-0 forms")
        if self.is_zero() or b.is_zero():
            return self.zero_like(1)
        chart, span = self.chart, range(self.m)
        da, pa = self._numerators()
        db, pb = b._numerators()
        pa, pb = pa[()], pb[()]
        terms = sum_of_products(chart, [
            (False, ps) for i in span
            if (ps := [(pa[i][t], pb[t][i]) for t in span if pa[i][t] and pb[t][i]])])
        return ExactForm._built(chart, 1, {(): ((PolyScalar._reduced(chart, da * db, terms),),)}
                                if terms else {})

    def _exterior_d(self) -> "ExactForm":
        d, nums = self._numerators()
        parts = []
        for idx in nums:
            for j in range(self.chart.dim):
                if j not in idx:
                    sign = QQI_MINUS_ONE if sum(1 for i in idx if i < j) % 2 else QQI_ONE
                    parts.append((tuple(sorted(idx + (j,))), sign, d,
                                  _diff_numerators(self.chart, nums[idx], j)))
        return _linear(self.chart, self.m, parts)

    def vanishes(self, tol: float) -> bool:
        """Whether the form is zero; exact, so ``tol`` is not read."""
        return self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ExactForm):
            return NotImplemented
        if (self.chart, self.m) != (other.chart, other.m):
            return False
        # canonical numerators: equal values, equal denominator and terms
        d, nums = self._numerators()
        d2, nums2 = other._numerators()
        return d == d2 and nums.keys() == nums2.keys() and all(
            nums[i] == nums2[i] for i in nums)

    def __hash__(self):
        if self._hash is None:
            d, nums = self._numerators()
            key = tuple(
                (idx, tuple(None if x is None else frozenset(
                    (k, re, im) for k, (re, im) in x.items())
                    for row in mat for x in row))
                for idx, mat in sorted(nums.items())
            )
            self._hash = hash((self.chart, self.m, d, key))
        return self._hash

    def _constant_diagonal(self) -> bool:
        """Whether the degree-0 part is a constant times the identity: with
        one denominator for all entries, equal entries have equal terms."""
        terms = self._numerators()[1][()]
        diag = terms[0][0]
        return (diag is not None and self.comps[()][0][0].is_constant()
                and all(x == diag if i == j else x is None
                        for i, row in enumerate(terms) for j, x in enumerate(row)))


class JetForm(MatrixForm):
    """A form with ``JetScalar`` entries sampled on one grid of quadrature
    nodes.  It holds one flagged zero entry, shared with every form built
    like it, for the zeros it fills in.  ``==`` compares samples exactly; a
    jet form is not hashable."""

    __slots__ = ("_zero",)

    def __init__(self, chart: Chart, m: int, comps: Dict[IdxTuple, tuple], nodes: int):
        super().__init__(chart, m, comps)
        self._zero = JetScalar.zero(chart, nodes)

    @classmethod
    def _built(cls, chart: Chart, m: int, comps, zero: JetScalar) -> "JetForm":
        """Only zero components are dropped; ``zero`` is the shared zero."""
        f = super()._built(chart, m, _nonzero(comps))
        f._zero = zero
        return f

    @staticmethod
    def zero(chart: Chart, m: int, nodes: int) -> "JetForm":
        return JetForm(chart, m, {}, nodes)

    def const_like(self, mat) -> "JetForm":
        """Degree-0 form with constant matrix entries (QQi-valued input)."""
        zero, n, m = self._zero, len(self._zero.values), len(mat)
        rows = tuple(tuple(zero if x == 0 else JetScalar.const(self.chart, complex(x), n)
                           for x in row) for row in mat)
        return self._like(m, _checked(self.chart, m, {(): rows}))

    def _like(self, m: int, comps) -> "JetForm":
        return JetForm._built(self.chart, m, comps, self._zero)

    def _zero_scalar(self):
        return self._zero

    def _check(self, other: "JetForm"):
        super()._check(other)
        if self._zero.values.shape != other._zero.values.shape:
            raise ShapeMismatch("sample grids differ")

    def __neg__(self):
        return self._like(self.m, {i: linalg.mat_neg(m) for i, m in self.comps.items()})

    def _sum(self, other: "JetForm", sign: QQi) -> "JetForm":
        out = dict(self.comps)
        for idx, mat in other.comps.items():
            _accumulate(out, idx, mat, sign is QQI_MINUS_ONE)
        return self._like(self.m, out)

    def scale(self, c) -> "JetForm":
        if isinstance(c, (QQi, Fraction)):
            c = complex(c)
        return self._like(self.m, {i: linalg.mat_scale(c, m) for i, m in self.comps.items()})

    def _product(self, other: "JetForm") -> "JetForm":
        out: Dict[IdxTuple, tuple] = {}
        for i_idx, a, j_idx, b in _component_pairs(self.comps, other.comps,
                                                   self.chart.dim):
            sign = merge_sign(i_idx, j_idx)
            if self.m == other.m:
                mat = _jet_mat_mul(a, b, self.chart)
            elif self.m == 1:
                mat = linalg.mat_scale(a[0][0], b)
            else:
                mat = linalg.mat_scale(b[0][0], a)
            _accumulate(out, tuple(sorted(i_idx + j_idx)), mat, sign < 0)
        return self._like(max(self.m, other.m), out)

    def trace(self) -> "JetForm":
        return self._like(1, {idx: ((linalg.mat_trace(mat),),) for idx, mat in self.comps.items()})

    def _trace_of_product(self, b: "JetForm") -> "JetForm":
        chart = self.chart
        zeros = _jet_zeros(chart, len(self._zero.values))
        diagonals: Dict[IdxTuple, tuple] = {}
        for i_idx, x, j_idx, y in _component_pairs(self.comps, b.comps, chart.dim):
            cols = list(zip(*y))
            diagonal = tuple(
                _jet_entry(row, terms, col, set(col_terms), row_grads and col_grads, zeros)
                for row, (terms, row_grads), col, (col_terms, col_grads)
                in zip(x, _jet_factors(x), cols, _jet_factors(cols)))
            _accumulate(diagonals, tuple(sorted(i_idx + j_idx)), (diagonal,),
                        merge_sign(i_idx, j_idx) < 0)
        out = {k: ((sum(diagonal[1:], diagonal[0]),),)  # linalg.mat_trace order
               for k, (diagonal,) in diagonals.items()}
        return self._like(1, out)

    def _exterior_d(self) -> "JetForm":
        out: Dict[IdxTuple, tuple] = {}
        for idx, mat in self.comps.items():
            for j in range(self.chart.dim):
                if j in idx:
                    continue
                sign = -1 if sum(1 for i in idx if i < j) % 2 else 1
                d_mat = tuple(tuple(x.diff(j) for x in row) for row in mat)
                _accumulate(out, tuple(sorted(idx + (j,))), d_mat, sign < 0)
        return self._like(self.m, out)

    def max_abs(self) -> float:
        """Largest sample magnitude over all components; NaN when a sample
        is NaN, so that a NaN form never reads as small."""
        values = [x.max_abs() for mat in self.comps.values() for row in mat for x in row]
        return nan if any(map(isnan, values)) else max(values, default=0.0)

    def vanishes(self, tol: float) -> bool:
        """Whether every sample has magnitude at most ``tol``."""
        return self.max_abs() <= tol

    def __eq__(self, other):
        if not isinstance(other, JetForm):
            return NotImplemented
        return ((self.chart, self.m) == (other.chart, other.m)
                and (self - other).vanishes(0.0))

    def _constant_diagonal(self) -> bool:
        """Whether the degree-0 part is a constant times the identity, to
        1e-12 in every sample; a NaN sample fails both comparisons."""
        mat = self.comps[()]
        diag = mat[0][0]
        v = diag.values
        if v.size and not (float(np.max(np.abs(v - v.flat[0]))) <= 1e-12):
            return False
        for i in range(self.m):
            for j in range(self.m):
                off = mat[i][j] - diag if i == j else mat[i][j]
                if not (off.max_abs() <= 1e-12):
                    return False
        return True


def trace_of_product(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """tr(a b) of forms of one size and kind, equal to ``(a * b).trace()``,
    from the diagonal of the product only.

    ``ExactForm``s must be of degree 0: one ``scalars.sum_of_products`` with
    one group per diagonal entry, in the order of ``linalg.mat_trace``, so
    the value and the key order of its coefficients are those of the trace.
    ``JetForm``s may be of any degree: each diagonal entry of a component
    pair's product is the entry of ``_jet_mat_mul``, the pairs are added
    with their merge signs as the product adds them, and each component's
    diagonal is summed in ``linalg.mat_trace`` order, so every sample and
    the presence of gradients are those of the trace.
    """
    a._check(b)
    if a.m != b.m:
        raise ShapeMismatch(f"matrix sizes differ: {a.m} vs {b.m}")
    return a._trace_of_product(b)


def exterior_d(a: MatrixForm) -> MatrixForm:
    """Exterior differential, entrywise on coefficients."""
    return a._exterior_d()


def add_partials(base: MatrixForm, a: MatrixForm, vector) -> MatrixForm:
    """base + c_0 d_0 a + c_1 d_1 a + ... for exact forms, added term by
    term in that order; a zero c_j adds nothing."""
    d, nums = a._numerators()
    parts = _parts(base)
    for idx, mat in nums.items():
        parts += [(idx, c, d, _diff_numerators(a.chart, mat, j))
                  for j, c in enumerate(vector) if not c.is_zero()]
    return _linear(a.chart, a.m, parts)


class Connection:
    """Gauge data on a chart: lift 1-form, curvature, traceless lift.

    ``sigma`` is the unique traceless matrix 2-form with the same
    curvature action as omega; nabla is the graded commutator with theta
    on top of d.
    """

    def __init__(self, theta: MatrixForm, sigma: Optional[MatrixForm] = None):
        if theta.degrees() not in ([], [1]):
            raise ValueError("connection lift must be a 1-form")
        self.chart = theta.chart
        self.m = theta.m
        self.theta = theta
        if sigma is not None:
            self.sigma = sigma

    @functools.cached_property
    def omega(self) -> MatrixForm:
        return exterior_d(self.theta) + self.theta * self.theta

    @functools.cached_property
    def sigma(self) -> MatrixForm:
        """Computed on first read; a value given or assigned wins."""
        residue = self.omega.trace().scale(Fraction(1, self.m))
        return self.omega - residue * self.identity()

    @staticmethod
    def with_sigma(sigma: MatrixForm) -> "Connection":
        """Connection with zero gauge 1-form and an external curvature lift.

        Used for geometries whose sigma acts trivially on the registered
        algebra (scalar-entried sections), where nabla reduces to d.
        """
        return Connection(sigma.zero_like(sigma.m), sigma)

    def identity(self) -> MatrixForm:
        """The unit of the algebra the connection acts on."""
        return self.theta.identity_like(self.m)

    def nabla(self, a: MatrixForm) -> MatrixForm:
        """Graded covariant derivative da + theta^a - (-1)^|a| a^theta."""
        if a.m != self.m:
            raise ShapeMismatch("form size does not match connection")
        out = exterior_d(a)
        for k in a.degrees():
            ak = a.degree_part(k)
            out = out + self.theta * ak
            ta = ak * self.theta
            if k % 2 == 0:
                out = out - ta
            else:
                out = out + ta
        return out

    def amplify(self, s: int) -> "Connection":
        return Connection(self.theta.amplify(s), self.sigma.amplify(s))


def dd_representative(conn: Connection, beta: Optional[MatrixForm] = None) -> MatrixForm:
    """Closed scalar 3-form representing the obstruction class of a lift.

    The traceless-lift contribution vanishes identically (flatness of
    sigma under nabla, verified here); what remains is the
    differential of the declared scalar discrepancy 2-form ``beta``,
    whose 2*pi*i normalization cancels exactly.  On a single chart with
    no declared discrepancy the representative is zero.
    """
    if not conn.nabla(conn.sigma).vanishes(1e-10):
        raise ValueError("traceless lift fails its flatness identity")
    if beta is None:
        return conn.theta.zero_like(1)
    if beta.m != 1 or beta.degrees() not in ([], [2]):
        raise ValueError("declared discrepancy must be a scalar 2-form")
    return exterior_d(beta)


def twisted_d(c: MatrixForm, w: MatrixForm) -> MatrixForm:
    """Twisted differential d_c w = dw + c^w for a closed scalar 3-form c."""
    if c.m != 1:
        raise ValueError("twist must be a scalar form")
    if not c.is_zero() and c.degrees() != [3]:
        raise ValueError("twist must be homogeneous of degree 3")
    if not exterior_d(c).is_zero():
        raise ValueError("twist form is not closed")
    return exterior_d(w) + c * w


def exp_form(beta: MatrixForm) -> MatrixForm:
    """exp(beta) as a finite sum, a form of beta's kind that starts at
    ``beta.identity_like``; nilpotency in form degree truncates it.

    The powers start at beta, not at identity * beta, and the k = 1 term is
    added unscaled.  On jets, beta's samples then enter the sum as they are,
    which is identity * beta up to the sign of a zero sample (the
    signed-zero contract of ``JetScalar``), and the k = 1 term keeps beta's
    own gradients where identity * beta would drop those of an entry in a
    column with a gradient-free entry.
    """
    out = beta.identity_like(beta.m)
    power = beta
    k = 1
    while not power.is_zero():
        out = out + (power if k == 1 else power.scale(Fraction(1, factorial(k))))
        k += 1
        if k > beta.chart.dim + 1:
            break
        power = power * beta
    return out


def exp_beta_intertwiner(beta: MatrixForm, w: MatrixForm) -> MatrixForm:
    """Chain map w -> w ^ exp(beta) between twisted complexes.

    Satisfies d_{c2}(w ^ exp beta) = (d_{c1} w) ^ exp beta whenever
    c1 = c2 + d beta.
    """
    if beta.m != 1 or (not beta.is_zero() and beta.degrees() != [2]):
        raise ValueError("shift must be a scalar 2-form")
    return w * exp_form(beta)
