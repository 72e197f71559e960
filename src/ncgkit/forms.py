"""Graded algebra of matrix-valued differential forms on a chart.

A ``MatrixForm`` stores, for each sorted coordinate index tuple I, an
m x m matrix of scalar coefficients (exact ``PolyScalar`` or sampled
``JetScalar``).  The product carries the Koszul sign on form indices
only; matrices multiply without extra signs.

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
from math import factorial, lcm as _lcm
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
                 fresh: bool = False) -> "MatrixForm":
    """The exact form with the nonzero packed components nums[K]: a
    ``packed_matrices`` matrix with numerators over d.

    The matrices, put in ``_canonical`` form, are kept as the form's
    ``_numerators()``; the PolyScalar entries are built from them when
    ``comps`` is first read.
    """
    return MatrixForm._built(chart, m, None, "exact", None,
                             _canonical(d, nums, fresh))


def _exact_product(a, b) -> "MatrixForm":
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


def _parts(a: "MatrixForm", c: QQi = QQI_ONE):
    """c * a as parts of ``_linear``: one per component."""
    d, nums = a._numerators()
    return [(k, c, d, mat) for k, mat in nums.items()]


def _linear(chart: Chart, m: int, parts) -> "MatrixForm":
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


def _zero_entry(chart: Chart, backend: str, nodes: Optional[int]):
    """The zero entry of a form; on jets one flagged zero to share."""
    if backend == "exact":
        return PolyScalar.const(chart, 0)
    return JetScalar.zero(chart, nodes)


class MatrixForm:
    """Mixed-degree matrix-valued differential form on a chart.

    ``MatrixForm(...)`` checks its index tuples and matrix shapes and is
    for outside input; every operation builds its result with ``_built``.
    """

    __slots__ = ("chart", "m", "backend", "nodes", "_comps", "_hash",
                 "_packed", "_scalar_id")

    def __init__(self, chart: Chart, m: int, comps: Dict[IdxTuple, tuple],
                 backend: str = "exact", nodes: Optional[int] = None):
        self.chart = chart
        self.m = m
        self.backend = backend
        self.nodes = nodes
        clean: Dict[IdxTuple, tuple] = {}
        for idx, mat in (comps or {}).items():
            idx = tuple(idx)
            if len(set(idx)) != len(idx) or tuple(sorted(idx)) != idx:
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            if any(not (0 <= i < chart.dim) for i in idx):
                raise ValueError(f"index tuple {idx} outside chart")
            if linalg.mat_shape(mat) != (m, m):
                raise ShapeMismatch("component matrix has wrong shape")
            if not linalg.mat_is_zero(mat):
                clean[idx] = mat
        self._comps = clean
        self._hash = None
        self._packed = None
        self._scalar_id = None

    @classmethod
    def _built(cls, chart: Chart, m: int, comps: Optional[Dict[IdxTuple, tuple]],
               backend: str, nodes: Optional[int], packed=None) -> "MatrixForm":
        """Internal constructor for the result of an operation, whose
        components are well formed by construction: only zero components
        are dropped.  An exact result comes with ``packed`` (its
        ``_numerators()``) and comps None or the matching entries; its
        components must all be nonzero."""
        f = cls.__new__(cls)
        f.chart = chart
        f.m = m
        f.backend = backend
        f.nodes = nodes
        if packed is None:
            comps = {i: mat for i, mat in comps.items() if not linalg.mat_is_zero(mat)}
        f._comps = comps
        f._hash = None
        f._packed = packed
        f._scalar_id = None
        return f

    @property
    def comps(self) -> Dict[IdxTuple, tuple]:
        """Component index tuple -> m x m matrix of scalars; for a form
        built from packed numerators, made on first read, each entry a
        PolyScalar sharing its numerators."""
        comps = self._comps
        if comps is None:
            chart = self.chart
            d, nums = self._packed
            comps = {}
            for k, mat in nums.items():
                comps[k] = tuple(tuple(
                    PolyScalar._from_packed(chart, d, x) if x is not None
                    else PolyScalar._from_packed(chart, 1, {})
                    for x in row) for row in mat)
            self._comps = comps
        return comps

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(chart: Chart, m: int, backend: str = "exact",
             nodes: Optional[int] = None) -> "MatrixForm":
        return MatrixForm(chart, m, {}, backend, nodes)

    @staticmethod
    def identity(chart: Chart, m: int, backend: str = "exact",
                 nodes: Optional[int] = None) -> "MatrixForm":
        return MatrixForm.const_matrix(
            chart,
            linalg.mat_eye(m, QQi(0), QQi(1)),
            backend,
            nodes,
        )

    @staticmethod
    def const_matrix(chart: Chart, mat, backend: str = "exact",
                     nodes: Optional[int] = None) -> "MatrixForm":
        """Degree-0 form with constant matrix entries (QQi-valued input)."""
        m = len(mat)
        if backend == "exact":
            rows = tuple(
                tuple(PolyScalar.const(chart, QQi.coerce(x)) for x in row)
                for row in mat
            )
        else:
            if nodes is None:
                raise ValueError("numeric backend needs the node count")
            zero = JetScalar.zero(chart, nodes)
            rows = tuple(
                tuple(zero if x == 0 else JetScalar.const(chart, complex(x), nodes)
                      for x in row)
                for row in mat
            )
        return MatrixForm(chart, m, {(): rows}, backend, nodes)

    @staticmethod
    def from_scalar(s, m: int = 1, idx: IdxTuple = ()) -> "MatrixForm":
        """Wrap one scalar coefficient as an m x m multiple of the identity."""
        chart = s.chart
        backend = "exact" if isinstance(s, PolyScalar) else "jet"
        nodes = None if backend == "exact" else len(s.values)
        zero = _zero_entry(chart, backend, nodes)
        mat = tuple(
            tuple(s if i == j else zero for j in range(m)) for i in range(m)
        )
        return MatrixForm(chart, m, {tuple(idx): mat}, backend, nodes)

    @staticmethod
    def from_entries(chart: Chart, idx: IdxTuple, entries) -> "MatrixForm":
        entries = tuple(tuple(row) for row in entries)
        probe = entries[0][0]
        backend = "exact" if isinstance(probe, PolyScalar) else "jet"
        nodes = None if backend == "exact" else len(probe.values)
        return MatrixForm(chart, len(entries), {tuple(idx): entries}, backend, nodes)

    # -- structure ------------------------------------------------------

    def _zero_scalar(self):
        return _zero_entry(self.chart, self.backend, self.nodes)

    def _numerators(self):
        """(d, {I: numerator matrix of A_I}) of an exact form, every entry
        over the one denominator d (``scalars.packed_matrices``), d the lcm
        of the coefficient denominators (``_canonical``), so equal forms
        have equal numerators.  An operation hands its result these
        directly; otherwise they are packed on first use.  They are kept, as
        a form is not changed after it is built."""
        if self._packed is None:
            comps = self._comps
            d, mats = packed_matrices(comps.values())
            self._packed = _canonical(d, dict(zip(comps, mats)))
        return self._packed

    def _keys(self):
        """The component index tuples, in order, without building comps."""
        return self._comps if self._comps is not None else self._packed[1]

    def _check(self, other: "MatrixForm"):
        if self.chart != other.chart or self.backend != other.backend:
            raise ShapeMismatch("forms live on different charts or backends")
        if self.backend == "jet" and self.nodes != other.nodes:
            raise ShapeMismatch("sample grids differ")

    def degrees(self) -> List[int]:
        return sorted({len(i) for i in self._keys()})

    def degree_part(self, k: int) -> "MatrixForm":
        keep = [i for i in self._keys() if len(i) == k]
        comps = packed = None
        if self._comps is not None:
            comps = {i: self._comps[i] for i in keep}
        if self._packed is not None:
            d, nums = self._packed
            packed = _canonical(d, {i: nums[i] for i in keep})
        return MatrixForm._built(self.chart, self.m, comps, self.backend,
                                 self.nodes, packed)

    def is_zero(self) -> bool:
        return not self._keys()

    def component(self, idx: IdxTuple):
        z = self._zero_scalar()
        return self.comps.get(
            tuple(idx), linalg.mat_zero(self.m, self.m, z)
        )

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return self._plus(other, QQI_ONE)

    __radd__ = __add__

    def __neg__(self):
        if self.backend == "exact":
            return _linear(self.chart, self.m, _parts(self, QQI_MINUS_ONE))
        return MatrixForm._built(
            self.chart,
            self.m,
            {i: linalg.mat_neg(m) for i, m in self.comps.items()},
            self.backend,
            self.nodes,
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self + (-QQi.coerce(other))
        return self._plus(other, QQI_MINUS_ONE)

    def __rsub__(self, other):
        return (-self) + other

    def _plus(self, other, sign: QQi) -> "MatrixForm":
        """self + sign * other, sign being 1 or -1."""
        if isinstance(other, (int, Fraction, QQi)):
            other = MatrixForm.const_matrix(
                self.chart,
                linalg.mat_scale(QQi.coerce(other), linalg.mat_eye(self.m, QQi(0), QQi(1))),
                self.backend,
                self.nodes,
            )
        self._check(other)
        if self.m != other.m:
            raise ShapeMismatch(f"matrix sizes differ: {self.m} vs {other.m}")
        if self.backend == "exact":
            return _linear(self.chart, self.m, _parts(self) + _parts(other, sign))
        out = dict(self.comps)
        for idx, mat in other.comps.items():
            _accumulate(out, idx, mat, sign is QQI_MINUS_ONE)
        return MatrixForm._built(self.chart, self.m, out, self.backend, self.nodes)

    def scale(self, c) -> "MatrixForm":
        if self.backend == "exact":
            if not self._keys():
                return self
            c = QQi.coerce(c)
            if c.is_zero():
                return MatrixForm._built(self.chart, self.m, {}, "exact", None, (1, {}))
            return _linear(self.chart, self.m, _parts(self, c))
        if isinstance(c, (QQi, Fraction)):
            c = complex(c)
        return MatrixForm._built(
            self.chart,
            self.m,
            {i: linalg.mat_scale(c, m) for i, m in self.comps.items()},
            self.backend,
            self.nodes,
        )

    def __mul__(self, other):
        """Graded product; a 1 x 1 factor acts as a scalar form."""
        if isinstance(other, (int, Fraction, QQi)):
            return self.scale(QQi.coerce(other) if self.backend == "exact" else complex(QQi.coerce(other)))
        if isinstance(other, (PolyScalar, JetScalar)):
            other = MatrixForm.from_scalar(other, 1)
        self._check(other)
        if self.m != other.m and 1 not in (self.m, other.m):
            raise ShapeMismatch(f"matrix sizes differ: {self.m} vs {other.m}")
        if self.backend == "exact":
            return _exact_product(self, other)
        m_out = max(self.m, other.m)
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
        return MatrixForm._built(self.chart, m_out, out, self.backend, self.nodes)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        if isinstance(other, (PolyScalar, JetScalar)):
            return MatrixForm.from_scalar(other, 1) * self
        return NotImplemented

    def trace(self) -> "MatrixForm":
        if self.backend == "exact":
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
        out = {}
        for idx, mat in self.comps.items():
            out[idx] = ((linalg.mat_trace(mat),),)
        return MatrixForm._built(self.chart, 1, out, self.backend, self.nodes)

    def conj_transpose(self) -> "MatrixForm":
        """Entrywise conjugate transpose per component (degree-0 adjoint)."""
        out = {
            idx: linalg.mat_conj_transpose(mat) for idx, mat in self.comps.items()
        }
        return MatrixForm._built(self.chart, self.m, out, self.backend, self.nodes)

    def amplify(self, s: int) -> "MatrixForm":
        """Block-diagonal amplification Id_s (x) A."""
        zero = MatrixForm.zero(self.chart, self.m, self.backend, self.nodes)
        return MatrixForm.from_blocks(
            [[self if i == j else zero for j in range(s)] for i in range(s)])

    def block(self, i: int, j: int, mb: int) -> "MatrixForm":
        """The (i, j) block of size mb when the form is s*mb x s*mb."""
        out = {idx: linalg.mat_block(mat, i, j, mb) for idx, mat in self.comps.items()}
        return MatrixForm._built(self.chart, mb, out, self.backend, self.nodes)

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
        return MatrixForm._built(probe.chart, len(blocks) * mb, out, probe.backend,
                                 probe.nodes)

    # -- predicates -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if (self.chart, self.m, self.backend) != (other.chart, other.m, other.backend):
            return False
        if self.backend == "jet":
            return self.approx_eq(other, 0.0)
        # canonical numerators: equal values, equal denominator and terms
        d, nums = self._numerators()
        d2, nums2 = other._numerators()
        return d == d2 and nums.keys() == nums2.keys() and all(
            nums[i] == nums2[i] for i in nums)

    def __hash__(self):
        if self.backend != "exact":
            raise TypeError("numeric forms are not hashable")
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

    def max_abs(self) -> float:
        """Largest sample magnitude over all components (numeric backend)."""
        best = 0.0
        for mat in self.comps.values():
            for row in mat:
                for x in row:
                    if isinstance(x, JetScalar):
                        best = max(best, x.max_abs())
                    else:
                        for c in x.coeffs.values():
                            best = max(best, abs(complex(c)))
        return best

    def approx_eq(self, other: "MatrixForm", tol: float = 1e-12) -> bool:
        return (self - other).max_abs() <= tol

    def is_scalar_multiple_of_identity(self) -> bool:
        """Degree-0 test: equals lambda * Id for a constant lambda.  The
        answer is kept in ``_scalar_id``, as a form is not changed after it
        is built."""
        if self._scalar_id is None:
            self._scalar_id = self._scalar_id_test()
        return self._scalar_id

    def _scalar_id_test(self) -> bool:
        """The test of ``is_scalar_multiple_of_identity``, made afresh."""
        if self.is_zero():
            return True
        if self.degrees() != [0]:
            return False
        if self.backend == "exact":
            # one denominator for all entries: equal entries, equal terms
            terms = self._numerators()[1][()]
            diag = terms[0][0]
            return (diag is not None and self.comps[()][0][0].is_constant()
                    and all(x == diag if i == j else x is None
                            for i, row in enumerate(terms) for j, x in enumerate(row)))
        mat = self.comps[()]
        diag = mat[0][0]
        v = diag.values
        if v.size and float(np.max(np.abs(v - v.flat[0]))) > 1e-12:
            return False
        for i in range(self.m):
            for j in range(self.m):
                off = mat[i][j] - diag if i == j else mat[i][j]
                if off.max_abs() > 1e-12:
                    return False
        return True

    def __repr__(self):
        degs = ",".join(map(str, self.degrees())) or "-"
        return f"MatrixForm<m={self.m}, deg={degs}, {self.backend}>"


def trace_of_product(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """tr(a b) of forms of one size, equal to ``(a * b).trace()``, from the
    diagonal of the product only.

    Exact forms must be of degree 0: one ``scalars.sum_of_products`` with
    one group per diagonal entry, in the order of ``linalg.mat_trace``, so
    the value and the key order of its coefficients are those of the trace.
    Jet forms may be of any degree: each diagonal entry of a component
    pair's product is the entry of ``_jet_mat_mul``, the pairs are added
    with their merge signs as the product adds them, and each component's
    diagonal is summed in ``linalg.mat_trace`` order, so every sample and
    the presence of gradients are those of the trace.
    """
    a._check(b)
    if a.m != b.m:
        raise ShapeMismatch(f"matrix sizes differ: {a.m} vs {b.m}")
    chart, span = a.chart, range(a.m)
    out: Dict[IdxTuple, tuple] = {}
    if a.backend == "exact":
        if a.degrees() not in ([], [0]) or b.degrees() not in ([], [0]):
            raise ValueError("the exact trace of a product takes degree-0 forms")
        if a.is_zero() or b.is_zero():
            return MatrixForm._built(chart, 1, out, "exact", None)
        da, pa = a._numerators()
        db, pb = b._numerators()
        pa, pb = pa[()], pb[()]
        terms = sum_of_products(chart, [
            (False, ps) for i in span
            if (ps := [(pa[i][t], pb[t][i]) for t in span if pa[i][t] and pb[t][i]])])
        if terms:
            out[()] = ((PolyScalar._reduced(chart, da * db, terms),),)
        return MatrixForm._built(chart, 1, out, "exact", None)
    zeros = _jet_zeros(chart, a.nodes)
    diagonals: Dict[IdxTuple, tuple] = {}
    for i_idx, x, j_idx, y in _component_pairs(a.comps, b.comps, chart.dim):
        cols = list(zip(*y))
        diagonal = tuple(
            _jet_entry(row, terms, col, set(col_terms), row_grads and col_grads, zeros)
            for row, (terms, row_grads), col, (col_terms, col_grads)
            in zip(x, _jet_factors(x), cols, _jet_factors(cols)))
        _accumulate(diagonals, tuple(sorted(i_idx + j_idx)), (diagonal,),
                    merge_sign(i_idx, j_idx) < 0)
    for k, (diagonal,) in diagonals.items():
        out[k] = ((sum(diagonal[1:], diagonal[0]),),)  # linalg.mat_trace order
    return MatrixForm._built(chart, 1, out, "jet", a.nodes)


def exterior_d(a: MatrixForm) -> MatrixForm:
    """Exterior differential, entrywise on coefficients."""
    if a.backend == "exact":
        d, nums = a._numerators()
        parts = []
        for idx in nums:
            for j in range(a.chart.dim):
                if j not in idx:
                    sign = QQI_MINUS_ONE if sum(1 for i in idx if i < j) % 2 else QQI_ONE
                    parts.append((tuple(sorted(idx + (j,))), sign, d,
                                  _diff_numerators(a.chart, nums[idx], j)))
        return _linear(a.chart, a.m, parts)
    out: Dict[IdxTuple, tuple] = {}
    for idx, mat in a.comps.items():
        for j in range(a.chart.dim):
            if j in idx:
                continue
            sign = -1 if sum(1 for i in idx if i < j) % 2 else 1
            d_mat = tuple(tuple(x.diff(j) for x in row) for row in mat)
            _accumulate(out, tuple(sorted(idx + (j,))), d_mat, sign < 0)
    return MatrixForm._built(a.chart, a.m, out, a.backend, a.nodes)


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
        return Connection(
            MatrixForm.zero(sigma.chart, sigma.m, sigma.backend, sigma.nodes), sigma
        )

    def identity(self) -> MatrixForm:
        """The unit of the algebra the connection acts on."""
        return MatrixForm.identity(self.chart, self.m, self.theta.backend,
                                   self.theta.nodes)

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
    defect = conn.nabla(conn.sigma)
    if not (defect.is_zero() or defect.max_abs() <= 1e-10):
        raise ValueError("traceless lift fails its flatness identity")
    if beta is None:
        return MatrixForm.zero(conn.chart, 1, conn.theta.backend, conn.theta.nodes)
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
    """exp(beta) as a finite sum; nilpotency in form degree truncates it.

    The powers start at beta, not at identity * beta, and the k = 1 term is
    added unscaled.  On jets, beta's samples then enter the sum as they are,
    which is identity * beta up to the sign of a zero sample (the
    signed-zero contract of ``JetScalar``), and the k = 1 term keeps beta's
    own gradients where identity * beta would drop those of an entry in a
    column with a gradient-free entry.
    """
    out = MatrixForm.identity(beta.chart, beta.m, beta.backend, beta.nodes)
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
