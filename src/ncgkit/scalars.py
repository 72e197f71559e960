"""Exact and sampled scalar coefficient rings.

Three scalar backends are used throughout the toolkit:

* ``QQi`` -- Gaussian rationals a + b*i with ``Fraction`` components.
  All algebraic identities are decided with zero tolerance over this ring.
* ``PolyScalar`` -- multivariate polynomial (affine variables) or Laurent
  polynomial (periodic variables, monomials are integer powers of
  e^{i*x_j}) with QQi coefficients over a fixed ``Chart``.
* ``JetScalar`` -- complex sample grids over quadrature nodes together
  with analytically supplied first derivatives, so that differentiation
  never falls back to finite differences.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ._numpy import np

RationalLike = Union[int, Fraction]

import sys
from array import array
from functools import lru_cache
from itertools import islice
from math import gcd as _gcd, lcm as _lcm
from struct import Struct


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _qqi_raw(a: int, b: int, d: int) -> "QQi":
    """Construct from an already-reduced triple (no gcd pass)."""
    q = QQi.__new__(QQi)
    q.a = a
    q.b = b
    q.d = d
    return q


def _qqi(a: int, b: int, d: int) -> "QQi":
    if d < 0:
        a, b, d = -a, -b, -d
    g = _gcd(a, b, d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    q = QQi.__new__(QQi)
    q.a = a
    q.b = b
    q.d = d
    return q


class QQi:
    """Gaussian rational number, stored as (a + b*i)/d with gcd-reduced ints.

    The integer-triple layout keeps the hot arithmetic paths to plain int
    operations with a single gcd per result.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        d = re.denominator * im.denominator // _gcd(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = _gcd(_gcd(abs(a), abs(b)), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, int):
            return _qqi_raw(x, 0, 1)
        if isinstance(x, Fraction):
            return _qqi_raw(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    def __add__(self, other):
        if isinstance(other, QQi):
            a2, b2, d2 = other.a, other.b, other.d
        elif isinstance(other, int):
            a2, b2, d2 = other, 0, 1
        elif isinstance(other, Fraction):
            a2, b2, d2 = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        return _qqi(self.a * d2 + a2 * self.d, self.b * d2 + b2 * self.d,
                    self.d * d2)

    __radd__ = __add__

    def __neg__(self):
        return _qqi_raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QQi.coerce(other))

    def __rsub__(self, other):
        return QQi.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, QQi):
            a2, b2, d2 = other.a, other.b, other.d
        elif isinstance(other, int):
            a2, b2, d2 = other, 0, 1
        elif isinstance(other, Fraction):
            a2, b2, d2 = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        a1, b1, d1 = self.a, self.b, self.d
        return _qqi(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("QQi division by zero")
        return _qqi(self.d * self.a, -self.d * self.b, n)

    def __truediv__(self, other):
        return self * QQi.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QQi.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QQI_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "QQi":
        return _qqi_raw(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.d == 1 and self.b == 0 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.re == other
        if not isinstance(other, QQi):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        return (self.a + 1j * self.b) / self.d

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)

AFFINE = "affine"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: dimension plus the kind of each coordinate.

    Affine coordinates are real polynomial variables; periodic coordinates
    are angles, represented through integer powers of e^{i*x_j}.
    """

    kinds: tuple

    def __post_init__(self):
        for k in self.kinds:
            if k not in (AFFINE, PERIODIC):
                raise ValueError(f"unknown coordinate kind {k!r}")

    @property
    def dim(self) -> int:
        return len(self.kinds)

    @staticmethod
    def affine(dim: int) -> "Chart":
        return Chart((AFFINE,) * dim)

    @staticmethod
    def torus(dim: int) -> "Chart":
        return Chart((PERIODIC,) * dim)


# Packed form of a PolyScalar (Monagan & Pearce, ISSAC 2009).  A monomial
# is written as little-endian 16-bit two's-complement exponent fields and
# read as one int with the sign bit of every field flipped, which stores e
# as e + 2**15.  The key of a product monomial is then the sum of the two
# keys minus that offset once per field.  Every exponent satisfies
# |e| < _FIELD_LIMIT, and a product is formed only when the exponent bounds
# of its factors add up to less than _FIELD_LIMIT, so every field of a sum
# stays inside [0, 2**16) and no carry reaches the next field.
_FIELD_LIMIT = 1 << 15


@lru_cache(maxsize=16)
def _packing(dim: int):
    """(per-field offset, 16-bit field struct) of a dim-variable monomial."""
    return int.from_bytes(b"\x00\x80" * dim, "little"), Struct(f"<{dim}h")


def _product_bound(bound1: int, bound2: int) -> int:
    """The exponent bound of a product, which must fit a packed field."""
    bound = bound1 + bound2
    if bound >= _FIELD_LIMIT:
        raise OverflowError(
            f"product exponents may reach {bound}, which does not fit a "
            f"packed monomial field (|e| < {_FIELD_LIMIT})")
    return bound


def _products_into(acc: dict, pairs, bias: int, negate: bool = False,
                   zeros: Optional[list] = None) -> None:
    """acc += (or -= when ``negate``) the products x*y of packed
    (terms, bound) pairs, one monomial product at a time.

    A new monomial is appended as a fresh [re, im] list and an existing one
    is updated in place.  A running sum that reaches zero is dropped, which
    is the order rule of one product (the monomial re-enters at the end if a
    later product brings it back); when ``zeros`` is a list the zero stays
    in place instead and its monomial is appended to ``zeros``.
    """
    get = acc.get
    for (terms1, _), (terms2, _) in pairs:
        items2 = terms2.items()
        for k1, (a1, b1) in terms1.items():
            k1 -= bias
            if negate:
                a1 = -a1
                b1 = -b1
            for k2, (a2, b2) in items2:
                k = k1 + k2
                s = get(k)
                if s is None:
                    acc[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                else:
                    re = s[0] + a1 * a2 - b1 * b2
                    im = s[1] + a1 * b2 + b1 * a2
                    s[0] = re
                    s[1] = im
                    if not (re or im):
                        if zeros is None:
                            del acc[k]
                        else:
                            zeros.append(k)


def _group_sum(pairs, bias: int, negate: bool, bounds):
    """±(sum_t x_t*y_t) on its own, as packed (terms, exponent bound) of the
    fold ``p_0 + p_1 + ...`` of its products, ``bounds`` being theirs.

    The products are summed straight into one dict, zeros kept in place.
    If no running sum of a monomial reaches zero, that is the fold's order
    and no running sum of the fold cancels, so the bound is the largest;
    otherwise the group is folded product by product (``linear_sum``).
    """
    group: dict = {}
    zeros: list = []
    _products_into(group, pairs, bias, negate, zeros)
    if not zeros:
        return group, max(bounds)
    products = []
    for pair, bound in zip(pairs, bounds):
        product: dict = {}
        _products_into(product, (pair,), bias, negate)
        products.append((product, 1, 0, bound))
    return linear_sum(products)


def _group_into(entry: dict, pairs, bias: int, negate: bool, bounds) -> None:
    """entry += ±(sum_t x_t*y_t), ordered as the fold ``entry + group``.

    The products are summed straight into ``entry``, zeros kept in place.
    That is the fold's order unless the running sum of a monomial new to
    ``entry`` reaches zero: a monomial that was already there keeps its
    place in the fold whatever the group does inside, so only its final
    value counts.  (A new monomial whose running sum never reaches zero
    sits where its first product put it in every sum and product the
    group is folded from.)  In the one bad case the group is summed again
    on its own (``_group_sum``) and the monomials new to ``entry`` are put
    in that order.  Monomials left at zero are dropped.
    """
    start = len(entry)
    zeros: list = []
    _products_into(entry, pairs, bias, negate, zeros)
    if not zeros:
        return
    new = dict(islice(entry.items(), start, None))
    if any(k in new for k in zeros):
        group = _group_sum(pairs, bias, negate, bounds)[0]
        for k in new:
            del entry[k]
        for k in group:
            if k in new:
                entry[k] = new[k]
    for k in zeros:
        v = entry.get(k)
        if v is not None and not (v[0] or v[1]):
            del entry[k]


def packed_matrices(mats):
    """PolyScalar matrices as numerator matrices over one common denominator.

    Returns (d, matrices) where entry [r][t] of each matrix is
    (numerator terms over d, exponent bound), or None for a zero entry.
    This is the factor format of ``sum_of_products``.
    """
    forms = [[[x._packed or x._pack() for x in row] for row in mat]
             for mat in mats]
    d = _lcm(*[e for mat in forms for row in mat for e, terms, _ in row if terms])
    return d, [[[(terms if e == d else _scaled(terms, d // e, 0), bound) if terms else None
                  for e, terms, bound in row] for row in mat] for mat in forms]


def sum_of_products(chart: Chart, groups):
    """sum_g ±(sum_t x_gt*y_gt) as packed (terms, exponent bound), from
    ``packed_matrices`` factors; the numerators are over the product of the
    factors' denominators, with the content not divided out.

    ``groups`` yields (negate, pairs), pairs being the one or more (x, y)
    factor pairs of one group, both factors nonzero.  The result equals the
    fold of the ring operations ``acc = acc + (±(x_0*y_0 + x_1*y_1 + ...))``
    in value, exponent bound and the key order of ``coeffs``.  Products
    are summed into one dict (``_group_into``) and no PolyScalar is built
    per product; a group of several products that may raise the bound is
    summed on its own first (``_group_sum``): its running sums decide it.
    """
    bias = _packing(chart.dim)[0]
    entry: dict = {}
    bound = 0
    for negate, pairs in groups:
        bounds = [_product_bound(b1, b2) for (_, b1), (_, b2) in pairs]
        top = max(bounds)
        if top > bound and len(pairs) > 1:
            group, top = _group_sum(pairs, bias, negate, bounds)
            entry = linear_sum([(entry, 1, 0, 0), (group, 1, 0, 0)])[0] if entry else group
        else:
            _group_into(entry, pairs, bias, negate, bounds)
        bound = max(bound, top) if entry else 0
    return entry, bound


def linear_sum(parts):
    """sum_i (p_i + q_i i) * terms_i of packed numerators, folded in order
    with the order rule of ``PolyScalar.__add__``: a monomial already in
    the sum keeps its place, a new one is appended and one whose sum
    cancels is dropped.  ``parts`` is a nonempty list of (terms, p, q,
    exponent bound), p + q i nonzero.

    Returns (terms, exponent bound).  The bound is the larger of the
    running sum's and the part's, and 0 where the running sum cancels: a
    zero has no terms and bound 0.  As in ``PolyScalar.__add__``, a
    numerator list is never changed in place, so the result may share
    lists, or with a single part of multiplier 1 be, the dict it was given.
    """
    terms, p, q, bound = parts[0]
    if p == 1 and not q:
        if len(parts) == 1:
            return terms, bound
        acc = dict(terms)
    else:
        acc = _scaled(terms, p, q)
    get = acc.get
    for terms, p, q, b in islice(parts, 1, None):
        if p != 1 or q:
            terms = _scaled(terms, p, q)
        for k, v in terms.items():
            s = get(k)
            if s is None:
                acc[k] = v
            else:
                re = s[0] + v[0]
                im = s[1] + v[1]
                if re or im:
                    acc[k] = [re, im]
                else:
                    del acc[k]
        bound = max(bound, b) if acc else 0
    return acc, bound


def _scaled(terms: dict, p: int, q: int) -> dict:
    """Packed numerators times p + q*i, as new lists in a new dict."""
    if q:
        return {k: [a * p - b * q, a * q + b * p] for k, (a, b) in terms.items()}
    return {k: [a * p, b * p] for k, (a, b) in terms.items()}


def content(d: int, entries) -> int:
    """gcd of d and every numerator of the packed terms dicts ``entries``."""
    g = d
    for terms in entries:
        for re, im in terms.values():
            g = _gcd(g, re, im)
            if g == 1:
                return 1
    return g


def packed_diff(chart: Chart, terms: dict, j: int):
    """d/dx_j of packed numerators, as (terms, exponent bound) over the same
    denominator.

    On an affine field the key moves down by one and the numerator is
    multiplied by e; on a periodic field the key stays and the numerator is
    multiplied by i*e.  Terms with e = 0 go.  Distinct keys stay distinct,
    so nothing cancels and the terms keep their order.  The bound is the
    largest |exponent| of the result, as a repacked derivative would have.
    """
    shift = 16 * j
    out = {}
    if chart.kinds[j] == AFFINE:
        step = 1 << shift
        for k, (a, b) in terms.items():
            e = ((k >> shift) & 0xFFFF) - 0x8000
            if e:
                out[k - step] = [a * e, b * e]
    else:
        for k, (a, b) in terms.items():
            e = ((k >> shift) & 0xFFFF) - 0x8000
            if e:
                out[k] = [-b * e, a * e]
    if not out:
        return out, 0
    bias = _packing(chart.dim)[0]
    n = 2 * chart.dim
    fields = array("h", b"".join([(k ^ bias).to_bytes(n, "little") for k in out]))
    if sys.byteorder != "little":
        fields.byteswap()
    return out, max(max(fields), -min(fields))


class PolyScalar:
    """Polynomial / trigonometric-polynomial function on a chart.

    Monomials are exponent tuples; affine coordinates require nonnegative
    exponents, periodic ones allow any integer (Laurent) exponent.
    Coefficients are Gaussian rationals, so every identity test is exact.

    ``coeffs`` maps monomials to nonzero QQi coefficients.  The ring
    operations work on a packed form instead: a common denominator d, a
    dict from packed monomial to the Gaussian-integer numerator
    [re, im] = coefficient * d, and a bound on |exponent| over the terms
    present; a zero has no terms and bound 0.  Each form is
    built from the other on first use and cached, so a coefficient is
    normalised to a QQi only when somebody reads ``coeffs``.  Both forms
    list the terms in the same order, and every operation keeps the term
    order of the coefficient-wise computation: a sum that cancels drops its
    monomial, which re-enters at the end if a later term brings it back.
    """

    __slots__ = ("chart", "_coeffs", "_packed", "_hash")

    def __init__(self, chart: Chart, coeffs: Optional[dict] = None):
        self.chart = chart
        clean = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = QQi.coerce(c)
                if c.is_zero():
                    continue
                if len(mono) != chart.dim:
                    raise ValueError("monomial arity does not match chart")
                for e, kind in zip(mono, chart.kinds):
                    if kind == AFFINE and e < 0:
                        raise ValueError("negative power of an affine coordinate")
                clean[tuple(mono)] = c
        self._coeffs = clean
        self._packed = None
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, chart: Chart, coeffs: dict) -> "PolyScalar":
        """Internal constructor: coefficients already canonical and nonzero."""
        p = cls.__new__(cls)
        p.chart = chart
        p._coeffs = coeffs
        p._packed = None
        p._hash = None
        return p

    @classmethod
    def _from_packed(cls, chart: Chart, d: int, terms: dict,
                     bound: int) -> "PolyScalar":
        """Internal constructor from a packed form with nonzero numerators."""
        p = cls.__new__(cls)
        p.chart = chart
        p._coeffs = None
        p._packed = (d, terms, bound)
        p._hash = None
        return p

    @classmethod
    def _reduced(cls, chart: Chart, d: int, terms: dict,
                 bound: int) -> "PolyScalar":
        """``_from_packed`` after dividing out the content of d and the
        numerators, so that d is the lcm of the coefficient denominators.
        ``terms`` must be fresh: its numerators are divided in place."""
        g = content(d, (terms,))
        if g > 1:
            d //= g
            for v in terms.values():
                v[0] //= g
                v[1] //= g
        return cls._from_packed(chart, d, terms, bound)

    @staticmethod
    def const(chart: Chart, c) -> "PolyScalar":
        c = QQi.coerce(c)
        zero = (0,) * chart.dim
        return PolyScalar(chart, {zero: c})

    @staticmethod
    def coordinate(chart: Chart, j: int, power: int = 1) -> "PolyScalar":
        """x_j**power (affine) or e^{i*power*x_j} (periodic)."""
        mono = [0] * chart.dim
        mono[j] = power
        return PolyScalar(chart, {tuple(mono): QQI_ONE})

    @staticmethod
    def cos(chart: Chart, j: int, freq: int = 1) -> "PolyScalar":
        z = PolyScalar.coordinate(chart, j, freq)
        zbar = PolyScalar.coordinate(chart, j, -freq)
        return (z + zbar) * Fraction(1, 2)

    @staticmethod
    def sin(chart: Chart, j: int, freq: int = 1) -> "PolyScalar":
        z = PolyScalar.coordinate(chart, j, freq)
        zbar = PolyScalar.coordinate(chart, j, -freq)
        return (z - zbar) * QQi(0, Fraction(-1, 2))

    # -- the two forms ------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """Monomial -> nonzero QQi; built from the packed form on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = self._unpack()
        return coeffs

    def _pack(self):
        """Cache and return the packed form (d, terms, exponent bound)."""
        bias, fields = _packing(self.chart.dim)
        coeffs = self._coeffs
        d = _lcm(*[c.d for c in coeffs.values()])
        bound = 0
        terms = {}
        for mono, c in coeffs.items():
            if mono:
                e = max(max(mono), -min(mono))
                if e > bound:
                    if e >= _FIELD_LIMIT:
                        raise OverflowError(
                            f"exponent {e} does not fit a packed monomial field "
                            f"(|e| < {_FIELD_LIMIT})")
                    bound = e
            f = d // c.d
            key = int.from_bytes(fields.pack(*mono), "little") ^ bias
            terms[key] = [c.a * f, c.b * f]
        self._packed = (d, terms, bound)
        return self._packed

    def _unpack(self) -> dict:
        """The ``coeffs`` dict of the packed form: one gcd per term."""
        d, terms, _ = self._packed
        bias, fields = _packing(self.chart.dim)
        nbytes = 2 * self.chart.dim
        unpack = fields.unpack
        new = QQi.__new__
        coeffs = {}
        for k, (re, im) in terms.items():
            q = new(QQi)
            g = _gcd(re, im, d)
            if g > 1:
                q.a, q.b, q.d = re // g, im // g, d // g
            else:
                q.a, q.b, q.d = re, im, d
            coeffs[unpack((k ^ bias).to_bytes(nbytes, "little"))] = q
        return coeffs

    # -- ring operations ----------------------------------------------

    def _check(self, other: "PolyScalar"):
        if self.chart != other.chart:
            raise ValueError("scalars live on different charts")

    def __add__(self, other):
        if not isinstance(other, PolyScalar):
            other = PolyScalar.const(self.chart, other)
        if self.chart is not other.chart:
            self._check(other)
        d1, terms1, bound1 = self._packed or self._pack()
        d2, terms2, bound2 = other._packed or other._pack()
        d = d1 if d2 == d1 else _lcm(d1, d2)
        out, bound = linear_sum([(terms1, d // d1, 0, bound1), (terms2, d // d2, 0, bound2)])
        return PolyScalar._from_packed(self.chart, d, out, bound)

    __radd__ = __add__

    def __neg__(self):
        d, terms, bound = self._packed or self._pack()
        return PolyScalar._from_packed(self.chart, d, _scaled(terms, -1, 0), bound)

    def __sub__(self, other):
        if not isinstance(other, PolyScalar):
            other = PolyScalar.const(self.chart, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PolyScalar):
            c = QQi.coerce(other)
            if c.is_zero():
                return PolyScalar._raw(self.chart, {})
            d, terms, bound = self._packed or self._pack()
            return PolyScalar._reduced(self.chart, d * c.d, _scaled(terms, c.a, c.b), bound)
        if self.chart is not other.chart:
            self._check(other)
        if self.is_zero() or other.is_zero():
            return PolyScalar._raw(self.chart, {})
        d1, terms1, bound1 = self._packed or self._pack()
        d2, terms2, bound2 = other._packed or other._pack()
        bound = _product_bound(bound1, bound2)
        # Gaussian-integer numerators over the common denominator d1*d2.
        acc: dict = {}
        _products_into(acc, (((terms1, bound1), (terms2, bound2)),),
                       _packing(self.chart.dim)[0])
        return PolyScalar._reduced(self.chart, d1 * d2, acc, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of PolyScalar are not supported")
        out = PolyScalar.const(self.chart, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ------------------------------------------------------

    def diff(self, j: int) -> "PolyScalar":
        """Partial derivative along coordinate j (``packed_diff``).

        For a periodic coordinate this is d/dx_j acting on e^{i*k*x_j},
        which multiplies the monomial by i*k.
        """
        d, terms, _ = self._packed or self._pack()
        terms, bound = packed_diff(self.chart, terms, j)
        return PolyScalar._from_packed(self.chart, d, terms, bound)

    def conj(self) -> "PolyScalar":
        """Complex conjugate; affine coordinates are real, periodic exponents flip."""
        out: dict = {}
        for mono, c in self.coeffs.items():
            m = tuple(
                -e if kind == PERIODIC else e
                for e, kind in zip(mono, self.chart.kinds)
            )
            s = out.get(m)
            s = c.conj() if s is None else s + c.conj()
            out[m] = s
        return PolyScalar._raw(self.chart, {m: c for m, c in out.items() if not (c.a == 0 and c.b == 0)})

    # -- predicates and interop ----------------------------------------

    def is_zero(self) -> bool:
        if self._coeffs is None:
            return not self._packed[1]
        return not self._coeffs

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = PolyScalar.const(self.chart, other)
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            key = tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))
            self._hash = hash((self.chart, key))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "PolyScalar<0>"
        parts = []
        for mono, c in sorted(self.coeffs.items()):
            vars_part = "".join(
                f"*{'z' if k == PERIODIC else 'x'}{j}^{e}"
                for j, (e, k) in enumerate(zip(mono, self.chart.kinds))
                if e
            )
            parts.append(f"({c}){vars_part}")
        return "PolyScalar<" + " + ".join(parts) + ">"


class JetScalar:
    """Complex samples on quadrature nodes plus analytic first derivatives.

    ``values`` has shape (n_nodes,); ``grads`` has shape (dim, n_nodes) or is
    None when no derivative data was supplied (after one differentiation,
    for instance).  Products propagate derivatives by the Leibniz rule;
    nothing is ever differentiated numerically.  A sum, difference or
    product has gradients only when both operands have them (the presence
    rule).

    Both arrays are read-only, so the answer of ``is_zero`` is computed once
    and kept, and an operation may hand back an operand.  Zeros and ones
    are structural:

    * ``JetScalar.zero`` makes a zero that is flagged from the start, and
      builders share one such zero across every zero entry of a matrix;
    * ``JetScalar.const(..., 1)`` is flagged as a structural one;
    * a sum or difference with a zero operand is the other operand (negated
      for zero - y), a product with a one is the other factor, and negating
      or scaling a zero by a finite number returns the zero;
    * where the presence rule drops the other operand's gradients, the
      result is a copy that shares its value array, keeps its one flag and
      has its zero flag reset, as a flat operand (zero values, nonzero
      gradients) is zero without its gradients.

    Signed zeros: these shortcuts return an operand's samples unchanged, so
    they equal IEEE arithmetic on the samples up to the sign of a zero part
    (+0 + -0 is +0, and a complex product by 1 + 0j may flip the sign of a
    zero part) and up to the NaN parts that a product with 0 or 1 + 0j
    makes of an infinite sample.  Every other difference is x - y computed
    directly, which IEEE defines as x + (-y).
    """

    __slots__ = ("chart", "values", "grads", "_zero", "_one")

    def __init__(self, chart: Chart, values, grads=None):
        self.chart = chart
        self.values = np.asarray(values, dtype=complex)
        self.values.flags.writeable = False
        if grads is not None:
            grads = np.asarray(grads, dtype=complex)
            if grads.shape != (chart.dim,) + self.values.shape:
                raise ValueError("gradient shape mismatch")
            grads.flags.writeable = False
        self.grads = grads
        self._zero = None
        self._one = False

    @staticmethod
    def const(chart: Chart, c, n_nodes: int) -> "JetScalar":
        c = complex(c)
        v = np.full(n_nodes, c, dtype=complex)
        g = np.zeros((chart.dim, n_nodes), dtype=complex)
        out = JetScalar(chart, v, g)
        out._one = c == 1
        return out

    @staticmethod
    def zero(chart: Chart, n_nodes: int, grads: bool = True) -> "JetScalar":
        """The constant 0, known to be zero; with zero gradients unless
        ``grads`` is false."""
        v = np.zeros(n_nodes, dtype=complex)
        g = np.zeros((chart.dim, n_nodes), dtype=complex) if grads else None
        out = JetScalar(chart, v, g)
        out._zero = True
        return out

    def _check(self, other: "JetScalar"):
        if self.chart != other.chart or self.values.shape != other.values.shape:
            raise ValueError("jet grids are incompatible")

    def _without_grads(self) -> "JetScalar":
        """A copy with no gradients that shares the value array; it is a one
        if this jet is, and a flat jet becomes zero, so its zero flag is
        found again."""
        out = JetScalar(self.chart, self.values, None)
        out._one = self._one
        return out

    def _plus_zero(self, zero: "JetScalar") -> "JetScalar":
        """self + zero under the presence rule."""
        if zero.grads is None and self.grads is not None:
            return zero if self.is_zero() else self._without_grads()
        return self

    def _times_one(self, one: "JetScalar") -> "JetScalar":
        """self * one under the presence rule."""
        if one.grads is None and self.grads is not None:
            return self._without_grads()
        return self

    def __add__(self, other):
        if not isinstance(other, JetScalar):
            other = JetScalar.const(self.chart, complex(other), len(self.values))
        self._check(other)
        if other.is_zero():
            return self._plus_zero(other)
        if self.is_zero():
            return other._plus_zero(self)
        g = None
        if self.grads is not None and other.grads is not None:
            g = self.grads + other.grads
        return JetScalar(self.chart, self.values + other.values, g)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        g = None if self.grads is None else -self.grads
        out = JetScalar(self.chart, -self.values, g)
        out._zero = False
        return out

    def __sub__(self, other):
        if not isinstance(other, JetScalar):
            other = JetScalar.const(self.chart, complex(other), len(self.values))
        self._check(other)
        if other.is_zero():
            return self._plus_zero(other)
        if self.is_zero():
            return (-other)._plus_zero(self)
        g = None
        if self.grads is not None and other.grads is not None:
            g = self.grads - other.grads
        return JetScalar(self.chart, self.values - other.values, g)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, JetScalar):
            c = complex(other)
            # a NaN or inf factor must still reach the samples
            if cmath.isfinite(c) and self.is_zero():
                return self
            g = None if self.grads is None else self.grads * c
            return JetScalar(self.chart, self.values * c, g)
        self._check(other)
        if other._one:
            return self._times_one(other)
        if self._one:
            return other._times_one(self)
        g = None
        if self.grads is not None and other.grads is not None:
            g = self.grads * other.values[None, :] + self.values[None, :] * other.grads
        return JetScalar(self.chart, self.values * other.values, g)

    __rmul__ = __mul__

    def diff(self, j: int) -> "JetScalar":
        if self.grads is None:
            raise ValueError("no derivative data left (second derivatives unavailable)")
        return JetScalar(self.chart, self.grads[j], None)

    def conj(self) -> "JetScalar":
        g = None if self.grads is None else np.conj(self.grads)
        return JetScalar(self.chart, np.conj(self.values), g)

    def is_zero(self) -> bool:
        """Zero in value and derivative, so a product with it adds nothing."""
        if self._zero is None:
            self._zero = not self.values.any() and (
                self.grads is None or not self.grads.any())
        return self._zero

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __repr__(self):
        return f"JetScalar<n={self.values.size}, max={self.max_abs():.3e}>"
