"""Exact and sampled scalar coefficient rings.

* ``QQi`` -- Gaussian rationals a + b*i with ``Fraction`` components.
  All algebraic identities are decided with zero tolerance over this ring.
* ``PolyScalar`` -- multivariate polynomial (affine variables) or Laurent
  polynomial (periodic variables, monomials are integer powers of
  e^{i*x_j}) with QQi coefficients over a fixed ``Chart``: the entries of
  a ``forms.ExactForm``.
* ``JetScalar`` -- complex sample grids over quadrature nodes together
  with analytically supplied first derivatives, so that differentiation
  never falls back to finite differences: the entries of a ``JetForm``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice
from math import gcd as _gcd, lcm as _lcm
from operator import or_
from typing import Optional, Union

from ._numpy import np

RationalLike = Union[int, Fraction]


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
        # a real value hashes as the int or Fraction it equals
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

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
# is one int of little-endian 17-bit fields, field j holding e_j + 2**15, so
# an exponent packs when -2**15 <= e < 2**15; every packed field then lies
# in [0, 2**16) and its top bit, the guard, is clear.  The key of a product
# monomial is the sum of the two keys minus the offset once per field.  Each
# of its fields lies in [-2**15, 3 * 2**15), a window of 2**17 values, so
# distinct monomials keep distinct keys and a cancellation is a true one.  A
# field outside [0, 2**16) sets its own guard bit (a negative field borrows
# from the next one and reads 2**17 plus its value), so a monomial leaves
# the window exactly when its key meets the guard mask.
_OFFSET = 1 << 15
_WIDTH = 17


@lru_cache(maxsize=16)
def _packing(dim: int):
    """(per-field offset, guard mask) of a dim-variable monomial key."""
    fields = range(0, _WIDTH * dim, _WIDTH)
    return sum(_OFFSET << s for s in fields), sum(1 << s + 16 for s in fields)


def _in_window(terms: dict, guard: int) -> dict:
    """``terms``, once no monomial of it has left the packed window."""
    if reduce(or_, terms, 0) & guard:
        raise OverflowError("a monomial exponent leaves the packed window "
                            "-2**15 <= e < 2**15")
    return terms


def _products_into(acc: dict, pairs, bias: int, negate: bool = False,
                   zeros: Optional[list] = None) -> None:
    """acc += (or -= when ``negate``) the products x*y of the pairs of
    packed terms dicts, one monomial product at a time.

    A new monomial is appended as a fresh [re, im] list and an existing one
    is updated in place.  A running sum that reaches zero is dropped, which
    is the order rule of one product (the monomial re-enters at the end if a
    later product brings it back); when ``zeros`` is a list the zero stays
    in place instead and its monomial is appended to ``zeros``.
    """
    get = acc.get
    for terms1, terms2 in pairs:
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


def _group_sum(pairs, bias: int, negate: bool) -> dict:
    """±(sum_t x_t*y_t) on its own, as the packed terms of the fold
    ``p_0 + p_1 + ...`` of its products.

    The products are summed straight into one dict, zeros kept in place.
    If no running sum of a monomial reaches zero, that is the fold's order;
    otherwise the group is folded product by product (``linear_sum``).
    """
    group: dict = {}
    zeros: list = []
    _products_into(group, pairs, bias, negate, zeros)
    if not zeros:
        return group
    products = []
    for pair in pairs:
        product: dict = {}
        _products_into(product, (pair,), bias, negate)
        products.append((product, 1, 0))
    return linear_sum(products)


def _group_into(entry: dict, pairs, bias: int, negate: bool) -> None:
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
        group = _group_sum(pairs, bias, negate)
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

    Returns (d, matrices), each matrix a tuple of row tuples whose entry is
    the dict of numerator terms over d, or None for a zero entry.  This is
    the factor format of ``sum_of_products``.
    """
    forms = [[[x._packed or x._pack() for x in row] for row in mat]
             for mat in mats]
    d = _lcm(*[e for mat in forms for row in mat for e, terms in row if terms])
    return d, [tuple(tuple((terms if e == d else _scaled(terms, d // e, 0)) if terms else None
                           for e, terms in row) for row in mat) for mat in forms]


def sum_of_products(chart: Chart, groups) -> dict:
    """sum_g ±(sum_t x_gt*y_gt) as packed terms, from ``packed_matrices``
    factors; the numerators are over the product of the factors'
    denominators, with the content not divided out.

    ``groups`` yields (negate, pairs), pairs being the one or more (x, y)
    factor pairs of one group, both factors nonzero.  The result equals the
    fold of the ring operations ``acc = acc + (±(x_0*y_0 + x_1*y_1 + ...))``
    in value and in the key order of ``coeffs``.  Products are summed into
    one dict (``_group_into``) and no PolyScalar is built per product.
    Raises OverflowError when a monomial of the result leaves the packed
    window; one that cancels on the way does not count.
    """
    bias, guard = _packing(chart.dim)
    entry: dict = {}
    for negate, pairs in groups:
        _group_into(entry, pairs, bias, negate)
    return _in_window(entry, guard)


def linear_sum(parts) -> dict:
    """sum_i (p_i + q_i i) * terms_i of packed numerators, folded in order
    with the order rule of ``PolyScalar.__add__``: a monomial already in
    the sum keeps its place, a new one is appended and one whose sum
    cancels is dropped.  ``parts`` is a nonempty list of (terms, p, q),
    p + q i nonzero.

    Returns the terms of the sum; a zero has none.  As in
    ``PolyScalar.__add__``, a numerator list is never changed in place, so
    the result may share lists, or with a single part of multiplier 1 be,
    the dict it was given.
    """
    terms, p, q = parts[0]
    if p == 1 and not q:
        if len(parts) == 1:
            return terms
        acc = dict(terms)
    else:
        acc = _scaled(terms, p, q)
    get = acc.get
    for terms, p, q in islice(parts, 1, None):
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
    return acc


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


def packed_diff(chart: Chart, terms: dict, j: int) -> dict:
    """d/dx_j of packed numerators, as packed terms over the same
    denominator.

    On an affine field the key moves down by one and the numerator is
    multiplied by e; on a periodic field the key stays and the numerator is
    multiplied by i*e.  Terms with e = 0 go.  Distinct keys stay distinct,
    so nothing cancels and the terms keep their order; an affine exponent
    is positive where it moves, so every key stays in the window.
    """
    shift = _WIDTH * j
    if chart.kinds[j] == AFFINE:
        step = 1 << shift
        return {k - step: [a * e, b * e] for k, (a, b) in terms.items()
                if (e := (k >> shift & 0xFFFF) - _OFFSET)}
    return {k: [-b * e, a * e] for k, (a, b) in terms.items()
            if (e := (k >> shift & 0xFFFF) - _OFFSET)}


class PolyScalar:
    """Polynomial / trigonometric-polynomial function on a chart.

    Monomials are exponent tuples; affine coordinates require nonnegative
    exponents, periodic ones allow any integer (Laurent) exponent.
    Coefficients are Gaussian rationals, so every identity test is exact.

    ``coeffs`` maps monomials to nonzero QQi coefficients.  The ring
    operations work on a packed form instead: a common denominator d and a
    dict from packed monomial to the Gaussian-integer numerator
    [re, im] = coefficient * d; a zero has no terms.  Each form is built
    from the other on first use and cached, so a coefficient is normalised
    to a QQi only when somebody reads ``coeffs``.  Both forms list the
    terms in the same order, and every operation keeps the term order of
    the coefficient-wise computation: a sum that cancels drops its
    monomial, which re-enters at the end if a later term brings it back.
    Every exponent must satisfy -2**15 <= e < 2**15 to pack; the
    constructor, a product or a conjugate with a monomial outside raises
    OverflowError.
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
                    if not -_OFFSET <= e < _OFFSET:
                        raise OverflowError(f"exponent {e} leaves the packed window "
                                            "-2**15 <= e < 2**15")
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
    def _from_packed(cls, chart: Chart, d: int, terms: dict) -> "PolyScalar":
        """Internal constructor from a packed form with nonzero numerators."""
        p = cls.__new__(cls)
        p.chart = chart
        p._coeffs = None
        p._packed = (d, terms)
        p._hash = None
        return p

    @classmethod
    def _reduced(cls, chart: Chart, d: int, terms: dict) -> "PolyScalar":
        """``_from_packed`` after dividing out the content of d and the
        numerators, so that d is the lcm of the coefficient denominators.
        ``terms`` must be fresh: its numerators are divided in place."""
        g = content(d, (terms,))
        if g > 1:
            d //= g
            for v in terms.values():
                v[0] //= g
                v[1] //= g
        return cls._from_packed(chart, d, terms)

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
        """Cache and return the packed form (d, terms)."""
        coeffs = self._coeffs
        d = _lcm(*[c.d for c in coeffs.values()])
        terms = {}
        for mono, c in coeffs.items():
            key = 0
            for e in reversed(mono):
                key = key << _WIDTH | e + _OFFSET
            f = d // c.d
            terms[key] = [c.a * f, c.b * f]
        self._packed = (d, terms)
        return self._packed

    def _unpack(self) -> dict:
        """The ``coeffs`` dict of the packed form: one gcd per term."""
        d, terms = self._packed
        shifts = range(0, _WIDTH * self.chart.dim, _WIDTH)
        new = QQi.__new__
        coeffs = {}
        for k, (re, im) in terms.items():
            q = new(QQi)
            g = _gcd(re, im, d)
            if g > 1:
                q.a, q.b, q.d = re // g, im // g, d // g
            else:
                q.a, q.b, q.d = re, im, d
            coeffs[tuple([(k >> s & 0xFFFF) - _OFFSET for s in shifts])] = q
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
        d1, terms1 = self._packed or self._pack()
        d2, terms2 = other._packed or other._pack()
        d = d1 if d2 == d1 else _lcm(d1, d2)
        out = linear_sum([(terms1, d // d1, 0), (terms2, d // d2, 0)])
        return PolyScalar._from_packed(self.chart, d, out)

    __radd__ = __add__

    def __neg__(self):
        d, terms = self._packed or self._pack()
        return PolyScalar._from_packed(self.chart, d, _scaled(terms, -1, 0))

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
            d, terms = self._packed or self._pack()
            return PolyScalar._reduced(self.chart, d * c.d, _scaled(terms, c.a, c.b))
        if self.chart is not other.chart:
            self._check(other)
        if self.is_zero() or other.is_zero():
            return PolyScalar._raw(self.chart, {})
        d1, terms1 = self._packed or self._pack()
        d2, terms2 = other._packed or other._pack()
        bias, guard = _packing(self.chart.dim)
        # Gaussian-integer numerators over the common denominator d1*d2.
        acc: dict = {}
        _products_into(acc, ((terms1, terms2),), bias)
        return PolyScalar._reduced(self.chart, d1 * d2, _in_window(acc, guard))

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
        d, terms = self._packed or self._pack()
        return PolyScalar._from_packed(self.chart, d, packed_diff(self.chart, terms, j))

    def conj(self) -> "PolyScalar":
        """Complex conjugate; affine coordinates are real, periodic exponents
        flip, so a periodic field f becomes 2**16 - f.  A periodic exponent
        -2**15 flips to 2**15, which does not pack: OverflowError."""
        d, terms = self._packed or self._pack()
        guard = _packing(self.chart.dim)[1]
        periodic = sum(0x1FFFF << _WIDTH * j
                       for j, kind in enumerate(self.chart.kinds) if kind == PERIODIC)
        flip = periodic & guard
        out = {k - 2 * (k & periodic) + flip: [a, -b] for k, (a, b) in terms.items()}
        return PolyScalar._from_packed(self.chart, d, _in_window(out, guard))

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
        # a constant hashes as the coefficient it equals
        if self._hash is None:
            coeffs = self.coeffs
            if self.is_constant():
                self._hash = hash(coeffs.get((0,) * self.chart.dim, QQI_ZERO))
            else:
                key = tuple(sorted(coeffs.items(), key=lambda kv: kv[0]))
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
