"""Derivations of a matrix-form algebra and their cochain complex.

A derivation is a constant-coefficient vector field lifted through the
gauge connection plus an inner part ad(beta).  Constant anchors commute,
so the bracket of two derivations is purely inner, with the curvature
contribution omega(c, c') entering the inner part.

The Chevalley-Eilenberg differential acts on alternating multilinear
cochains valued in scalar functions; cochains are evaluation closures
since the derivation space is infinite dimensional over a chart.

``derivation_character`` maps cyclic chains to such cochains by the
signed permutation sum of traces, normalized by 1/k! so that it
intertwines the cyclic suspension with the cochain differential.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, List, Sequence, Tuple

from .cyclic import Chain
from .forms import Connection, MatrixForm, add_partials, trace_of_product
from .scalars import PolyScalar, QQi


def perm_sign(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def form_scalar(a: MatrixForm) -> PolyScalar:
    """Extract the scalar of a 1 x 1 degree-0 form."""
    if a.m != 1 or a.degrees() not in ([], [0]):
        raise ValueError("expected a scalar degree-0 form")
    if a.is_zero():
        return PolyScalar.const(a.chart, 0)
    return a.comps[()][0][0]


class Derivation:
    """X = sum_j c_j (d_j + ad theta_j) + ad beta acting on matrix forms.

    By bilinearity X(a) = sum_j c_j d_j a + [gamma, a] with
    gamma = beta + sum_j c_j theta_j, built once per derivation.  Each
    derivation remembers its actions and brackets: the memos are keyed by
    the id of the argument and keep the argument itself, so an id cannot be
    reused while its entry lives.
    """

    __slots__ = ("conn", "vector", "beta", "_gamma", "_applied", "_brackets")

    def __init__(self, conn: Connection, vector: Sequence = (),
                 beta: MatrixForm = None):
        self.conn = conn
        vec = tuple(QQi.coerce(v) for v in vector) if vector else ()
        if vec and len(vec) != conn.chart.dim:
            raise ValueError("vector part arity must match the chart")
        if not vec:
            vec = tuple(QQi(0) for _ in range(conn.chart.dim))
        self.vector = vec
        if beta is None:
            beta = conn.theta.zero_like(conn.m)
        if beta.degrees() not in ([], [0]) or beta.m != conn.m:
            raise ValueError("inner part must be a degree-0 algebra element")
        self.beta = beta
        gamma = beta
        for j, c in enumerate(vec):
            if not c.is_zero():
                theta_j = MatrixForm.from_entries(conn.chart, (), conn.theta.component((j,)))
                gamma = gamma + theta_j.scale(c)
        self._gamma = gamma
        self._applied = {}
        self._brackets = {}

    @staticmethod
    def inner(conn: Connection, beta: MatrixForm) -> "Derivation":
        return Derivation(conn, (), beta)

    def key(self):
        """Exact identity of the derivation (``MatrixForm`` equality is exact)."""
        return (self.vector, self.beta)

    def apply(self, a: MatrixForm) -> MatrixForm:
        """Leibniz action on a degree-0 algebra element."""
        hit = self._applied.get(id(a))
        if hit is not None:
            return hit[1]
        if a.degrees() not in ([], [0]):
            raise ValueError("derivations act on degree-0 elements")
        out = add_partials(self._gamma * a - a * self._gamma, a, self.vector)
        self._applied[id(a)] = (a, out)
        return out

    def anchor(self, f: PolyScalar) -> PolyScalar:
        """Action on the scalar center (the underlying vector field)."""
        out = PolyScalar.const(f.chart, 0)
        for j, c in enumerate(self.vector):
            if not c.is_zero():
                out = out + f.diff(j) * c
        return out

    def bracket(self, other: "Derivation") -> "Derivation":
        """[X, Y]: inner since constant anchors commute; includes curvature.

        The inner part is X_vec(beta') - Y_vec(beta) + [beta, beta'] plus
        omega(c, c'), read here as X(beta') - Y(beta) - [beta, beta'].
        """
        hit = self._brackets.get(id(other))
        if hit is not None:
            return hit[1]
        conn = self.conn
        xb, yb = self.beta, other.beta
        gamma = self.apply(yb) - other.apply(xb) - (xb * yb - yb * xb)
        # curvature term omega(c, c')
        for (i, j), mat in conn.omega.comps.items():
            coef = self.vector[i] * other.vector[j] - self.vector[j] * other.vector[i]
            if coef.is_zero():
                continue
            omega_ij = MatrixForm.from_entries(conn.chart, (), mat)
            gamma = gamma + omega_ij.scale(coef)
        out = Derivation(conn, (), gamma)
        self._brackets[id(other)] = (other, out)
        return out


def leibniz_defect(x: Derivation, a: MatrixForm, b: MatrixForm) -> MatrixForm:
    return x.apply(a * b) - x.apply(a) * b - a * x.apply(b)


class AlternatingForm:
    """Degree-p alternating multilinear cochain valued in scalar functions."""

    def __init__(self, degree: int, evaluate: Callable[..., PolyScalar]):
        self.degree = degree
        self._evaluate = evaluate
        self._cache = {}

    def __call__(self, *xs: Derivation) -> PolyScalar:
        if len(xs) != self.degree:
            raise ValueError(
                f"cochain of degree {self.degree} evaluated on {len(xs)} arguments"
            )
        key = tuple(x.key() for x in xs)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._evaluate(*xs)
            self._cache[key] = hit
        return hit

    @staticmethod
    def alternating_from_seeds(seeds: List[Tuple[MatrixForm, MatrixForm]]) -> "AlternatingForm":
        """Antisymmetrized product of trace pairings, one per argument."""
        p = len(seeds)

        def evaluate(*xs: Derivation) -> PolyScalar:
            chart = seeds[0][0].chart
            total = PolyScalar.const(chart, 0)
            for perm in itertools.permutations(range(p)):
                sgn = perm_sign(perm)
                prod = PolyScalar.const(chart, 1)
                for (b, b2), idx in zip(seeds, perm):
                    prod = prod * form_scalar(trace_of_product(b, xs[idx].apply(b2)))
                total = total + (prod if sgn > 0 else -prod)
            return total

        return AlternatingForm(p, evaluate)


def ce_differential(omega: AlternatingForm, *xs: Derivation) -> PolyScalar:
    """(d omega)(X_0, ..., X_p) by the Cartan formula.

    Arguments act on values through their anchors; bracket terms use the
    derivation bracket with its curvature contribution.
    """
    p = omega.degree
    if len(xs) != p + 1:
        raise ValueError("argument count must be degree + 1")
    chart = xs[0].conn.chart
    total = PolyScalar.const(chart, 0)
    for i, x in enumerate(xs):
        rest = xs[:i] + xs[i + 1:]
        val = x.anchor(omega(*rest))
        total = total + (val if i % 2 == 0 else -val)
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            rest = tuple(
                xs[t] for t in range(p + 1) if t != i and t != j
            )
            val = omega(xs[i].bracket(xs[j]), *rest)
            total = total + (-val if (i + j) % 2 else val)
    return total


def ce_d(omega: AlternatingForm) -> AlternatingForm:
    return AlternatingForm(
        omega.degree + 1, lambda *xs: ce_differential(omega, *xs)
    )


def derivation_character(ch: Chain, xs: Sequence[Derivation]) -> PolyScalar:
    """Signed permutation-sum character of a chain on derivation tuples.

    (1/k!) sum_sigma sgn(sigma) tr(b_0 X_{sigma(1)}(b_1) ... X_{sigma(k)}(b_k)).
    The 1/k! normalization makes this intertwine the cyclic suspension
    with the cochain differential exactly.
    """
    k = ch.degree
    if len(xs) != k:
        raise ValueError(f"chain degree {k} needs {k} derivations")
    if not ch.terms:
        probe_chart = xs[0].conn.chart if xs else None
        if probe_chart is None:
            raise ValueError("cannot infer chart from an empty chain with no arguments")
        return PolyScalar.const(probe_chart, 0)
    chart = ch.terms[0][1][0].chart
    perms = [(perm, perm_sign(perm)) for perm in itertools.permutations(range(k))]
    total = PolyScalar.const(chart, 0)
    for coef, t in ch.terms:
        acc = PolyScalar.const(chart, 0)
        # prefix[p] = b_0 X_p[0](b_1) ... X_p[-1](b_len(p)), shared by the
        # permutations that start with p
        prefix = {(): t[0]}
        for perm, sgn in perms:
            if not k:
                val = form_scalar(t[0].trace())
            else:
                for pos in range(k - 1):
                    if perm[:pos + 1] not in prefix:
                        prefix[perm[:pos + 1]] = (
                            prefix[perm[:pos]] * xs[perm[pos]].apply(t[pos + 1]))
                val = form_scalar(trace_of_product(prefix[perm[:-1]],
                                                   xs[perm[-1]].apply(t[k])))
            acc = acc + (val if sgn > 0 else -val)
        total = total + acc * (coef * Fraction(1, factorial(k)))
    return total


def chain_cochain(ch: Chain) -> AlternatingForm:
    return AlternatingForm(ch.degree, lambda *xs: derivation_character(ch, xs))
