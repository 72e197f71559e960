"""Seeded random instance generators for the verification suites.

All randomness flows through ``random.Random(seed)`` so every derived
check is replayable from its scenario seed.  Exact unitaries are drawn
from signed permutations, fourth-root phases, Pythagorean phases such as
(3+4i)/5, and trigonometric rotation blocks, all of which stay inside
the Gaussian-rational world.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import List

from . import linalg
from .forms import Connection, ExactForm, MatrixForm
from .scalars import PERIODIC, Chart, PolyScalar, QQi, _qqi

EXACT_PHASES = [
    QQi(1),
    QQi(-1),
    QQi(0, 1),
    QQi(0, -1),
    QQi(Fraction(3, 5), Fraction(4, 5)),
    QQi(Fraction(3, 5), Fraction(-4, 5)),
    QQi(Fraction(5, 13), Fraction(12, 13)),
    QQi(Fraction(-5, 13), Fraction(12, 13)),
]


def random_qqi(rng: random.Random, span: int = 3) -> QQi:
    """p/q + (r/s) i, drawn in the order p, q, r, s, as one reduced triple."""
    p, q = rng.randint(-span, span), rng.randint(1, 3)
    r, s = rng.randint(-span, span), rng.randint(1, 3)
    return _qqi(p * s, r * q, q * s)


def random_poly(chart: Chart, rng: random.Random, deg: int = 1,
                terms: int = 2) -> PolyScalar:
    coeffs = {}
    for _ in range(terms):
        mono = []
        budget = deg
        for kind in chart.kinds:
            if kind == PERIODIC:
                e = rng.randint(-budget, budget)
            else:
                e = rng.randint(0, budget)
            budget -= abs(e)
            mono.append(e)
        coeffs[tuple(mono)] = random_qqi(rng)
    return PolyScalar(chart, coeffs)


def random_matrix_form(chart: Chart, m: int, rng: random.Random,
                       degree: int = 0, poly_deg: int = 1,
                       terms: int = 2) -> MatrixForm:
    """Random homogeneous exact form of the given degree."""
    return ExactForm(chart, m, {
        idx: tuple(
            tuple(random_poly(chart, rng, poly_deg, terms) for _ in range(m))
            for _ in range(m)
        )
        for idx in itertools.combinations(range(chart.dim), degree)
    })


def random_algebra_element(chart: Chart, m: int, rng: random.Random,
                           poly_deg: int = 1, terms: int = 2) -> MatrixForm:
    return random_matrix_form(chart, m, rng, 0, poly_deg, terms)


def random_connection(chart: Chart, m: int, rng: random.Random,
                      poly_deg: int = 1, terms: int = 2) -> Connection:
    return Connection(random_matrix_form(chart, m, rng, 1, poly_deg, terms))


def random_exact_unitary(n: int, rng: random.Random) -> tuple:
    """Constant unitary with Gaussian-rational entries: a product of
    three random permutations, diagonal phases and 3-4-5 rotations."""
    u = linalg.mat_eye(n, QQi(0), QQi(1))
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            p = tuple(
                tuple(QQi(1) if j == perm[i] else QQi(0) for j in range(n))
                for i in range(n)
            )
            u = linalg.mat_mul(u, p)
        elif kind == 1:
            d = tuple(
                tuple(
                    rng.choice(EXACT_PHASES) if i == j else QQi(0)
                    for j in range(n)
                )
                for i in range(n)
            )
            u = linalg.mat_mul(u, d)
        else:
            if n < 2:
                continue
            i, j = rng.sample(range(n), 2)
            a = QQi(Fraction(3, 5))
            b = rng.choice(EXACT_PHASES) * QQi(Fraction(4, 5))
            g = [[QQi(1) if r == c else QQi(0) for c in range(n)] for r in range(n)]
            g[i][i] = a
            g[i][j] = b
            g[j][i] = -b.conj()
            g[j][j] = a.conj()
            u = linalg.mat_mul(u, tuple(tuple(r) for r in g))
    return u


def random_trig_unitary_form(chart: Chart, n: int, rng: random.Random,
                             factors: int = 2) -> MatrixForm:
    """Unitary-valued degree-0 form with trig-polynomial entries.

    Alternates constant exact unitaries with plane rotations by a chart
    angle and diagonal phase twists z_j^k, so u* u = 1 holds exactly.
    """
    periodic = [j for j, k in enumerate(chart.kinds) if k == PERIODIC]
    u = ExactForm.const_matrix(chart, random_exact_unitary(n, rng))
    for _ in range(factors):
        if not periodic or rng.random() < 0.3:
            u = u * ExactForm.const_matrix(chart, random_exact_unitary(n, rng))
            continue
        j = rng.choice(periodic)
        freq = rng.choice([-2, -1, 1, 2])
        if n >= 2 and rng.random() < 0.6:
            r, s = rng.sample(range(n), 2)
            c = PolyScalar.cos(chart, j, freq)
            sn = PolyScalar.sin(chart, j, freq)
            zero = PolyScalar.const(chart, 0)
            one = PolyScalar.const(chart, 1)
            mat = [[one if a == b else zero for b in range(n)] for a in range(n)]
            mat[r][r] = c
            mat[r][s] = sn
            mat[s][r] = -sn
            mat[s][s] = c
            u = u * MatrixForm.from_entries(chart, (), mat)
        else:
            r = rng.randrange(n)
            zero = PolyScalar.const(chart, 0)
            one = PolyScalar.const(chart, 1)
            mat = [[one if a == b else zero for b in range(n)] for a in range(n)]
            mat[r][r] = PolyScalar.coordinate(chart, j, freq)
            u = u * MatrixForm.from_entries(chart, (), mat)
    return u


def random_exact_projection(chart: Chart, size: int, rng: random.Random,
                            factors: int = 2) -> MatrixForm:
    """Hermitian idempotent u q u* with trig-unitary u and 0/1 diagonal q
    of random rank (1 when size is 1)."""
    rank = rng.randint(1, size - 1) if size > 1 else 1
    u = random_trig_unitary_form(chart, size, rng, factors)
    diag = [QQi(1)] * rank + [QQi(0)] * (size - rank)
    q = ExactForm.const_matrix(
        chart,
        tuple(
            tuple(diag[i] if i == j else QQi(0) for j in range(size))
            for i in range(size)
        ),
    )
    return u * q * u.conj_transpose()


def random_commuting_family(size: int, count: int, rng: random.Random) -> List[tuple]:
    """Simultaneously diagonalizable exact Hermitian-free matrices."""
    u = random_exact_unitary(size, rng)
    u_inv = linalg.mat_conj_transpose(u)
    out = []
    for _ in range(count):
        d = tuple(
            tuple(random_qqi(rng) if i == j else QQi(0) for j in range(size))
            for i in range(size)
        )
        out.append(linalg.mat_mul(u, linalg.mat_mul(d, u_inv)))
    return out
