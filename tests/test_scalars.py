import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ncgkit.clifford import CliffordElement
from ncgkit.randgen import random_qqi
from ncgkit.scalars import AFFINE, PERIODIC, Chart, JetScalar, PolyScalar, QQi

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
qqis = st.builds(QQi, rationals, rationals)


def eval_numeric(f: PolyScalar, point) -> complex:
    """The value of f at a point of its chart, summed in the key order of
    ``coeffs``."""
    total = 0j
    for mono, c in f.coeffs.items():
        term = complex(c)
        for e, kind, x in zip(mono, f.chart.kinds, point):
            if kind == AFFINE:
                term *= x ** e
            else:
                term *= np.exp(1j * e * x)
        total += term
    return total


def parse_qqi(text: str) -> QQi:
    """The inverse of ``str(QQi)``, the form in which reports print QQi."""
    if not text.endswith("i"):
        return QQi(Fraction(text))
    body = text[:-1]
    k = max(body.rfind("+"), body.rfind("-"))
    re, im = (body[:k], body[k:]) if k > 0 else ("0", body)
    im = {"": "1", "+": "1", "-": "-1"}.get(im, im)
    return QQi(Fraction(re), Fraction(im))


@given(qqis, qqis, qqis)
def test_qqi_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QQi(0) == a
    assert a * QQi(1) == a


@given(qqis)
def test_qqi_inverse_and_conj(a):
    if not a.is_zero():
        assert a * a.inverse() == QQi(1)
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    assert a.abs2() == (a * a.conj()).re


@given(qqis)
def test_qqi_str_is_lossless(a):
    assert parse_qqi(str(a)) == a


def test_qqi_str_forms():
    assert str(QQi(0)) == "0"
    assert str(QQi(0, 1)) == "i"
    assert str(QQi(0, -1)) == "-i"
    assert str(QQi(Fraction(3, 2))) == "3/2"
    assert str(QQi(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert str(QQi(Fraction(-1, 2), Fraction(-3))) == "-1/2-3i"


def test_qqi_pow_and_complex():
    i = QQi(0, 1)
    assert i ** 2 == QQi(-1)
    assert i ** -1 == QQi(0, -1)
    assert complex(QQi(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j


_CHART = Chart((AFFINE, PERIODIC))


@pytest.mark.parametrize("x, value", [
    (QQi(1), 1),
    (QQi(0), 0),
    (QQi(-7), -7),
    (QQi(Fraction(3, 4)), Fraction(3, 4)),
    (QQi(2, 1), QQi(2, 1)),
    (PolyScalar.const(_CHART, 3), 3),
    (PolyScalar(_CHART), 0),
    (PolyScalar.const(_CHART, Fraction(-1, 6)), Fraction(-1, 6)),
    (PolyScalar.const(_CHART, QQi(0, 1)), QQi(0, 1)),
    (CliffordElement.scalar(3, 5), 5),
    (CliffordElement(2, {}), 0),
    (CliffordElement.scalar(2, Fraction(5, 2)), Fraction(5, 2)),
    (CliffordElement.scalar(2, QQi(1, -1)), QQi(1, -1)),
])
def test_equal_values_hash_alike(x, value):
    """A value that equals an int, Fraction or QQi hashes as it does, so it
    finds it in a set or as a dict key."""
    assert x == value
    assert hash(x) == hash(value)
    assert x in {value} and value in {x}


class TestPolyScalar:
    chart = Chart((AFFINE, PERIODIC))

    def test_mixed_arithmetic(self):
        x = PolyScalar.coordinate(self.chart, 0)
        z = PolyScalar.coordinate(self.chart, 1)
        p = (x + z) * (x - z)
        assert p == x * x - z * z

    def test_affine_diff(self):
        x = PolyScalar.coordinate(self.chart, 0)
        p = x * x * x
        assert p.diff(0) == x * x * 3
        assert p.diff(1).is_zero()

    def test_periodic_diff_brings_ik(self):
        z = PolyScalar.coordinate(self.chart, 1, 2)
        assert z.diff(1) == z * QQi(0, 2)

    def test_conj_flips_periodic(self):
        z = PolyScalar.coordinate(self.chart, 1, 3)
        zbar = PolyScalar.coordinate(self.chart, 1, -3)
        assert z.conj() == zbar
        x = PolyScalar.coordinate(self.chart, 0)
        assert (x * QQi(0, 1)).conj() == x * QQi(0, -1)

    def test_sin_cos_identity(self):
        t = Chart.torus(1)
        c = PolyScalar.cos(t, 0)
        s = PolyScalar.sin(t, 0)
        assert c * c + s * s == PolyScalar.const(t, 1)

    def test_negative_affine_power_rejected(self):
        with pytest.raises(ValueError):
            PolyScalar(self.chart, {(-1, 0): QQi(1)})

    def test_mean_value(self):
        # the torus mean is the constant Fourier coefficient, which a uniform
        # grid finer than the frequencies averages to exactly
        t = Chart.torus(2)
        f = PolyScalar.cos(t, 0) * PolyScalar.cos(t, 0)
        assert f.coeffs[(0, 0)] == QQi(Fraction(1, 2))
        grid = 2 * np.pi * np.arange(5) / 5
        mean = np.mean([eval_numeric(f, [a, b]) for a in grid for b in grid])
        assert abs(mean - 0.5) < 1e-12

    def test_eval_matches_numeric(self):
        t = Chart.torus(1)
        f = PolyScalar.cos(t, 0, 2) + PolyScalar.sin(t, 0) * QQi(0, 1)
        for theta in (0.3, 1.7):
            want = np.cos(2 * theta) + 1j * np.sin(theta)
            assert abs(eval_numeric(f, [theta]) - want) < 1e-12


class TestJetScalar:
    def test_leibniz_product(self):
        chart = Chart.torus(1)
        x = np.linspace(0, 2 * np.pi, 17, endpoint=False)
        f = JetScalar(chart, np.sin(x), np.cos(x)[None, :])
        g = JetScalar(chart, np.cos(x), -np.sin(x)[None, :])
        prod = f * g
        # (sin cos)' = cos^2 - sin^2
        want = np.cos(x) ** 2 - np.sin(x) ** 2
        assert np.max(np.abs(prod.diff(0).values - want)) < 1e-12

    def test_second_derivative_unavailable(self):
        chart = Chart.torus(1)
        x = np.zeros(4)
        f = JetScalar(chart, x, x[None, :])
        with pytest.raises(ValueError):
            f.diff(0).diff(0)

    def test_const_and_conj(self):
        chart = Chart.torus(2)
        c = JetScalar.const(chart, 1 + 2j, 5)
        assert np.all(c.conj().values == 1 - 2j)
        assert c.diff(0).is_zero()


@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_random_qqi_matches_the_fraction_construction(seed, span):
    """The integer-triple draw gives the canonical QQi of the two Fractions
    it replaces, field by field, and leaves the generator in the same state."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        got = random_qqi(rng, span)
        want = QQi(Fraction(ref.randint(-span, span), ref.randint(1, 3)),
                   Fraction(ref.randint(-span, span), ref.randint(1, 3)))
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
    assert rng.getstate() == ref.getstate()
