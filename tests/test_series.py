"""Exact arithmetic kernel tests: ring laws, series calculus, truncation."""

import random
from fractions import Fraction

import pytest

from bzk.series import (BadConstantTerm, OperatorPoly, OperatorSeries,
                        OrderMismatch, TPoly, USeries)

from _oracles import binomial_power

T = TPoly((0, 1))
ONE = TPoly((1,))


def rand_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_tpoly(rng, degree=4):
    return TPoly([rand_fraction(rng) for _ in range(rng.randint(0, degree + 1))])


def rand_useries(rng, order, degree=2):
    return USeries(order, [rand_tpoly(rng, degree) for _ in range(order + 1)])


def test_tpoly_basics():
    p = TPoly((1, 2, 3))
    assert p.degree == 2
    assert p + TPoly((0, -2)) == TPoly((1, 0, 3))
    assert p * TPoly() == TPoly()
    assert TPoly((Fraction(4, 2),)) == TPoly((2,))
    assert (T - 1) * (T + 1) == TPoly((-1, 0, 1))
    assert str(TPoly((2, -1))) == "-t + 2"
    assert str(TPoly()) == "0"


def test_tpoly_divmod():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rand_tpoly(rng, 6), rand_tpoly(rng, 3)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree
    # t^3 - 1 = (t - 1)(t^2 + t + 1); a lower-degree dividend is its own remainder
    assert divmod(TPoly((-1, 0, 0, 1)), TPoly((-1, 1))) == (TPoly((1, 1, 1)), TPoly())
    assert divmod(T, TPoly((1, 0, 2))) == (TPoly(), T)
    with pytest.raises(ZeroDivisionError):
        divmod(T, TPoly())


def test_tpoly_derivative_and_monic():
    assert TPoly((5, 3, 0, 2)).derivative() == TPoly((3, 0, 6))
    assert TPoly((7,)).derivative() == TPoly()
    assert TPoly((2, 4)).monic() == TPoly((Fraction(1, 2), 1))
    rng = random.Random(5)
    for _ in range(100):
        a, b = rand_tpoly(rng), rand_tpoly(rng)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
        if not a.is_zero():
            m = a.monic()
            assert m.c[-1] == 1 and m * a.c[-1] == a
    with pytest.raises(ZeroDivisionError):
        TPoly().monic()


def test_series_mul_examples():
    # (1 + u)(1 - u) at order 3 -> 1 - u^2
    a = USeries(3, [ONE, ONE])
    b = USeries(3, [ONE, -ONE])
    assert a * b == USeries(3, [ONE, TPoly(), -ONE])
    # identity matrix series times S
    rng = random.Random(7)
    mats = [OperatorPoly([[rand_tpoly(rng, 2) for _ in range(2)] for _ in range(2)]) for _ in range(4)]
    s = OperatorSeries(2, 3, mats)
    assert OperatorSeries.identity(2, 3) * s == s
    # ((1-t)u)^2 = (1 - 2t + t^2) u^2
    lin = USeries(3, [TPoly(), TPoly((1, -1))])
    assert lin * lin == USeries(3, [TPoly(), TPoly(), TPoly((1, -2, 1))])


def test_series_log_examples():
    # log(1 - u) at order 3
    s = USeries(3, [ONE, -ONE])
    assert s.log() == USeries(
        3, [TPoly(), -ONE, TPoly((Fraction(-1, 2),)), TPoly((Fraction(-1, 3),))]
    )
    with pytest.raises(BadConstantTerm):
        USeries(3, [TPoly((2,))]).log()


def test_series_exp_examples():
    assert USeries(2, [TPoly(), ONE]).exp() == USeries(
        2, [ONE, ONE, TPoly((Fraction(1, 2),))]
    )
    assert USeries(4).exp() == USeries.one(4)
    s = USeries(5, [ONE, -ONE])
    assert (s.log() * 2).exp() == s * s
    with pytest.raises(BadConstantTerm):
        USeries.one(3).exp()


def test_exp_log_roundtrip_scalar_series():
    rng = random.Random(19)
    for _ in range(20):
        s = USeries(6, [ONE] + [rand_tpoly(rng, 2) for _ in range(6)])
        assert s.log().exp() == s
        z = USeries(6, [TPoly()] + [rand_tpoly(rng, 2) for _ in range(6)])
        assert z.exp().log() == z


def test_binomial_power_examples():
    # (1 - u^2)^(-1/2) at order 4 -> 1 + u^2/2 + 3 u^4 / 8
    s = USeries(4, [ONE, TPoly(), -ONE])
    assert binomial_power(s, Fraction(-1, 2)) == USeries(
        4, [ONE, TPoly(), TPoly((Fraction(1, 2),)), TPoly(), TPoly((Fraction(3, 8),))]
    )
    rng = random.Random(3)
    for _ in range(5):
        r = USeries(5, [ONE] + [rand_tpoly(rng, 2) for _ in range(5)])
        assert binomial_power(r, 0) == USeries.one(5)
        assert binomial_power(r, 2) == r * r


def test_binomial_power_additivity():
    rng = random.Random(17)
    exponents = [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2), 2]
    for _ in range(10):
        s = USeries(5, [ONE] + [rand_tpoly(rng, 2) for _ in range(5)])
        a, b = rng.choice(exponents), rng.choice(exponents)
        lhs = binomial_power(s, Fraction(a) + Fraction(b))
        rhs = binomial_power(s, a) * binomial_power(s, b)
        assert lhs == rhs


def test_derivative_examples():
    assert USeries.one(3).derivative() == USeries.zero(3)
    cubic = USeries(3, [TPoly((5,)), T, TPoly(), TPoly((Fraction(1, 3),))])
    assert cubic.derivative() == USeries(3, [T, TPoly(), ONE])
    rng = random.Random(23)
    s = rand_useries(rng, 6)
    d = s.derivative()
    for m in range(6):
        assert d.coefficient(m) == s.coefficient(m + 1) * (m + 1)
    assert d.coefficient(6).is_zero()


def _power_sum_exp(a):
    # sum_k a^k / k!, one full series product per term
    acc = p = USeries.one(a.order)
    for k in range(1, a.order + 1):
        p = p * a * Fraction(1, k)
        acc = acc + p
    return acc


def _power_sum_log(s):
    # log(1 + h) = sum_k (-1)^(k+1) h^k / k
    h = s - 1
    acc = USeries.zero(s.order)
    p = USeries.one(s.order)
    for k in range(1, s.order + 1):
        p = p * h
        acc = acc + p * Fraction((-1) ** (k + 1), k)
    return acc


def test_exp_log_recurrences_match_power_sums():
    rng = random.Random(808)
    for i in range(60):
        order = i % 21
        tail = [rand_tpoly(rng, 2) if rng.random() < 0.7 else TPoly()
                for _ in range(order)]
        z = USeries(order, [TPoly()] + tail)
        assert z.exp() == _power_sum_exp(z)
        s = USeries(order, [ONE] + tail)
        assert s.log() == _power_sum_log(s)
    with pytest.raises(BadConstantTerm):
        USeries(4, [ONE, T]).exp()
    with pytest.raises(BadConstantTerm):
        USeries(4, [T, ONE]).log()


def rand_operator_series(rng, n, order, density):
    """Random n x n OperatorSeries; each coefficient entry is nonzero with
    the given probability, and a whole coefficient is sometimes zero."""
    coeffs = []
    for _ in range(order + 1):
        if rng.random() < 0.2:
            coeffs.append(OperatorPoly.zero(n))
            continue
        coeffs.append(OperatorPoly([[rand_tpoly(rng, 2) if rng.random() < density else TPoly()
                                     for _ in range(n)] for _ in range(n)]))
    return OperatorSeries(n, order, coeffs)


def test_operator_products_match_entrywise_sums():
    # the dense definition, entry by entry in USeries and TPoly arithmetic
    rng = random.Random(1010)
    for n, order, density in [(1, 0, 1.0), (2, 1, 0.5), (3, 3, 0.3), (4, 5, 0.4),
                              (5, 6, 0.2), (6, 4, 0.7)]:
        for _ in range(3):
            s = rand_operator_series(rng, n, order, density)
            t = rand_operator_series(rng, n, order, density)
            product = s * t
            for i in range(n):
                for j in range(n):
                    expected = USeries.zero(order)
                    for k in range(n):
                        expected = expected + s.entry(i, k) * t.entry(k, j)
                    assert product.entry(i, j) == expected
            a, b = s.coefficient(0), t.coefficient(order)
            ab = a * b
            for i in range(n):
                for j in range(n):
                    assert ab.entry(i, j) == sum((a.entry(i, k) * b.entry(k, j)
                                                  for k in range(n)), TPoly())


def test_evaluate_examples():
    assert TPoly((0, 0, 2)).evaluate(0.5) == 0.5
    assert USeries(2, [ONE, TPoly(), -ONE]).evaluate(0.0, 0.25) == 0.9375
    rng = random.Random(5)
    for _ in range(20):
        a = rand_useries(rng, 5)
        b = rand_useries(rng, 5)
        t, u = rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)
        lhs = (a * b).evaluate(t, u)
        rhs = a.evaluate(t, u) * b.evaluate(t, u)
        # truncation: subtract the exact contribution of dropped cross terms
        full = 0.0
        for i in range(6):
            for j in range(6):
                if i + j <= 5:
                    continue
                full += a.coefficient(i).evaluate(t) * b.coefficient(j).evaluate(t) * u ** (i + j)
        assert abs(lhs - (rhs - full)) <= 1e-12 * max(1.0, abs(lhs))


def test_ring_laws_tpoly():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_tpoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_ring_laws_useries():
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rand_useries(rng, 4, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_truncation_coherence():
    rng = random.Random(13)
    for _ in range(30):
        a8 = rand_useries(rng, 8)
        b8 = rand_useries(rng, 8)
        direct = (a8.truncate(5)) * (b8.truncate(5))
        assert (a8 * b8).truncate(5) == direct
    assert USeries(8, [ONE, ONE]).log().truncate(4) == USeries(4, [ONE, ONE]).log()


def test_order_and_shape_errors():
    with pytest.raises(OrderMismatch):
        USeries.one(3) * USeries.one(4)
    with pytest.raises(OrderMismatch):
        USeries.one(3) + USeries.one(4)
    with pytest.raises(Exception):
        OperatorPoly([[ONE, ONE]])
    with pytest.raises(BadConstantTerm):
        USeries(3, [ONE, ONE]).exp()


def test_inverse():
    rng = random.Random(29)
    for _ in range(20):
        s = USeries(6, [ONE] + [rand_tpoly(rng, 2) for _ in range(6)])
        assert s * s.inverse() == USeries.one(6)


def test_json_roundtrip():
    rng = random.Random(31)
    s = rand_useries(rng, 5)
    data = s.to_json()
    assert all(isinstance(cell, str) and "/" in cell for row in data for cell in row)
    assert USeries.from_json(data) == s
