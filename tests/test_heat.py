"""Heat kernel routes, Bessel evaluation, and the transform pipeline."""

import math

import numpy as np
import pytest

from bzk.heat import (DomainError, NonconvergentTail, NotRegular,
                      ParameterDomain, bessel_heat_package, bessel_i,
                      check_transform_consistency, heat_kernel_bessel,
                      heat_kernel_spectral, resolvent_transform)
from bzk.graphs import generate
from conftest import CORPUS

from _oracles import heat_residual


def test_bessel_at_zero():
    assert bessel_i(0, 0.0).value == 1.0
    for n in range(1, 6):
        assert bessel_i(n, 0.0).value == 0.0


def test_bessel_symmetric_order():
    for tau in (0.3, 1.7):
        assert bessel_i(-3, tau).value == bessel_i(3, tau).value


def test_bessel_tail_bound_honest():
    # push the tolerance down and check the reported bound brackets the
    # higher-precision value
    for n in (0, 2, 5):
        for tau in (0.5, 2.0, 10.0):
            rough = bessel_i(n, tau, tol=1e-6)
            fine = bessel_i(n, tau, tol=1e-15)
            assert abs(rough.value - fine.value) <= rough.tail_bound + 1e-15
            assert rough.tail_bound < 1e-6
            assert rough.terms_used >= 1


def test_bessel_derivative_recurrence():
    # 2 I_n'(tau) = I_{n-1}(tau) + I_{n+1}(tau), checked by central
    # differences
    h = 1e-5
    for n in range(7):
        for tau in (0.5, 1.0, 2.0):
            left = (bessel_i(n, tau + h, 1e-14).value - bessel_i(n, tau - h, 1e-14).value) / h
            right = bessel_i(n - 1, tau, 1e-14).value + bessel_i(n + 1, tau, 1e-14).value
            assert abs(left - right) < 1e-8


def test_bessel_elementary_bound():
    # I_n(tau) <= (tau/2)^n e^tau / n!
    for n in range(11):
        for tau in np.linspace(0.0, 5.0, 11):
            val = bessel_i(n, float(tau), 1e-13).value
            bound = (tau / 2.0) ** n * math.exp(tau) / math.factorial(n)
            assert val <= bound + 1e-12


def test_bessel_grid_matches_scalar():
    from bzk.heat import _bessel_grid

    taus = np.linspace(0.0, 6.0, 13)
    for n in (0, 1, 4):
        grid = _bessel_grid(n, taus)
        for tau, v in zip(taus, grid):
            assert abs(v - bessel_i(n, float(tau), 1e-15).value) < 1e-12 * max(1.0, v)


def test_bessel_grid_and_tight_bessel_i_match_exact_sums():
    # a small I_n used to stop on the absolute floor tol * max(1, total):
    # _bessel_grid(40, [10.0]) was 12% low and (20, [3.0]) 0.5% low
    from fractions import Fraction

    from bzk.heat import _bessel_grid

    for n, x in ((40, 10), (20, 3), (60, 5)):
        half = Fraction(x, 2)
        exact = float(sum(half ** (2 * m + n) / (math.factorial(m) * math.factorial(m + n))
                          for m in range(80)))
        grid = float(_bessel_grid(n, [float(x)])[0])
        assert abs(grid - exact) <= 1e-13 * exact
        tight = bessel_i(n, float(x), tol=exact * 1e-16).value
        assert abs(tight - exact) <= 1e-13 * exact


def test_heat_bessel_tail_bound_covers_error():
    # the reported tail bound covers the whole error, Bessel remainders
    # included, at every target, and stays below the requested tolerance
    cases = [(generate("hypercube", 5), (0.5, -0.5), (1.5, 3.0, 5.0))]
    cases += [(CORPUS[name], (-0.5, 0.0, 0.5, 0.9), (0.5, 1.0, 2.0, 4.0, 8.0))
              for name in ("petersen", "Q3", "K4")]
    for tol in (1e-6, 1e-10):
        for g, ts, taus in cases:
            for t in ts:
                for tau in taus:
                    for x in range(g.vertex_count):
                        res = heat_kernel_bessel(g, 0, x, tau, t, tol)
                        want = heat_kernel_spectral(g, 0, x, tau).value
                        assert abs(res.value - want) <= res.tail_bound + 1e-14
                        assert res.tail_bound <= tol


def test_heat_bessel_initial_condition():
    g = CORPUS["K4"]
    for t in (-0.5, 0.0, 0.5):
        assert heat_kernel_bessel(g, 0, 0, 0.0, t).value == 1.0
        assert heat_kernel_bessel(g, 0, 1, 0.0, t).value == 0.0


def test_heat_bessel_k4_closed_form():
    g = CORPUS["K4"]
    for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
        closed = 0.25 + 0.75 * math.exp(-4.0 * tau)
        res = heat_kernel_bessel(g, 0, 0, tau, 0.0, 1e-8)
        assert abs(res.value - closed) < 1e-8
        assert res.tail_bound < 1e-8


def test_heat_bessel_t_independence():
    for name in ("K4", "Q3", "cycle(6)", "petersen"):
        g = CORPUS[name]
        for tau in (0.3, 1.0, 3.0):
            values = [heat_kernel_bessel(g, 0, 1, tau, t, 1e-8).value for t in (-0.5, 0.0, 0.5)]
            for a in values:
                for b in values:
                    assert abs(a - b) < 2e-8


def test_heat_spectral_examples():
    g = CORPUS["K4"]
    assert heat_kernel_spectral(g, 0, 0, 0.0).value == pytest.approx(1.0, abs=1e-12)
    assert heat_kernel_spectral(g, 0, 2, 0.0).value == pytest.approx(0.0, abs=1e-12)
    for tau in (0.5, 2.0):
        closed = 0.25 + 0.75 * math.exp(-4.0 * tau)
        assert heat_kernel_spectral(g, 0, 0, tau).value == pytest.approx(closed, abs=1e-12)


def test_heat_conservation():
    for name in ("K4", "petersen", "path(4)", "tree_ball(3,3)"):
        g = CORPUS[name]
        for tau in np.linspace(0.0, 5.0, 6):
            total = sum(heat_kernel_spectral(g, 0, x, float(tau)).value for x in range(g.vertex_count))
            assert abs(total - 1.0) < 1e-12


def test_heat_symmetry_between_arguments():
    g = CORPUS["Q3"]
    for tau in (0.4, 1.3):
        s1 = heat_kernel_spectral(g, 0, 5, tau).value
        s2 = heat_kernel_spectral(g, 5, 0, tau).value
        assert abs(s1 - s2) < 1e-13
        b1 = heat_kernel_bessel(g, 0, 5, tau, 0.3, 1e-10).value
        b2 = heat_kernel_bessel(g, 5, 0, tau, 0.3, 1e-10).value
        assert abs(b1 - b2) < 1e-9


def test_heat_diagonal_monotone():
    g = CORPUS["petersen"]
    taus = np.linspace(0.0, 5.0, 21)
    spect = [heat_kernel_spectral(g, 0, 0, float(tau)).value for tau in taus]
    assert all(a >= b - 1e-12 for a, b in zip(spect, spect[1:]))
    bess = [heat_kernel_bessel(g, 0, 0, float(tau), 0.0, 1e-9).value for tau in taus]
    assert all(a >= b - 1e-8 for a, b in zip(bess, bess[1:]))


def test_heat_domain_errors():
    with pytest.raises(NotRegular):
        heat_kernel_bessel(CORPUS["star(4)"], 0, 0, 1.0)
    with pytest.raises(ParameterDomain):
        heat_kernel_bessel(CORPUS["K4"], 0, 0, 1.0, t=1.0)
    with pytest.raises(ValueError):
        heat_kernel_bessel(CORPUS["K4"], 0, 0, -1.0)
    # a nan or inf tau, or one whose series overflows to inf, never met
    # bessel_i's stopping rule
    for tau in (float("nan"), float("inf"), 1000.0):
        with pytest.raises(ValueError):
            bessel_i(0, tau)
        with pytest.raises(ValueError):
            heat_kernel_bessel(CORPUS["K4"], 0, 0, tau)
    with pytest.raises(ValueError):
        bessel_i(0, 1.0, tol=float("nan"))
    # the truncation majorant overflows here rather than reaching its cap
    with pytest.raises(ParameterDomain):
        heat_kernel_bessel(CORPUS["K4"], 0, 0, 1000.0)


def test_heat_spectral_refuses_non_finite_tau():
    # on Petersen tau = inf used to give inf, though K tends to 1/10, and nan
    # gave nan
    g = CORPUS["petersen"]
    assert abs(heat_kernel_spectral(g, 0, 3, 50.0).value - 0.1) < 1e-12
    for tau in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            heat_kernel_spectral(g, 0, 3, tau)


def test_heat_bessel_refuses_overflowing_multipliers():
    # the Bessel multipliers overflow here; this used to return 0.113 at tol 1e-4
    # and 0.144 at tol 1e-10, against a true value near 1/6
    g = CORPUS["cycle(6)"]
    assert abs(heat_kernel_spectral(g, 0, 1, 40.0).value - 1.0 / 6.0) < 1e-12
    for tol in (1e-4, 1e-10):
        with pytest.raises(ParameterDomain, match="float range"):
            heat_kernel_bessel(g, 0, 1, 40.0, -0.9, tol)


def test_heat_residual_examples():
    assert heat_residual(CORPUS["K4"], 0, 1.0, 1e-4) < 1e-6
    assert heat_residual(CORPUS["cycle(6)"], 0, 0.5, 1e-4) < 1e-6
    assert heat_residual(CORPUS["K4"], 0, 1.0, 1e-4, route="spectral") < 1e-12
    assert heat_residual(CORPUS["tree_ball(3,3)"], 0, 0.7, 1e-4, route="spectral") < 1e-12


def test_transform_reproduces_powers():
    q = 2
    for k in range(11):
        for u in (0.05, 0.1, 0.2):
            for t in (0.0, 0.3, -0.3):
                f, rate, scale = bessel_heat_package(k, q, t)
                got = resolvent_transform(f, u, t, q, growth_rate=rate, growth_scale=scale)
                want = u ** (k - 1)
                assert abs(got / want - 1.0) < 1e-6


def test_transform_domain_and_tail_errors():
    f, rate, scale = bessel_heat_package(0, 2, 0.0)
    with pytest.raises(DomainError):
        resolvent_transform(f, 0.9, 0.0, 2)
    with pytest.raises(NonconvergentTail):
        resolvent_transform(f, 0.2, 0.0, 2, growth_rate=100.0)


def test_transform_consistency_examples():
    rep = check_transform_consistency(CORPUS["K4"], 0, 0, 0.08, 0.25)
    assert rep.max_deviation < 1e-6
    rep = check_transform_consistency(CORPUS["cycle(6)"], 0, 0, 0.1, 0.0)
    assert rep.max_deviation < 1e-6
    rep = check_transform_consistency(CORPUS["Q3"], 0, 3, 0.1, 0.2)
    assert rep.max_deviation < 1e-6


def test_transform_consistency_rejects_bad_domain():
    with pytest.raises(DomainError):
        check_transform_consistency(CORPUS["K4"], 0, 0, 0.5, 0.0)
    with pytest.raises(NotRegular):
        check_transform_consistency(CORPUS["path(4)"], 0, 0, 0.1, 0.0)


def test_series_weights():
    from bzk.heat import series_weight

    assert series_weight(0, 2, 0.3) == 1.0
    for j in (1, 2, 5):
        assert series_weight(j, 3, 0.0) == -(3 - 1)
        assert series_weight(j, 2, 0.5) == pytest.approx(-4.0)
    with pytest.raises(ParameterDomain):
        series_weight(1, 2, 1.0)


def _column_values(points, tol=1e-10):
    return [heat_kernel_bessel(g, x0, x, tau, t, tol).value for g, x0, x, tau, t in points]


def _column_points(names=("petersen", "K4"), taus=(0.5, 2.0), ts=(-0.5, 0.5)):
    return [(CORPUS[name], x0, x, tau, t)
            for name in names for tau in taus for t in ts
            for x0 in (0, 1) for x in range(CORPUS[name].vertex_count)]


def test_bessel_column_warm_equals_cold():
    from bzk.heat import _bessel_column

    points = _column_points()
    _bessel_column.cache_clear()
    cold = _column_values(points)
    warm = _column_values(points)
    _bessel_column.cache_clear()
    assert _column_values(points) == cold == warm


def test_bessel_column_shared_by_roots_and_targets():
    from bzk.heat import _bessel_column

    points = _column_points()
    columns = {(id(g), tau, t) for g, _, _, tau, t in points}
    _bessel_column.cache_clear()
    _column_values(points)
    info = _bessel_column.cache_info()
    assert info.misses == len(columns) == 8
    assert info.hits == len(points) - len(columns)


def test_bessel_column_order_independent():
    import random

    from bzk.heat import _bessel_column

    points = _column_points()
    _bessel_column.cache_clear()
    ordered = dict(zip(points, _column_values(points)))
    shuffled = list(points)
    random.Random(12).shuffle(shuffled)
    _bessel_column.cache_clear()
    assert dict(zip(shuffled, _column_values(shuffled))) == ordered


def test_heat_input_guards():
    from bzk.heat import _bessel_column

    g = CORPUS["petersen"]
    _bessel_column.cache_clear()
    # a negative index used to read vertex 9 through numpy, and tau = 0
    # answered 0.0 for a vertex the graph does not have
    for x0, x, tau in ((0, -1, 1.0), (-1, 0, 1.0), (0, 10, 0.0), (10, 0, 1.0)):
        with pytest.raises(ValueError, match="vertex"):
            heat_kernel_bessel(g, x0, x, tau)
        with pytest.raises(ValueError, match="vertex"):
            heat_kernel_spectral(g, x0, x, tau)
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be"):
            heat_kernel_bessel(g, 0, 1, 1.0, 0.0, tol)
    assert _bessel_column.cache_info().currsize == 0
