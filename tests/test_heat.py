"""Heat kernel routes, Bessel evaluation, and the transform pipeline."""

import math

import numpy as np
import pytest

from bzk.heat import (DomainError, NonconvergentTail, NotRegular,
                      ParameterDomain, bessel_heat_package, bessel_i,
                      check_transform_consistency, heat_kernel_bessel,
                      heat_kernel_spectral, resolvent_transform)
from bzk.graphs import generate
from conftest import CORPUS, FRUCHT, random_circulants

from _oracles import heat_residual, walk_matrix_rows


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
    # included, at every target, and stays below the requested tolerance.
    # The Frucht graph is regular but not vertex-transitive: its roots have
    # different row peaks, and so columns and bounds of their own
    from bzk.heat import _walk_matrix_table

    peaks = {_walk_matrix_table(FRUCHT, 0.5, x0).upto(12)[1]
             for x0 in range(FRUCHT.vertex_count)}
    assert len(peaks) > 1
    every_t = (-0.5, 0.0, 0.5, 0.9)
    cases = [(generate("hypercube", 5), (0.5, -0.5), (1.5, 3.0, 5.0), (0,))]
    cases += [(CORPUS[name], every_t, (0.5, 1.0, 2.0, 4.0, 8.0), (0,))
              for name in ("petersen", "Q3", "K4")]
    cases += [(FRUCHT, every_t, (0.5, 2.0, 5.0), range(FRUCHT.vertex_count))]
    for tol in (1e-6, 1e-10):
        for g, ts, taus, roots in cases:
            for t in ts:
                for tau in taus:
                    for x0 in roots:
                        for x in range(g.vertex_count):
                            res = heat_kernel_bessel(g, x0, x, tau, t, tol)
                            want = heat_kernel_spectral(g, x0, x, tau).value
                            assert abs(res.value - want) <= res.tail_bound + 1e-14
                            assert res.tail_bound <= tol


def test_walk_rows_match_exact_rows():
    # the float rows against the exact packed rows of operators._walk_rows,
    # one pass over the two roots, each read as its root digit and evaluated
    # at the binary value of t; |C_n(t)| is at most alpha^n
    from fractions import Fraction

    from bzk.heat import _walk_matrix_table
    from bzk.operators import _walk_rows, alpha
    from bzk.series import _digit, _digit_width, _packed_width, _unpack

    count = 40
    graphs = [CORPUS[name] for name in ("petersen", "Q3", "K4", "cycle(6)")]
    for g in graphs + [generate("hypercube", 5), FRUCHT]:
        width = _packed_width(g.max_degree, count)
        shift = _digit_width(width, count)
        roots = (0, g.vertex_count - 1)
        # the pass streams, so it is kept here to be read once per (root, t)
        exact = tuple(_walk_rows(g, roots, count))
        for r, x0 in enumerate(roots):
            for t in (-0.5, 0.0, 0.5, 0.9):
                rows, _ = _walk_matrix_table(g, t, x0).upto(count)
                assert len(rows) == count + 1
                scale = alpha(g, abs(t))
                compared = 0
                for n, (row, packed) in enumerate(zip(rows, exact)):
                    for x in range(g.vertex_count):
                        entry = _unpack(_digit(packed[x], r, shift), width)
                        want = float(entry.evaluate(Fraction(t)))
                        assert abs(row[x] - want) <= 1e-14 * scale ** n
                        compared += 1
                assert compared == (count + 1) * g.vertex_count


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


def test_bessel_column_shared_by_targets():
    # one column per (graph, root, tau, t): its peaks, and so its tail
    # bound, are read from the root's rows
    from bzk.heat import _bessel_column

    points = _column_points()
    columns = {(id(g), x0, tau, t) for g, x0, _, tau, t in points}
    _bessel_column.cache_clear()
    _column_values(points)
    info = _bessel_column.cache_info()
    assert info.misses == len(columns) == 16
    assert info.hits == len(points) - len(columns)


def test_bessel_column_computes_every_target_once():
    # the column holds the kernel at every target of its root, so the walk
    # rows are read once, by the column, and never per point
    from bzk.heat import _bessel_column, _walk_matrix_table

    g = CORPUS["petersen"]
    _bessel_column.cache_clear()
    _walk_matrix_table.cache_clear()
    for x in range(g.vertex_count):
        heat_kernel_bessel(g, 0, x, 2.0, 0.5, 1e-10)
    column = _bessel_column.cache_info()
    table = _walk_matrix_table.cache_info()
    assert (column.misses, column.hits) == (1, 9)
    assert (table.misses, table.hits) == (1, 0)


WALK_TABLE_CASES = [(g, t) for g in (CORPUS["petersen"], generate("hypercube", 5), FRUCHT)
                    for t in (-0.5, 0.0, 0.5, 0.9)]


def test_grown_walk_table_matches_one_pass():
    # at every count the grown rows are, byte for byte, those of one pass to
    # that count, whether the table grows a row at a time or in jumps; the
    # peaks are the rows' own maxima
    from bzk.heat import _WalkTable

    for g, t in WALK_TABLE_CASES:
        for x0 in (0, g.vertex_count - 1):
            one_pass = {}
            for counts in (range(41), (3, 4, 9, 25, 40)):
                table = _WalkTable(g, t, x0)
                for count in counts:
                    if count not in one_pass:
                        one_pass[count] = walk_matrix_rows(g, t, count, x0)
                    rows, peaks = table.upto(count)
                    assert len(rows) == len(peaks) == count + 1
                    want = one_pass[count]
                    assert [r.tobytes() for r in rows] == [r.tobytes() for r in want]
                    assert peaks == tuple(float(abs(r).max()) for r in want)


def test_grown_walk_table_keeps_handed_out_tuples():
    # a growth binds a new tuple and leaves the ones already read as they
    # were; the rows themselves are read-only
    from bzk.heat import _WalkTable

    for g, t in WALK_TABLE_CASES:
        table = _WalkTable(g, t, 0)
        taken = table.upto(6)
        grown = table.grown
        before = ([r.tobytes() for r in taken[0]], taken[1],
                  [r.tobytes() for r in grown[0]], grown[1])
        table.upto(30)
        assert table.grown is not grown and len(table.grown[0]) == 31
        assert ([r.tobytes() for r in taken[0]], taken[1],
                [r.tobytes() for r in grown[0]], grown[1]) == before
        assert not any(r.flags.writeable for r in table.grown[0])
        with pytest.raises(ValueError):
            taken[0][1][0] = 5.0


def test_walk_table_shared_by_a_tau_grid():
    # one table per (graph, t, root): the ten columns of a tau grid build it
    # once and grow it as their cutoffs rise
    from bzk.heat import _bessel_column, _walk_matrix_table

    g = generate("hypercube", 5)
    _bessel_column.cache_clear()
    _walk_matrix_table.cache_clear()
    cutoffs = [heat_kernel_bessel(g, 3, 0, 0.5 * k, 0.5, 1e-10).truncation[0]
               for k in range(1, 11)]
    info = _walk_matrix_table.cache_info()
    assert (info.misses, info.hits) == (1, 9)
    assert len(set(cutoffs)) > 1
    assert len(_walk_matrix_table(g, 0.5, 3).grown[0]) == max(cutoffs) + 1


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


def test_incremental_tails_equal_recomputed_tails():
    # one product per step gives the same floats, bit for bit, as
    # recomputing x^n / n! from 1 at every n, on both sides of the switch
    # to the exponential bound and into overflow
    from bzk.heat import _even_tails, _exp_tails

    from _oracles import even_tail, exp_tail

    for x in (0.0, 1e-3, 0.7, 3.0, 19.5, 47.2, 151.0, 600.0, 700.0):
        for start in (1, 2, 5):
            for n, got in zip(range(start, start + 400), _exp_tails(x, start)):
                assert got == exp_tail(x, n), (x, n)
            for j, got in zip(range(start, start + 300), _even_tails(x, start)):
                assert got == even_tail(x, j), (x, j)


def test_bessel_cutoffs_equal_the_recomputing_loops():
    # the cutoffs and tail that every Bessel column and the CLI's work cap
    # read, against the loops that recompute each tail from 1, through the
    # tau range where the majorant overflows or passes 600 terms
    from bzk.heat import ParameterDomain, _bessel_cutoffs

    from _oracles import bessel_cutoffs_recomputed

    outcomes = set()
    for g in (CORPUS["petersen"], CORPUS["K4"], generate("hypercube", 5), generate("cycle", 8)):
        for t in (-0.9, -0.5, 0.0, 0.5, 0.95):
            for tol in (1e-6, 1e-10, 1e-13):
                for tau in (1e-3, 0.5, 2.0, 7.5, 20.0, 50.0, 120.0, 400.0, 1000.0):
                    try:
                        want = bessel_cutoffs_recomputed(g, tau, t, tol)
                    except ParameterDomain as exc:
                        with pytest.raises(ParameterDomain, match=str(exc)):
                            _bessel_cutoffs(g, tau, t, tol)
                        outcomes.add("refused")
                        continue
                    assert _bessel_cutoffs(g, tau, t, tol) == want, (g.label, t, tol, tau)
                    outcomes.add("accepted")
    assert outcomes == {"accepted", "refused"}



# from an argument that underflows (on cycle(9) at t = -0.9 and 0.8,
# 2 sqrt(c) tau is one subnormal and its half is 0) through the tau where
# the cutoffs or the multipliers leave the float range
ORACLE_TAUS = (5e-324, 1e-300, 1e-9, 1e-3, 0.1, 0.5, 1.3, 2.0, 4.0, 7.5, 15.0, 30.0,
               60.0, 120.0, 400.0)


def test_bessel_column_equals_the_per_order_reference():
    # one pass over the orders and a vector j-sum give, bit for bit, the
    # cutoffs, tail and values of a bessel_i call per order and a scalar
    # j-loop, and refuse with the same error.  Every (t, tol, tau) runs once
    # on each graph, at roots taken in turn, so every root is read
    import itertools

    from bzk.heat import _bessel_column

    from _oracles import bessel_column_per_order

    column = _bessel_column.__wrapped__
    graphs = [CORPUS["petersen"], CORPUS["K4"], FRUCHT, generate("cycle", 9)]
    graphs += [generate("hypercube", d) for d in (3, 4, 5)] + random_circulants(27, 3)
    params = list(itertools.product((-0.9, -0.5, 0.0, 0.3, 0.5, 0.8), (1e-6, 1e-10, 1e-13),
                                    ORACLE_TAUS))
    outcomes = set()
    for g in graphs:
        assert len(params) >= g.vertex_count
        for i, (t, tol, tau) in enumerate(params):
            x0 = i % g.vertex_count
            case = (g.label, x0, t, tol, tau)
            try:
                want = bessel_column_per_order(g, x0, tau, t, tol)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    column(g, x0, tau, t, tol)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc)), case
                outcomes.add(str(exc))
                continue
            n_max, j_max, tail, values = column(g, x0, tau, t, tol)
            assert (n_max, j_max, tail) == want[:3], case
            assert values.tobytes() == want[3].tobytes(), case
            outcomes.add("accepted")
    assert outcomes == {"accepted", "truncation bound did not converge",
                        "Bessel multiplier outside the float range"}


def test_bessel_column_calls_no_bessel_i(monkeypatch):
    # the column runs its orders through the shared series loop, never
    # through bessel_i and its per-call checks
    import bzk.heat
    from bzk.heat import _bessel_column

    def refuse(*args, **kwargs):
        raise AssertionError("bessel_i called")

    monkeypatch.setattr(bzk.heat, "bessel_i", refuse)
    _bessel_column.cache_clear()
    for tau in (0.5, 4.0, 20.0):
        assert _bessel_column(CORPUS["petersen"], 0, tau, 0.5, 1e-10)[3][0] > 0.0
    _bessel_column.cache_clear()
