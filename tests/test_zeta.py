"""Zeta routes: log-series, closed formula, Euler product, spectral."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bzk.graphs import operators as graph_operators
from bzk.operators import adjacency_poly, cm_sequence, qxt_poly
from bzk.paths import primitive_rooted_closed_paths
from bzk.series import (ONE_MINUS_T, TPOLY_ONE, TPOLY_ZERO, OperatorPoly,
                        OperatorSeries, TPoly, USeries)
from bzk.zeta import (DomainError, EigensolverFailure, NotRegular,
                      _commutator_exponent, _f_power_table, cbc_entries,
                      charpoly_exact, euler_product_series, isolate_real_roots,
                      local_spectrum, zeta_formula_series,
                      zeta_log_coefficients, zeta_log_series,
                      zeta_spectral_report)
from conftest import CORPUS, NON_TRANSITIVE, REGULAR, VERTEX_TRANSITIVE

from _oracles import (binomial_power, cm_cbc, commutator_exponent_loop,
                      commutator_matrix, poly_eval_fraction)
from _paths import closed_geodesic_counts


def reference_log_value(g, x0, x, u, t, order):
    """Evaluate the log-series route at numeric (u, t): exact in t, float
    Horner in u."""
    coeffs = zeta_log_coefficients(g, x0, x, order)
    logz = sum(float(poly_eval_fraction(c, Fraction(t))) * u**m for m, c in enumerate(coeffs))
    return math.exp(logz)


@pytest.mark.parametrize("name", list(CORPUS))
def test_cbc_entries_match_cm_cbc(name):
    g = CORPUS[name]
    cms = cm_sequence(g, 8)
    targets = [(0, 0), (0, 1), (1, 1), (0, g.vertex_count - 1)]
    for x0, x in targets:
        ents = cbc_entries(g, x0, x, 8)
        for m in range(9):
            assert ents[m] == cm_cbc(g, m, cms=cms).entry(x0, x)


def test_cbc_entries_match_cm_cbc_deeper():
    # the row-level recursions inside cbc_entries against the literal matrix
    # formula, pushed past the defaults
    g = CORPUS["path(4)"]
    cms = cm_sequence(g, 14)
    for x0, x in [(0, 0), (1, 1), (0, 3)]:
        ents = cbc_entries(g, x0, x, 14)
        for m in range(15):
            assert ents[m] == cm_cbc(g, m, cms=cms).entry(x0, x)


def test_log_series_u1_vanishes():
    for g in CORPUS.values():
        z = zeta_log_series(g, 0, 0, 6)
        assert z.coefficient(0) == TPoly((1,))
        assert z.coefficient(1).is_zero()


def test_log_series_triangle_t0_u3():
    # two closed geodesics of length 3: log Z has u^3 coefficient 2/3 at t=0
    coeffs = zeta_log_coefficients(CORPUS["triangle"], 0, 0, 10)
    assert poly_eval_fraction(coeffs[3], Fraction(0)) == Fraction(2, 3)


def test_log_series_cycle4_t0_closed_form():
    # at t=0 only the 4k-loops survive (two per length), giving
    # Z = (1 - u^4)^(-1/2)
    g = CORPUS["cycle(4)"]
    z = zeta_log_series(g, 0, 0, 10)
    z0_coeffs = [TPoly((c.coefficient(0),)) for c in z.c]
    quartic = USeries(10, [TPoly((1,)), TPoly(), TPoly(), TPoly(), TPoly((-1,))])
    assert USeries(10, z0_coeffs) == binomial_power(quartic, Fraction(-1, 2))


def test_log_series_t0_counts_geodesics():
    for name in ("triangle", "K4", "path(4)", "star(4)", "petersen"):
        g = CORPUS[name]
        coeffs = zeta_log_coefficients(g, 0, 0, 8)
        counts = closed_geodesic_counts(g, 0, 8)
        for m in range(1, 9):
            assert poly_eval_fraction(coeffs[m], Fraction(0)) == Fraction(counts[m], m)


@pytest.mark.parametrize("name", list(CORPUS))
def test_formula_route_equals_log_route(name):
    g = CORPUS[name]
    n = g.vertex_count
    for x0, x in [(0, 0), (0, 1), (1, n - 1)]:
        assert zeta_log_series(g, x0, x, 10) == zeta_formula_series(g, x0, x, 10)


def test_formula_route_deeper_order_non_regular():
    # pushes past the acceptance order so range slips in the commutator and
    # defect factors would surface
    g = CORPUS["path(4)"]
    for x0, x in [(0, 0), (1, 1), (0, 2)]:
        assert zeta_log_series(g, x0, x, 13) == zeta_formula_series(g, x0, x, 13)


@pytest.mark.parametrize("name", list(CORPUS))
def test_formula_route_low_orders_every_pair(name):
    # orders 1 and 2 cut the prefactor and the length-2 correction short;
    # the exponent series holds only the u-powers the order admits
    g = CORPUS[name]
    n = g.vertex_count
    for x0 in range(n):
        for x in range(n):
            for order in (1, 2, 3):
                assert zeta_formula_series(g, x0, x, order) == zeta_log_series(g, x0, x, order)


def test_formula_route_exponentiates_once(monkeypatch):
    calls = []
    exp = USeries.exp

    def counted(self):
        calls.append(self.order)
        return exp(self)

    def forbidden(self):
        raise AssertionError("the formula route takes no series log")

    monkeypatch.setattr(USeries, "exp", counted)
    monkeypatch.setattr(USeries, "log", forbidden)
    # the tree ball is not regular, so the commutator term is live too
    g = CORPUS["tree_ball(3,3)"]
    for x0, x in [(0, 0), (1, 1), (0, 1), (1, 5)]:
        calls.clear()
        zeta_formula_series(g, x0, x, 8)
        assert calls == [8]


@pytest.mark.parametrize("name", list(CORPUS))
def test_f_power_rows_match_dense_powers(name):
    # every row of the cached row recursion, rooted (j = x) and off the
    # diagonal, against the entries of dense operator-series powers of f
    g = CORPUS[name]
    n = g.vertex_count
    order = 8
    f = OperatorSeries(
        n, order,
        [OperatorPoly.zero(n), adjacency_poly(g), -(qxt_poly(g).scale(ONE_MINUS_T))],
    )
    powers = [OperatorSeries.identity(n, order)]
    for _ in range(order):
        powers.append(powers[-1] * f)
    for x in range(n):
        rows = _f_power_table(g, x, order)
        assert _f_power_table(g, x, order) is rows
        assert len(rows) == order + 1
        for k, power in enumerate(powers):
            for j in range(n):
                padded = [TPOLY_ZERO] * k + list(rows[k][j])
                assert USeries(order, padded) == power.entry(x, j)


def test_commutator_factor_trivial_on_regular():
    # the formula route skips the commutator term when regular_degree() is
    # set; on the connected corpus graphs K = A D - D A is zero exactly then
    for name, g in CORPUS.items():
        zero = all(v == 0 for row in commutator_matrix(g) for v in row)
        assert zero == (g.regular_degree() is not None), name
        assert zero == (name in REGULAR), name


@pytest.mark.parametrize("name,pairs", [
    ("star(4)", None),
    ("path(4)", None),
    ("tree_ball(3,3)", [(0, 0), (0, 4), (5, 17), (17, 17), (21, 3)]),
])
def test_commutator_recursion_matches_double_sum(name, pairs):
    # the row recursion for M_T = sum_{a+b=T} f^a D f^b against the direct
    # (a, b) double sum, on and off the diagonal
    g = CORPUS[name]
    n = g.vertex_count
    if pairs is None:
        pairs = [(x0, x) for x0 in range(n) for x in range(n)]
    live = 0
    for order in range(3, 17):
        for x0, x in pairs:
            got = _commutator_exponent(g, x0, x, _f_power_table(g, x0, order))
            assert got == commutator_exponent_loop(g, x0, x, order), (order, x0, x)
            live += any(not c.is_zero() for c in got)
    assert live  # the term is not zero everywhere, so the comparison has teeth


@pytest.mark.parametrize("name", VERTEX_TRANSITIVE)
def test_euler_product_equals_log_series_vertex_transitive(name):
    g = CORPUS[name]
    assert euler_product_series(g, 0, 10) == zeta_log_series(g, 0, 0, 10)


@pytest.mark.parametrize("name", list(CORPUS))
def test_euler_route_equals_literal_primitive_product(name):
    # the product over the enumeration oracle's primitive walks, one
    # binomial factor (1 - t^cbc u^len)^(-count/len) per (len, cbc) group
    g = CORPUS[name]
    order = 10
    for x0 in range(3):
        groups = Counter(
            (length, cbc) for _, length, cbc in primitive_rooted_closed_paths(g, x0, order)
        )
        product = USeries.one(order)
        for (length, cbc), count in sorted(groups.items()):
            coeffs = [TPOLY_ONE] + [TPOLY_ZERO] * (length - 1) + [TPoly([0] * cbc + [-1])]
            product = product * binomial_power(USeries(order, coeffs), Fraction(-count, length))
        assert product == euler_product_series(g, x0, order)


def test_euler_product_single_factor_shape():
    # a lone primitive walk of length 2 and cyclic count 2 contributes the
    # binomial factor (1 - t^2 u^2)^(-1/2) = 1 + t^2 u^2 / 2 + ...
    factor = binomial_power(
        USeries(6, [TPoly((1,)), TPoly(), TPoly((0, 0, -1))]), Fraction(-1, 2)
    )
    assert factor.coefficient(2) == TPoly((0, 0, Fraction(1, 2)))
    assert factor.coefficient(4) == TPoly((0, 0, 0, 0, Fraction(3, 8)))


@pytest.mark.parametrize("name", NON_TRANSITIVE)
def test_euler_vs_log_defect_off_transitivity(name):
    # the operator-defined zeta and the walk-counting zeta separate at u^6
    # (later on the tree ball); the defect carries t^2 (t-1)^2
    g = CORPUS[name]
    log_series = zeta_log_series(g, 0, 0, 10)
    euler = euler_product_series(g, 0, 10)
    assert log_series != euler
    first = next(
        m for m in range(11) if log_series.coefficient(m) != euler.coefficient(m)
    )
    assert first >= 6
    diff = log_series.coefficient(first) - euler.coefficient(first)
    for t in (Fraction(0), Fraction(1)):
        assert poly_eval_fraction(diff, t) == 0


def test_euler_vs_log_defect_path4_frozen():
    g = CORPUS["path(4)"]
    log_series = zeta_log_series(g, 0, 0, 10)
    euler = euler_product_series(g, 0, 10)
    diff = log_series.coefficient(6) - euler.coefficient(6)
    assert diff == TPoly((0, 0, Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)))


def test_finite_graph_product_law():
    # the product of the rooted zetas is the exponential of the
    # trace-averaged log-series
    for name in ("triangle", "K4"):
        g = CORPUS[name]
        order = 8
        product = USeries.one(order)
        trace = USeries.zero(order)
        for x0 in range(g.vertex_count):
            product = product * zeta_log_series(g, x0, x0, order)
            coeffs = zeta_log_coefficients(g, x0, x0, order)
            trace = trace + USeries(order, coeffs)
        assert product == trace.exp()


def test_local_spectrum_k4():
    spd = local_spectrum(CORPUS["K4"], 0, 0)
    assert spd.multiplicities == (1, 3)
    assert abs(spd.eigenvalues[0]) < 1e-10 and abs(spd.eigenvalues[1] - 4) < 1e-10
    assert abs(spd.weights[0] - 0.25) < 1e-12 and abs(spd.weights[1] - 0.75) < 1e-12


def test_local_spectrum_cycle4():
    spd = local_spectrum(CORPUS["cycle(4)"], 0, 0)
    assert [round(v) for v in spd.eigenvalues] == [0, 2, 4]
    assert spd.multiplicities == (1, 2, 1)
    assert abs(spd.weights[0] - 0.25) < 1e-12


def test_local_spectrum_resolution_of_identity():
    for g in CORPUS.values():
        spd = local_spectrum(g, 0, 0)
        assert abs(sum(spd.weights) - 1.0) < 1e-10
        assert all(w >= -1e-12 for w in spd.weights)
        mean = sum(l * w for l, w in zip(spd.eigenvalues, spd.weights))
        assert abs(mean - g.degrees[0]) < 1e-9


def test_local_spectrum_off_diagonal_symmetry():
    g = CORPUS["petersen"]
    a = local_spectrum(g, 0, 3)
    b = local_spectrum(g, 3, 0)
    assert np.allclose(a.weights, b.weights)


def test_perturbed_eigensolver_raises_on_every_call(perturbed_eigh):
    # a failed cross-check is not cached: the second call checks again
    g = CORPUS["petersen"]
    for _ in range(2):
        with pytest.raises(EigensolverFailure):
            local_spectrum(g, 0, 0)
    with pytest.raises(EigensolverFailure):
        zeta_spectral_report(g, 0, 0, 0.05, 0.25)["value"]


def test_spectrum_cross_check_runs_once_per_graph(monkeypatch):
    import bzk.zeta
    from bzk.graphs import generate

    calls = []

    def counted(mat):
        calls.append(len(mat))
        return charpoly_exact(mat)

    monkeypatch.setattr(bzk.zeta, "charpoly_exact", counted)
    g = generate("cycle", 5)
    for u in (0.05, 0.1):
        for t in (-0.25, 0.25):
            zeta_spectral_report(g, 0, 0, u, t)["value"]
            zeta_spectral_report(g, 1, 2, u, t)["value"]
    assert calls == [5]


def test_charpoly_and_root_isolation():
    # (x-1)^2 (x+2) = x^3 - 3x + 2: double root at 1, simple at -2
    p = [Fraction(c) for c in (2, -3, 0, 1)]
    roots = isolate_real_roots(p, Fraction(-10), Fraction(10))
    assert len(roots) == 2
    (lo1, hi1, m1), (lo2, hi2, m2) = roots
    assert m1 == 1 and lo1 <= -2 <= hi1
    assert m2 == 2 and lo2 <= 1 <= hi2
    ident = [[2, 0], [0, 2]]
    assert charpoly_exact(ident) == [Fraction(4), Fraction(-4), Fraction(1)]


@pytest.mark.parametrize("name,spectrum", [
    ("petersen", {0: 1, 2: 5, 5: 4}),
    ("Q3", {0: 1, 2: 3, 4: 3, 6: 1}),
])
def test_isolate_real_roots_laplacian_spectra(name, spectrum):
    # eigenvalue: multiplicity, read off the exact characteristic polynomial
    _, _, laplacian = graph_operators(CORPUS[name])
    roots = isolate_real_roots(charpoly_exact(laplacian), Fraction(-1), Fraction(7))
    assert [mult for _, _, mult in roots] == list(spectrum.values())
    for (lo, hi, _), lam in zip(roots, spectrum):
        assert lo <= lam <= hi and hi - lo <= Fraction(1, 10**12)


def test_zeta_spectral_matches_log_series_example():
    g = CORPUS["K4"]
    value = zeta_spectral_report(g, 0, 0, 0.1, 0.25)["value"]
    reference = reference_log_value(g, 0, 0, 0.1, 0.25, 20)
    assert abs(value / reference - 1.0) < 1e-9


def test_zeta_spectral_u_to_zero_limit():
    g = CORPUS["petersen"]
    assert abs(zeta_spectral_report(g, 0, 0, 1e-8, 0.3)["value"] - 1.0) < 1e-6


def test_zeta_spectral_petersen_t0():
    g = CORPUS["petersen"]
    value = zeta_spectral_report(g, 0, 0, 0.05, 0.0)["value"]
    reference = reference_log_value(g, 0, 0, 0.05, 0.0, 40)
    assert abs(value / reference - 1.0) < 1e-9


def test_zeta_spectral_domain_errors():
    with pytest.raises(NotRegular):
        zeta_spectral_report(CORPUS["path(4)"], 0, 0, 0.1, 0.0)["value"]
    with pytest.raises(DomainError):
        zeta_spectral_report(CORPUS["K4"], 0, 0, 0.5, 0.0)["value"]
    with pytest.raises(DomainError):
        zeta_spectral_report(CORPUS["K4"], 0, 0, 0.1, 1.5)["value"]


def test_zeta_spectral_report_tail_bound():
    rep = zeta_spectral_report(CORPUS["K4"], 0, 0, 0.1, 0.25)
    assert rep["order"] == 20
    assert 0.0 <= rep["r_tail_bound"] < 1e-9


def test_all_routes_agree_on_extra_transitive_graphs():
    # odd cycle (non-bipartite) and a denser complete graph, outside the
    # standing corpus
    from bzk.graphs import generate
    from bzk.operators import (check_cyclic_bump_identity,
                               check_no_tail_identity)

    for g in (generate("cycle", 5), generate("complete", 5)):
        assert check_no_tail_identity(g, 0, 8).passed
        assert check_cyclic_bump_identity(g, 0, 8).passed
        log_series = zeta_log_series(g, 0, 0, 8)
        assert log_series == zeta_formula_series(g, 0, 0, 8)
        assert log_series == euler_product_series(g, 0, 8)
