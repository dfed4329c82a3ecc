"""Zeta routes: log-series, closed formula, Euler product, spectral."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import bzk.zeta
from bzk.edgewalk import edge_closed_tallies
from bzk.heat import check_transform_consistency
from bzk.operators import (check_cyclic_bump_identity, check_no_tail_identity,
                           check_r_generating_identity, cm_sequence)
from bzk.paths import primitive_rooted_closed_paths
from bzk.series import ONE_MINUS_T, TPOLY_ONE, TPOLY_ZERO, TPoly, USeries
from bzk.graphs import generate
from bzk.zeta import (DomainError, EigensolverFailure, NotRegular,
                      _commutator_exponent, _f_power_table, _formula_exponent, _restored,
                      cbc_entries,
                      charpoly_exact, euler_product_series, isolate_real_roots,
                      local_spectrum, zeta_formula_series,
                      zeta_log_coefficients, zeta_log_series,
                      zeta_spectral_report)
from conftest import (CORPUS, NON_TRANSITIVE, REGULAR, VERTEX_TRANSITIVE,
                      random_connected_graph)

from _oracles import (binomial_power, cm_cbc, commutator_exponent_loop,
                      commutator_matrix, dense_f_powers, formula_exponent,
                      fraction_charpoly, operators as graph_operators,
                      poly_eval_fraction, series_from_scaled)
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
    # the route hands its integer exponent to series._exp_from_scaled,
    # through zeta's binding of it, once
    calls = []
    exp = bzk.zeta._exp_from_scaled

    def counted(order, scaled, scale):
        calls.append(order)
        return exp(order, scaled, scale)

    def forbidden(self):
        raise AssertionError("the formula route takes no series log")

    monkeypatch.setattr(bzk.zeta, "_exp_from_scaled", counted)
    monkeypatch.setattr(USeries, "log", forbidden)
    # the tree ball is not regular, so the commutator term is live too
    g = CORPUS["tree_ball(3,3)"]
    for x0, x in [(0, 0), (1, 1), (0, 1), (1, 5)]:
        calls.clear()
        zeta_formula_series(g, x0, x, 8)
        assert calls == [8]


def _formula_exponent_graphs():
    graphs = dict(CORPUS)
    rng = random.Random(2020)
    for k in range(6):
        graphs[f"random {k}"] = random_connected_graph(rng, rng.randint(3, 9))
    return graphs


FORMULA_EXPONENT_GRAPHS = _formula_exponent_graphs()


@pytest.mark.parametrize("name", list(FORMULA_EXPONENT_GRAPHS))
def test_formula_exponent_matches_fraction_assembly(name):
    # the route's integer exponent scale m a_m, divided by m scale, against
    # the factor-by-factor Fraction sum on dense powers of f, at every root,
    # on the diagonal and to the next vertex and one farther away, orders 1
    # to 16; a_m does not depend on the order past m, so the reference is
    # summed once at order 16 and cut
    g = FORMULA_EXPONENT_GRAPHS[name]
    n = g.vertex_count
    pairs = [(x0, x) for x0 in range(n) for x in {x0, (x0 + 1) % n, (x0 + n // 2) % n}]
    for x0, x in pairs:
        want = formula_exponent(g, x0, x, 16)
        for order in range(1, 17):
            scaled, scale = _formula_exponent(g, x0, x, order)
            assert scale == math.lcm(*range(1, order + 1))
            assert len(scaled) == order + 1 and not any(scaled[0])
            got = series_from_scaled(order, scaled, scale)
            assert list(got.c) == want[:order + 1], (order, x0, x)


def test_formula_exponent_matches_fraction_assembly_star6_order32():
    # the longest formula exponent in the golden files: star(6), at the
    # centre, at a leaf, and between two leaves with the commutator term
    g = generate("star", 6)
    for x0, x in [(0, 0), (1, 1), (1, 2), (0, 3)]:
        scaled, scale = _formula_exponent(g, x0, x, 32)
        got = series_from_scaled(32, scaled, scale)
        assert list(got.c) == formula_exponent(g, x0, x, 32), (x0, x)


def _restored_entry(order, k, digits):
    """The u-series of a target entry of _f_power_table at u^k: digit p is
    its u^(k+p) coefficient over (1-t)^p."""
    coeffs = [TPOLY_ZERO] * (order + 1)
    for p, q in enumerate(digits):
        coeffs[k + p] = TPoly(q) * ONE_MINUS_T ** p
    return USeries(order, coeffs)


@pytest.mark.parametrize("name", list(CORPUS))
def test_f_power_rows_match_dense_powers(name):
    # the target entries f^k(x0, x) of the streamed pass, at every (x0, x)
    # pair, each digit restored by its power of 1 - t, against the entries
    # of dense operator-series powers of f
    g = CORPUS[name]
    order = 8
    powers = dense_f_powers(g, order)
    for x0 in range(g.vertex_count):
        for x in range(g.vertex_count):
            table, _ = _f_power_table(g, x0, x, order)
            assert _f_power_table(g, x0, x, order)[0] is table
            assert len(table) == order + 1
            for k, power in enumerate(powers):
                assert len(table[k]) <= min(k, order - k) + 1
                assert _restored_entry(order, k, table[k]) == power.entry(x0, x), (x0, x, k)


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
    # the commutator rows M_T = sum_{a+b=T} f^a D f^b of the streamed pass,
    # through their decoded target entries, against the direct (a, b) double
    # sum over dense powers of f, on and off the diagonal
    g = CORPUS[name]
    n = g.vertex_count
    if pairs is None:
        pairs = [(x0, x) for x0 in range(n) for x in range(n)]
    powers = dense_f_powers(g, 16)
    live = 0
    for order in range(3, 17):
        # the recursion returns scale m a_m; a_m is compared
        scale = math.lcm(*range(1, order + 1))
        for x0, x in pairs:
            _, integrand = _f_power_table(g, x0, x, order)
            scaled = _restored(order, _commutator_exponent(integrand, scale))
            got = series_from_scaled(order, scaled, scale)
            assert list(got.c) == commutator_exponent_loop(g, x0, x, order, powers), (order, x0, x)
            live += not got.is_zero()
    assert live  # the term is not zero everywhere, so the comparison has teeth


# formula-route mutants, each a name in bzk.zeta and its replacement made
# from the real one
FORMULA_MUTANTS = {
    # U one W-digit short, so digit p = order // 2 spills into the next
    "digit width narrowed": ("_digit_width",
                             lambda real: lambda width, degree: real(width, degree) - width),
    # (1-t)^(q+1) restored where (1-t)^q belongs
    "restore off by one power": ("_restored",
                                 lambda real: lambda order, terms: real(
                                     order, ((m, q + 1, share, c) for m, q, share, c in terms))),
    # the step weight d - 2 + t in place of d - 1 + t
    "weight d - 2 + t": ("_f_weight", lambda real: lambda d: (d - 2, 1)),
}


def _formula_equals_log(order, names=("petersen", "tree_ball(3,3)")):
    """Whether the formula and log routes agree at order on the named graphs
    of Petersen and tree_ball(3,3), on and off the diagonal, built afresh:
    the f table is emptied before and after."""
    cases = [(name, pairs) for name, pairs in (
        ("petersen", [(0, 0), (0, 1)]),
        ("tree_ball(3,3)", [(0, 0), (0, 4), (5, 5), (5, 17), (17, 17)])) if name in names]
    bzk.zeta._f_power_table.cache_clear()
    try:
        return all(zeta_formula_series(CORPUS[name], x0, x, order)
                   == zeta_log_series(CORPUS[name], x0, x, order)
                   for name, pairs in cases for x0, x in pairs)
    finally:
        bzk.zeta._f_power_table.cache_clear()


@pytest.mark.parametrize("mutant", list(FORMULA_MUTANTS))
def test_formula_route_mutants_fail(monkeypatch, mutant):
    # the log route shares no step, width or restore code with the formula
    # route, and reads the f weight through operators, not zeta, so a broken
    # formula route shows as a disagreement at order 16.  The weight is read
    # on regular graphs too, by the binomial expansion of the f-powers, so
    # its mutant fails on Petersen alone.
    assert _formula_equals_log(16)
    name, make = FORMULA_MUTANTS[mutant]
    monkeypatch.setattr(bzk.zeta, name, make(getattr(bzk.zeta, name)))
    assert not _formula_equals_log(16)
    if name == "_f_weight":
        assert not _formula_equals_log(16, ("petersen",))


def _restore_cases():
    """(order, terms) for _restored: seeded random terms (m, q, share, Q),
    q <= m, with shares and coefficients of both signs and up to 40 bits,
    and lone terms whose l1 majorant is their one coefficient, at and
    around powers of two, where the width has no bit to spare."""
    rng = random.Random(3131)
    cases = []
    for _ in range(300):
        order = rng.randint(0, 16)
        terms = []
        for _ in range(rng.randint(0, 12)):
            m = rng.randint(0, order)
            bits = rng.randint(0, 40)
            coeffs = tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(0, 9)))
            terms.append((m, rng.randint(0, m), rng.choice([1, -1, rng.randint(-10**6, 10**6)]),
                          coeffs))
        cases.append((order, terms))
    for c in (1, 2, 3, (1 << 40) - 1, 1 << 40, (1 << 41) - 1):
        for share in (1, -1):
            cases.append((2, [(2, 0, share, (c,))]))
    return cases


def _restored_is_the_plain_sum(cases):
    """Whether bzk.zeta._restored gives, for every case, the sums
    s_m = sum share (1-t)^q Q of its terms, taken by TPoly arithmetic."""
    for order, terms in cases:
        plain = [TPOLY_ZERO] * (order + 1)
        for m, q, share, coeffs in terms:
            plain[m] = plain[m] + TPoly(coeffs) * share * ONE_MINUS_T ** q
        if [TPoly(s) for s in bzk.zeta._restored(order, iter(terms))] != plain:
            return False
    return True


def test_restored_equals_the_plain_sum():
    assert _restored_is_the_plain_sum(_restore_cases())


def test_restore_width_one_bit_short_fails(monkeypatch):
    # the packed restore decodes at the width of its l1 majorant; a bit
    # narrower misreads a lone coefficient that fills its majorant
    cases = _restore_cases()
    assert _restored_is_the_plain_sum(cases)
    norm_width = bzk.zeta._norm_width
    monkeypatch.setattr(bzk.zeta, "_norm_width", lambda bound: norm_width(bound) - 1)
    assert not _restored_is_the_plain_sum(cases)


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


def test_charpoly_matches_fraction_recursion():
    # the int recursion on D M against the Fraction recursion on M: corpus
    # and random Laplacians (D = 1), and random rational matrices, where the
    # denominators up to 3 put D at 2, 3 or 6 and the division by D^(n-i)
    # shows
    rng = random.Random(2121)
    mats = [graph_operators(g)[2] for g in CORPUS.values()]
    mats += [graph_operators(random_connected_graph(rng, rng.randint(2, 10)))[2]
             for _ in range(20)]
    scaled = 0
    for _ in range(30):
        n = rng.randint(1, 10)
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                for _ in range(n)] for _ in range(n)]
        scaled += math.lcm(*(Fraction(x).denominator for row in mat for x in row)) > 1
        mats.append(mat)
    assert scaled >= 25
    for mat in mats:
        assert charpoly_exact(mat) == fraction_charpoly(mat)


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


def test_dense_operators_match_int_reference():
    # byte for byte the float arrays of the nested int tuples they replace
    from bzk.graphs import parse_graph_json
    from bzk.zeta import _dense_operators

    one_vertex = parse_graph_json('{"vertices": 1, "edges": []}')
    for g in list(CORPUS.values()) + [one_vertex]:
        adjacency, _, laplacian = graph_operators(g)
        dense_adjacency, dense_laplacian = _dense_operators(g)
        for dense, reference in ((dense_adjacency, adjacency), (dense_laplacian, laplacian)):
            want = np.array(reference, dtype=float)
            assert dense.dtype == want.dtype and dense.shape == want.shape
            assert dense.tobytes() == want.tobytes()


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


# each library entry that takes vertices, as (x0, x) -> call; the per-root
# ones ignore x
_VERTEX_ENTRIES = {
    "cbc_entries": lambda g, x0, x: cbc_entries(g, x0, x, 6),
    "zeta_log_series": lambda g, x0, x: zeta_log_series(g, x0, x, 6),
    "zeta_formula_series": lambda g, x0, x: zeta_formula_series(g, x0, x, 6),
    "euler_product_series": lambda g, x0, x: euler_product_series(g, x0, 6),
    "zeta_spectral_report": lambda g, x0, x: zeta_spectral_report(g, x0, x, 0.1, 0.0),
    "check_transform_consistency":
        lambda g, x0, x: check_transform_consistency(g, x0, x, 0.1, 0.0),
    "check_no_tail_identity": lambda g, x0, x: check_no_tail_identity(g, x0, 6),
    "check_cyclic_bump_identity": lambda g, x0, x: check_cyclic_bump_identity(g, x0, 6),
    "check_r_generating_identity": lambda g, x0, x: check_r_generating_identity(g, x0, 6),
    "edge_closed_tallies": lambda g, x0, x: edge_closed_tallies(g, x0, 6),
    "local_spectrum": lambda g, x0, x: local_spectrum(g, x0, x),
}
_PER_ROOT = ("euler_product_series", "check_no_tail_identity",
             "check_cyclic_bump_identity", "check_r_generating_identity",
             "edge_closed_tallies")


@pytest.mark.parametrize("bad", [-1, 10])
@pytest.mark.parametrize("entry", sorted(_VERTEX_ENTRIES))
def test_out_of_range_vertices_are_refused(entry, bad):
    # a negative vertex used to read vertex n - 1 (zeta_spectral_report gave
    # 1.000256 at -1 on Petersen), and vertex n raised a bare IndexError
    g = CORPUS["petersen"]
    call = _VERTEX_ENTRIES[entry]
    call(g, 0, 1)
    with pytest.raises(ValueError, match="vertex"):
        call(g, bad, 1)
    if entry not in _PER_ROOT:
        with pytest.raises(ValueError, match="vertex"):
            call(g, 0, bad)
