"""Acceptance criteria, one test per criterion, one pass/fail line each.

Criteria 2 and 4 assert the rooted per-length tally identities on every
corpus graph.  Those identities are provably false on the three corpus
graphs that are not vertex-transitive: the underlying counting argument
needs the tally of closed walks with no bump at the second position to
match the tally of tail-free closed walks, which holds under vertex
transitivity (and always at t = 0) but not in general.  The defect enters
at length 6 and carries t^2 (1-t)^2, so those two tests fail there and are
expected to stay red; test_operators.py and test_zeta.py pin the exact
counter-examples.  The remaining nine criteria pass.
"""

import math
import time
from fractions import Fraction

import numpy as np

from _oracles import operators as graph_operators
from bzk.heat import (bessel_heat_package, check_transform_consistency,
                      heat_kernel_bessel, heat_kernel_spectral,
                      resolvent_transform)
from bzk.operators import (alpha, check_cyclic_bump_identity,
                           check_no_tail_identity,
                           check_r_generating_identity,
                           check_series_inverse_identity, cm_sequence)
from bzk.series import TPoly, USeries
from bzk.zeta import (euler_product_series, zeta_formula_series,
                      zeta_log_coefficients, zeta_log_series,
                      zeta_spectral_report)
from conftest import CORPUS, REGULAR

from _oracles import (binomial_power, int_matrix_power, operator_reading_table,
                      poly_eval_fraction)
from _paths import closed_geodesic_counts, cm_bruteforce

SPECTRAL_GRAPHS = ("K4", "Q3", "petersen", "cycle(6)")


def report(number, label, failures):
    if failures:
        print(f"[FAIL] criterion {number}: {label} -- {len(failures)} failure(s); first: {failures[0]}")
    else:
        print(f"[PASS] criterion {number}: {label}")
    assert not failures, f"criterion {number}: {failures[:4]}"


def test_criterion_01_oracle_equivalence():
    started = time.time()
    failures = []
    for name, g in CORPUS.items():
        cms = cm_sequence(g, 8)
        for m in range(9):
            if cms[m] != cm_bruteforce(g, m):
                failures.append((name, m))
    elapsed = time.time() - started
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    report(1, f"walk-matrix recursion equals enumeration, m <= 8 ({elapsed:.1f}s)", failures)


def test_criterion_02_exact_identities_every_root():
    failures = []
    for name, g in CORPUS.items():
        if not check_series_inverse_identity(g, 10).passed:
            failures.append((name, "walk-series-inverse"))
        for x0 in range(g.vertex_count):
            for rep in (
                check_no_tail_identity(g, x0, 10),
                check_cyclic_bump_identity(g, x0, 10),
                check_r_generating_identity(g, x0, 10),
            ):
                if not rep.passed:
                    failures.append((name, x0, rep.identity, rep.first_failure))
    report(2, "rooted series identities exact at order 10, every root", failures)


def test_criterion_03_formula_route_equivalence():
    failures = []
    for name, g in CORPUS.items():
        n = g.vertex_count
        pairs = [(x0, x0) for x0 in range(n)] + [(0, n - 1), (0, 1)]
        for x0, x in pairs:
            if zeta_log_series(g, x0, x, 10) != zeta_formula_series(g, x0, x, 10):
                failures.append((name, x0, x))
    report(3, "closed-formula route equals log-series route mod u^11", failures)


def test_criterion_04_euler_product_equivalence():
    failures = []
    for name, g in CORPUS.items():
        for x0 in (0, g.vertex_count - 1):
            log_series = zeta_log_series(g, x0, x0, 10)
            euler = euler_product_series(g, x0, 10)
            if log_series != euler:
                first = next(
                    m for m in range(11)
                    if log_series.coefficient(m) != euler.coefficient(m)
                )
                failures.append((name, x0, f"first difference at u^{first}"))
    report(4, "Euler product equals log-series route mod u^11", failures)


def test_criterion_05_spectral_route_numeric():
    failures = []
    t_values = (-0.5, -0.25, 0.0, 0.25, 0.5)
    for name in SPECTRAL_GRAPHS:
        g = CORPUS[name]
        q1 = g.regular_degree()
        u_max = 0.8 / alpha(g, 0.0)
        order = 20
        rho = q1 * u_max
        while rho ** (order + 1) / ((order + 1) * (1.0 - rho)) > 1e-13:
            order += 1
        coeffs = zeta_log_coefficients(g, 0, 0, order)
        for t in t_values:
            exact = [float(poly_eval_fraction(c, Fraction(t))) for c in coeffs]
            for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
                u = frac * 0.8 / alpha(g, abs(t))
                reference = math.exp(sum(c * u**m for m, c in enumerate(exact)))
                value = zeta_spectral_report(g, 0, 0, u, t)["value"]
                rel = abs(value / reference - 1.0)
                if rel >= 1e-9:
                    failures.append((name, t, round(u, 4), rel))
    report(5, "spectral route vs log-series, 5x5 grid, rel < 1e-9", failures)


def test_criterion_06_heat_kernel_bessel_vs_spectral():
    failures = []
    taus = [0.5 * k for k in range(11)]
    t_values = (-0.5, 0.0, 0.5)
    for name in REGULAR:
        g = CORPUS[name]
        for x in (0, 1):
            for tau in taus:
                spectral = heat_kernel_spectral(g, 0, x, tau).value
                by_t = []
                for t in t_values:
                    value = heat_kernel_bessel(g, 0, x, tau, t, 1e-8).value
                    by_t.append(value)
                    if abs(value - spectral) >= 1e-8:
                        failures.append((name, x, tau, t, abs(value - spectral)))
                for a in by_t:
                    for b in by_t:
                        if abs(a - b) >= 2e-8:
                            failures.append((name, x, tau, "t-dependence", abs(a - b)))
    for tau in taus:
        closed = 0.25 + 0.75 * math.exp(-4.0 * tau)
        got = heat_kernel_bessel(CORPUS["K4"], 0, 0, tau, 0.0, 1e-8).value
        if abs(got - closed) >= 1e-8:
            failures.append(("K4 closed form", tau, abs(got - closed)))
    report(6, "Bessel heat kernel vs spectral within 1e-8, t-independent", failures)


def test_criterion_07_transform_power_identity():
    started = time.time()
    failures = []
    q = 2
    for k in range(11):
        for u in (0.05, 0.1, 0.2):
            for t in (0.0, 0.3, -0.3):
                f, rate, scale = bessel_heat_package(k, q, t)
                got = resolvent_transform(f, u, t, q, growth_rate=rate, growth_scale=scale)
                want = u ** (k - 1)
                rel = abs(got / want - 1.0)
                if rel >= 1e-6:
                    failures.append((k, u, t, rel))
    elapsed = time.time() - started
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    report(7, f"transform reproduces u^(k-1), k <= 10 ({elapsed:.1f}s)", failures)


def test_criterion_08_transform_pipeline():
    failures = []
    cases = {
        "K4": [(0.08, 0.25), (0.12, -0.3)],
        "cycle(6)": [(0.1, 0.0), (0.15, 0.4)],
        "Q3": [(0.1, 0.2), (0.06, -0.4)],
    }
    for name, points in cases.items():
        g = CORPUS[name]
        for u, t in points:
            rep = check_transform_consistency(g, 0, 1, u, t)
            if rep.max_deviation >= 1e-6:
                failures.append((name, u, t, rep.max_deviation))
    report(8, "heat-to-zeta transform three-way agreement < 1e-6", failures)


def test_criterion_09_norm_bound():
    failures = []
    for name, g in CORPUS.items():
        cms = cm_sequence(g, 8)
        for t in (0.0, 0.5, -0.5):
            bound = alpha(g, abs(t))
            for m in range(9):
                norm = float(np.linalg.norm(np.array(cms[m].evaluate(t)), 2))
                if norm > bound**m * (1.0 + 1e-12):
                    failures.append((name, t, m, norm, bound**m))
    report(9, "operator norms stay below the growth-base power", failures)


def test_criterion_10_specializations():
    failures = []
    for name, g in CORPUS.items():
        adjacency, _, _ = graph_operators(g)
        cms = cm_sequence(g, 8)
        for m in range(9):
            walks = int_matrix_power(adjacency, m)
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    if poly_eval_fraction(cms[m].entry(i, j), Fraction(1)) != walks[i][j]:
                        failures.append((name, "t=1", m, i, j))
        for x0 in (0, g.vertex_count - 1):
            coeffs = zeta_log_coefficients(g, x0, x0, 8)
            counts = closed_geodesic_counts(g, x0, 8)
            for m in range(1, 9):
                if poly_eval_fraction(coeffs[m], Fraction(0)) != Fraction(counts[m], m):
                    failures.append((name, "t=0 geodesics", x0, m))
    z = zeta_log_series(CORPUS["cycle(4)"], 0, 0, 10)
    t0 = USeries(10, [TPoly((c.coefficient(0),)) for c in z.c])
    quartic = USeries(10, [TPoly((1,)), TPoly(), TPoly(), TPoly(), TPoly((-1,))])
    if t0 != binomial_power(quartic, Fraction(-1, 2)):
        failures.append(("cycle(4)", "zeta t=0 closed form"))
    report(10, "specializations at t=1 and t=0", failures)


def test_criterion_11_negative_test_operator_reading(monkeypatch):
    import bzk.operators

    failures = []
    g = CORPUS["path(4)"]
    monkeypatch.setattr(bzk.operators, "_rooted_walk", operator_reading_table)
    rep = check_cyclic_bump_identity(g, 1, 10)
    if rep.passed:
        failures.append("operator-product reading unexpectedly satisfied the check")
    elif rep.first_failure != {"display": "series", "u_power": 3, "difference": "-2t + 2"}:
        failures.append(("unexpected first failure", rep.first_failure))
    report(11, "operator-product defect reading fails the cyclic-bump check", failures)
