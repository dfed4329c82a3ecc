"""Operator calculus: recursion vs oracle, defect values, identity checks.

The per-length cyclic-bump identities are exact on vertex-transitive graphs
and provably fail beyond length 5 elsewhere; both facts are pinned here (the
defect polynomial is frozen from the enumeration oracle).
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bzk.graphs import generate, operators as graph_operators
from bzk.operators import (_rooted_walk, _walk_row, _walk_rows, adjacency_poly, alpha,
                           check_cyclic_bump_identity, check_no_tail_identity,
                           check_r_generating_identity, check_series_inverse_identity,
                           cm_sequence, delta_diag, qxt_poly, r_values)
from bzk.paths import rooted_closed_tallies
from bzk.series import ONE_MINUS_T, OperatorPoly, TPoly
from bzk.zeta import zeta_log_series
from conftest import CORPUS, NON_TRANSITIVE, VERTEX_TRANSITIVE, random_connected_graph

from _oracles import cm_cbc, int_matrix_power, operator_reading_table, poly_eval_fraction
from _paths import cm_bruteforce, enumerate_closed_weighted, non_backtracking_matrices


@pytest.mark.parametrize("name", ["triangle", "cycle(4)", "path(4)", "star(4)", "K4"])
def test_cm_sequence_matches_bruteforce(name):
    g = CORPUS[name]
    cms = cm_sequence(g, 6)
    for m in range(7):
        assert cms[m] == cm_bruteforce(g, m)


@pytest.mark.parametrize("name", list(CORPUS))
def test_cm_sequence_matches_dense_products(name):
    # the neighbour-sum recursion against the two dense products per step
    g = CORPUS[name]
    a = adjacency_poly(g)
    qt = qxt_poly(g)
    dense = [OperatorPoly.identity(g.vertex_count), a,
             a * a - OperatorPoly.diagonal([TPoly((d,)) for d in g.degrees]).scale(ONE_MINUS_T)]
    for _ in range(3, 13):
        dense.append(dense[-1] * a - (dense[-2] * qt).scale(ONE_MINUS_T))
    for order in (0, 1, 2, 12):
        assert cm_sequence(g, order) == dense[: order + 1]


def test_cm_sequence_triangle_c2_diagonal():
    cms = cm_sequence(CORPUS["triangle"], 2)
    for x in range(3):
        assert cms[2].entry(x, x) == TPoly((0, 2))


def test_cm_sequence_at_t_one_is_walk_count():
    for name in ("triangle", "path(4)", "Q3"):
        g = CORPUS[name]
        a, _, _ = graph_operators(g)
        cms = cm_sequence(g, 8)
        for m in range(9):
            walks = int_matrix_power(a, m)
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    assert poly_eval_fraction(cms[m].entry(i, j), Fraction(1)) == walks[i][j]


def test_cm_sequence_symmetric():
    for g in CORPUS.values():
        for c in cm_sequence(g, 8):
            assert c.is_symmetric()


def test_cm_sequence_at_t_zero_is_non_backtracking():
    for name in ("triangle", "star(4)", "petersen"):
        g = CORPUS[name]
        cms = cm_sequence(g, 8)
        nb = non_backtracking_matrices(g, 8)
        for m in range(9):
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    assert cms[m].entry(i, j).coefficient(0) == nb[m][i][j]


def test_delta_diag_vertex_transitive_zero():
    for name in VERTEX_TRANSITIVE:
        g = CORPUS[name]
        cms = cm_sequence(g, 6)
        for m in range(7):
            assert all(v.is_zero() for v in delta_diag(g, cms[m]))


def test_delta_diag_path3_center():
    g = generate("path", 3)
    c2 = cm_sequence(g, 2)[2]
    assert [c2.entry(x, x) for x in range(3)] == [TPoly((0, 1)), TPoly((0, 2)), TPoly((0, 1))]
    assert delta_diag(g, c2)[1] == TPoly((0, 2))


def test_delta_diag_star_center_direct():
    g = CORPUS["star(4)"]
    c2 = cm_sequence(g, 2)[2]
    # center diagonal 4t, each leaf t: value 4*4t - 4*t = 12t
    direct = 4 * c2.entry(0, 0) - sum((c2.entry(y, y) for y in g.neighbors(0)), TPoly())
    assert delta_diag(g, c2)[0] == direct == TPoly((0, 12))


def test_r_m_low_lengths_zero():
    g = CORPUS["path(4)"]
    assert all(v.is_zero() for v in r_values(g, 1)[1])
    assert all(v.is_zero() for v in r_values(g, 2)[2])


def test_r_m_zero_on_vertex_transitive():
    for name in VERTEX_TRANSITIVE:
        g = CORPUS[name]
        rv = r_values(g, 10)
        for m in range(11):
            assert all(v.is_zero() for v in rv[m])


def test_r_m_nonzero_on_path4():
    # path(4) is bipartite, so odd lengths vanish; the even rows carry the
    # degree irregularity
    g = CORPUS["path(4)"]
    assert any(not v.is_zero() for v in r_values(g, 4)[4])
    assert any(not v.is_zero() for v in r_values(g, 6)[6])
    assert all(v.is_zero() for v in r_values(g, 5)[5])


@pytest.mark.parametrize("name", list(CORPUS))
def test_walk_table_matches_matrices_and_double_sum(name):
    # every root's RootedWalk against the walk matrices, delta_diag and the
    # double sum of r_values; every row built alone against the rows that
    # cm_sequence builds in turn, sharing the symmetric entries
    g = CORPUS[name]
    _walk_rows.cache_clear()
    cms = cm_sequence(g, 12)
    deltas = [delta_diag(g, c) for c in cms]
    rv = r_values(g, 12)
    for x0 in range(g.vertex_count):
        walk = _rooted_walk(g, x0, 12)
        assert _rooted_walk(g, x0, 12) is walk
        assert walk.diag == tuple(c.entry(x0, x0) for c in cms)
        assert walk.delta == tuple(row[x0] for row in deltas)
        assert walk.r == tuple(row[x0] for row in rv)
        _walk_rows.cache_clear()
        row = _walk_row(g, x0, 12)
        assert _walk_row(g, x0, 12) is row
        assert row == tuple(c.rows[x0] for c in cms)
        assert _walk_row(g, x0, 5) == row[:6]
    # every closed length-2 walk is a bump pair: C_2(x, x) = t deg(x)
    assert cms[2].diag() == [TPoly((0, d)) for d in g.degrees]


def test_rooted_walk_matches_dense_products_on_random_graphs():
    # rows and RootedWalk at order 16 against the two dense products per step
    rng = random.Random(1999)
    for _ in range(6):
        g = random_connected_graph(rng, rng.randint(2, 9))
        a = adjacency_poly(g)
        qt = qxt_poly(g)
        dense = [OperatorPoly.identity(g.vertex_count), a,
                 a * a - OperatorPoly.diagonal([TPoly((d,)) for d in g.degrees]).scale(ONE_MINUS_T)]
        for _ in range(3, 17):
            dense.append(dense[-1] * a - (dense[-2] * qt).scale(ONE_MINUS_T))
        deltas = [delta_diag(g, c) for c in dense]
        rv = r_values(g, 16, cms=dense)
        for x0 in rng.sample(range(g.vertex_count), min(3, g.vertex_count)):
            assert _walk_row(g, x0, 16) == tuple(c.rows[x0] for c in dense)
            walk = _rooted_walk(g, x0, 16)
            assert walk.diag == tuple(c.entry(x0, x0) for c in dense)
            assert walk.delta == tuple(row[x0] for row in deltas)
            assert walk.r == tuple(row[x0] for row in rv)


def test_rooted_walk_builds_only_the_rows_it_reads():
    # a root reads its own row and its neighbours' diagonals: 4 rows at the
    # centre of tree_ball(3,4), 2 at leaf 22
    g = generate("tree_ball", 3, 4)
    for x0, rows in ((0, [0, 1, 2, 3]), (22, [10, 22])):
        _walk_rows.cache_clear()
        zeta_log_series(g, x0, x0, 16)
        assert sorted(_walk_rows(g, 16)) == rows


def _record_row_stores(monkeypatch):
    """Every row store that operators._walk_row reads, in call order."""
    import bzk.operators

    stores = []
    kept = bzk.operators._walk_rows

    def recorded(g, order):
        stores.append(kept(g, order))
        return stores[-1]

    monkeypatch.setattr(bzk.operators, "_walk_rows", recorded)
    return stores


def test_verify_builds_walk_data_once_per_graph(monkeypatch, capsys):
    # one row store for the graph, holding each of its 10 rows: every row is
    # built once and shared by the series-inverse check and every root
    from bzk.cli import main

    stores = _record_row_stores(monkeypatch)
    assert main(["verify", "--family", "petersen", "--order", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len({id(store) for store in stores}) == 1
    assert sorted(stores[0]) == list(range(10))


def test_off_diagonal_zeta_builds_one_row(monkeypatch, capsys):
    from bzk.cli import main

    stores = _record_row_stores(monkeypatch)
    assert main(["zeta", "--family", "petersen", "--root", "0", "--target", "3",
                 "--order", "16", "--route", "log"]) == 0
    assert len({id(store) for store in stores}) == 1
    assert list(stores[0]) == [0]


def test_verify_runs_one_edge_tally_per_root(monkeypatch, capsys):
    # the no-tail and cyclic-bump checks and the Euler route of a root share
    # one edge tally; the enumerations are test references only
    import bzk.operators
    import bzk.paths
    import bzk.zeta
    from bzk.cli import main
    from bzk.edgewalk import edge_closed_tallies

    roots = []

    def counted(g, x0, order):
        roots.append(x0)
        return edge_closed_tallies(g, x0, order)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify enumerated closed walks")

    monkeypatch.setattr(bzk.operators, "edge_closed_tallies", counted)
    monkeypatch.setattr(bzk.paths, "rooted_closed_tallies", forbidden)
    monkeypatch.setattr(bzk.paths, "primitive_rooted_closed_paths", forbidden)
    bzk.operators._closed_tallies.cache_clear()
    assert main(["verify", "--family", "petersen", "--order", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert sorted(roots) == list(range(10))
    g = CORPUS["K4"]
    tallies = bzk.operators._closed_tallies(g, 0, 6)
    assert all(isinstance(tally, tuple) for tally in tallies)
    cbc_all, _, no_tail = rooted_closed_tallies(g, 0, 6)
    assert tallies == (tuple(cbc_all), tuple(no_tail))


def test_cm_cbc_base_cases():
    g = CORPUS["triangle"]
    cms = cm_sequence(g, 2)
    assert cm_cbc(g, 0) == cms[0]
    assert cm_cbc(g, 1) == cms[1]
    c2 = cm_cbc(g, 2)
    for x in range(3):
        assert c2.entry(x, x) == TPoly((0, 0, 2))


@pytest.mark.parametrize("name", VERTEX_TRANSITIVE)
def test_cm_cbc_diagonal_matches_oracle_vertex_transitive(name):
    g = CORPUS[name]
    cms = cm_sequence(g, 8)
    for m in range(9):
        c = cm_cbc(g, m, cms=cms)
        assert c.entry(0, 0) == enumerate_closed_weighted(g, 0, m, "cbc")


@pytest.mark.parametrize("name", NON_TRANSITIVE)
def test_cm_cbc_diagonal_matches_oracle_through_length_five(name):
    g = CORPUS[name]
    cms = cm_sequence(g, 5)
    for m in range(6):
        c = cm_cbc(g, m, cms=cms)
        for x in range(g.vertex_count):
            assert c.entry(x, x) == enumerate_closed_weighted(g, x, m, "cbc")


def test_cm_cbc_diagonal_defect_at_length_six_path4():
    # beyond length 5 the cyclic-bump operator's diagonal is NOT the
    # enumeration tally off vertex transitivity; the defect carries the
    # factor t^2 (t-1)^2, so it is invisible at t = 0 and t = 1
    g = CORPUS["path(4)"]
    diff = cm_cbc(g, 6).entry(0, 0) - enumerate_closed_weighted(g, 0, 6, "cbc")
    assert diff == TPoly((0, 0, -2, 4, -2))
    assert poly_eval_fraction(diff, Fraction(0)) == 0
    assert poly_eval_fraction(diff, Fraction(1)) == 0


def test_cm_cbc_t_zero_diagonal_counts_geodesics():
    from _paths import closed_geodesic_counts

    for name in ("triangle", "path(4)", "star(4)", "petersen"):
        g = CORPUS[name]
        cms = cm_sequence(g, 8)
        counts = closed_geodesic_counts(g, 0, 8)
        for m in range(1, 9):
            assert cm_cbc(g, m, cms=cms).entry(0, 0).coefficient(0) == counts[m]


def test_alpha_values():
    g3 = CORPUS["K4"]
    assert math.isclose(alpha(g3, 0.0), (3 + math.sqrt(21)) / 2, rel_tol=1e-12)
    g2 = CORPUS["cycle(4)"]
    assert math.isclose(alpha(g2, 0.0), 1 + math.sqrt(3), rel_tol=1e-12)


def test_alpha_bounds_operator_norms():
    for name in ("triangle", "path(4)", "K4"):
        g = CORPUS[name]
        cms = cm_sequence(g, 8)
        for t in (0.0, 0.5, -0.5):
            a = alpha(g, abs(t))
            for m in range(9):
                mat = np.array(cms[m].evaluate(t))
                assert np.linalg.norm(mat, 2) <= a**m + 1e-9


@pytest.mark.parametrize("name", VERTEX_TRANSITIVE)
def test_identity_checks_pass_vertex_transitive(name):
    g = CORPUS[name]
    roots = [0, g.vertex_count // 2]
    assert check_series_inverse_identity(g, 10).passed
    for x0 in roots:
        assert check_no_tail_identity(g, x0, 10).passed
        assert check_cyclic_bump_identity(g, x0, 10).passed
        assert check_r_generating_identity(g, x0, 10).passed


@pytest.mark.parametrize("name", NON_TRANSITIVE)
def test_series_inverse_and_r_generating_hold_everywhere(name):
    # these two identities are pure operator algebra and survive the loss of
    # vertex transitivity
    g = CORPUS[name]
    assert check_series_inverse_identity(g, 10).passed
    for x0 in range(g.vertex_count):
        assert check_r_generating_identity(g, x0, 10).passed


@pytest.mark.parametrize("name", NON_TRANSITIVE)
def test_tally_identities_fail_off_vertex_transitivity(name):
    # documented defect: the no-tail and cyclic-bump displays first break at
    # u^6 (u^8 for the tree ball, whose radius delays the effect)
    g = CORPUS[name]
    rep_n = check_no_tail_identity(g, 0, 10)
    rep_c = check_cyclic_bump_identity(g, 0, 10)
    assert not rep_n.passed and not rep_c.passed
    assert rep_n.first_failure["u_power"] >= 6
    assert rep_c.first_failure["u_power"] >= 6


def test_operator_interpretation_fails_check_on_path4(monkeypatch):
    # the negative test for the rejected reading of the defect term: reading
    # the Laplacian hit as a matrix product breaks the cyclic-bump check
    # immediately (length 3), unlike the adopted diagonal reading (length 6)
    import bzk.operators

    g = CORPUS["path(4)"]
    rep_diag = check_cyclic_bump_identity(g, 1, 10)
    assert not rep_diag.passed
    assert rep_diag.first_failure["u_power"] == 6
    monkeypatch.setattr(bzk.operators, "_rooted_walk", operator_reading_table)
    rep_op = check_cyclic_bump_identity(g, 1, 10)
    assert not rep_op.passed
    assert rep_op.first_failure == {"display": "series", "u_power": 3,
                                    "difference": "-2t + 2"}


def test_cyclic_bump_per_length_display_reads_cbc_terms(monkeypatch):
    # the per-length display checks the entries of operators.cbc_terms, the
    # code that the log route reads through zeta.cbc_entries
    import bzk.operators

    exact = bzk.operators.cbc_terms

    def shifted(c, deg, r=None):
        out = exact(c, deg, r)
        out[5] = out[5] + TPoly((0,) * 9 + (1,))
        return out

    monkeypatch.setattr(bzk.operators, "cbc_terms", shifted)
    rep = check_cyclic_bump_identity(CORPUS["K4"], 0, 8)
    assert rep.first_failure == {"display": "per-length", "u_power": 5, "difference": "-t^9"}


def test_adjacency_poly_matches_operators():
    g = CORPUS["petersen"]
    a, _, _ = graph_operators(g)
    ap = adjacency_poly(g)
    for i in range(10):
        for j in range(10):
            assert ap.entry(i, j) == TPoly((a[i][j],))
