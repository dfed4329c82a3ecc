"""Operator calculus: recursion vs oracle, defect values, identity checks.

The per-length cyclic-bump identities are exact on vertex-transitive graphs
and provably fail beyond length 5 elsewhere; both facts are pinned here (the
defect polynomial is frozen from the enumeration oracle).
"""

import inspect
import json
import math
import random
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bzk.graphs import generate
from bzk.operators import (_rooted_walk, _walk_rows, alpha, check_cyclic_bump_identity,
                           check_no_tail_identity, check_r_generating_identity,
                           check_series_inverse_identity, cm_sequence, delta_diag, r_values)
from bzk.paths import rooted_closed_tallies
from bzk.series import (ONE_MINUS_T, OperatorPoly, TPoly, _digit, _digit_width, _packed_width,
                        _unpack)
from bzk.zeta import zeta_log_series
from conftest import CORPUS, NON_TRANSITIVE, VERTEX_TRANSITIVE, random_connected_graph

from _oracles import (adjacency_poly, cm_cbc, dense_series_inverse_check, int_matrix_power,
                      operator_reading_table, operators as graph_operators,
                      poly_eval_fraction, qxt_poly, useries_cyclic_bump_check,
                      useries_no_tail_check, useries_r_generating_check)
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


def _decoded(g, rows, order):
    """Every entry of a one-root pass of _walk_rows, as TPoly: with one root
    the packed rows are the entries themselves."""
    width = _packed_width(g.max_degree, order)
    return tuple(tuple(_unpack(v, width) for v in entries) for entries in rows)


@pytest.mark.parametrize("name", list(CORPUS))
def test_walk_table_matches_matrices_and_double_sum(name):
    # every root's RootedWalk against the walk matrices, delta_diag and the
    # double sum of r_values; every root's one-root pass against the rows of
    # the pass over all roots that cm_sequence decodes
    g = CORPUS[name]
    cms = cm_sequence(g, 12)
    deltas = [delta_diag(g, c) for c in cms]
    rv = r_values(g, 12)
    for x0 in range(g.vertex_count):
        walk = _rooted_walk(g, x0, 12)
        assert _rooted_walk(g, x0, 12) is walk
        assert walk.diag == tuple(c.entry(x0, x0) for c in cms)
        assert walk.delta == tuple(row[x0] for row in deltas)
        assert walk.r == tuple(row[x0] for row in rv)
        rows = _decoded(g, _walk_rows(g, (x0,), 12), 12)
        assert rows == tuple(c.rows[x0] for c in cms)
        assert _decoded(g, _walk_rows(g, (x0,), 5), 5) == rows[:6]
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
            assert _decoded(g, _walk_rows(g, (x0,), 16), 16) == tuple(c.rows[x0] for c in dense)
            walk = _rooted_walk(g, x0, 16)
            assert walk.diag == tuple(c.entry(x0, x0) for c in dense)
            assert walk.delta == tuple(row[x0] for row in deltas)
            assert walk.r == tuple(row[x0] for row in rv)


def _pass_matches_one_root_rows(g, roots, order):
    """Whether every root digit of the pass of operators._walk_rows over
    roots equals the packed entry of that root's one-root pass, both read
    through the module, so that a test may replace _walk_rows.  The pass
    streams, so it is kept here to be read once per root, and every root's
    every entry must be compared."""
    import bzk.operators

    shift = _digit_width(_packed_width(g.max_degree, order), order)
    rows = tuple(bzk.operators._walk_rows(g, roots, order))
    same = [_digit(v, r, shift) == own
            for r, y in enumerate(roots)
            for row, own_row in zip(rows, bzk.operators._walk_rows(g, (y,), order))
            for v, own in zip(row, own_row)]
    assert len(same) == len(roots) * (order + 1) * g.vertex_count
    return all(same)


def _root_tuples(g, rng):
    """Root tuples for a pass: every vertex with its neighbours, a few
    random tuples (repeats allowed) and every vertex at once."""
    n = g.vertex_count
    tuples = [(x0, *g.neighbors(x0)) for x0 in range(n)]
    tuples += [tuple(rng.choices(range(n), k=rng.randint(1, n + 2))) for _ in range(3)]
    return tuples + [tuple(range(n))]


@pytest.mark.parametrize("g", list(CORPUS.values())
                         + [random_connected_graph(random.Random(2424 + k), 2 + k % 9)
                            for k in range(10)],
                         ids=lambda g: g.label)
def test_pass_digits_equal_one_root_rows(g):
    # the pass over a root tuple holds, in root digit r, the packed rows of
    # roots[r] alone, digit by digit, at every order 0..16
    rng = random.Random(g.vertex_count)
    for order in range(17):
        for roots in _root_tuples(g, rng):
            assert _pass_matches_one_root_rows(g, roots, order), (roots, order)


def test_walk_pass_streams():
    # a pass yields its rows and keeps the last two, and its callers read it
    # as it streams: at order 64 a pass over the 12 roots of complete(12),
    # a root and its neighbours, and the series-inverse check on
    # hypercube(5) each peak near 1 MB, where holding every row of a pass
    # took 17.7 and 29.5 MB
    assert inspect.isgenerator(_walk_rows(CORPUS["K4"], (0,), 4))
    complete, cube = generate("complete", 12), generate("hypercube", 5)
    _packed_width(11, 64), _packed_width(5, 64)

    def consume(rows):
        for _ in rows:
            pass

    for run in (lambda: consume(_walk_rows(complete, tuple(range(12)), 64)),
                lambda: check_series_inverse_identity(cube, 64)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


def _record_passes(monkeypatch):
    """(kind, roots, targets) of every pass of operators._walk_rows ("walk")
    and operators._adjacency_rows ("adjacency"), in call order, through the
    bindings in operators and zeta, targets None for a pass that computes
    every entry; the root walks and f tables are emptied first, so that
    every read is a miss."""
    import bzk.operators
    import bzk.zeta

    passes = []

    def recording(kind, rows):
        def recorded(g, roots, order, targets=None):
            passes.append((kind, tuple(roots), targets and tuple(targets)))
            return rows(g, roots, order, targets)
        return recorded

    walk = recording("walk", bzk.operators._walk_rows)
    adjacency = recording("adjacency", bzk.operators._adjacency_rows)
    for module in (bzk.operators, bzk.zeta):
        monkeypatch.setattr(module, "_walk_rows", walk)
        monkeypatch.setattr(module, "_adjacency_rows", adjacency)
    bzk.operators._rooted_walk.cache_clear()
    bzk.zeta._f_power_table.cache_clear()
    return passes


def test_rooted_walk_builds_only_the_rows_it_reads(monkeypatch):
    # a root reads its own diagonal and its neighbours', so its walk is one
    # pass over the root and its neighbours, read at those roots alone, which
    # it passes as the targets of its light cone: 4 roots at the centre of
    # tree_ball(3,4), 2 at leaf 22
    g = generate("tree_ball", 3, 4)
    passes = _record_passes(monkeypatch)
    for x0, roots in ((0, (0, 1, 2, 3)), (22, (22, 10))):
        passes.clear()
        zeta_log_series(g, x0, x0, 16)
        assert passes == [("walk", roots, roots)]
        assert roots == (x0, *g.neighbors(x0))


def test_verify_passes_are_check_groups_then_one_per_root(monkeypatch, capsys):
    # the series-inverse check runs its roots in groups of max degree + 1,
    # on the walk rows, and each root's walk (a miss of _rooted_walk) is one
    # pass over the root and its neighbours, shared by its checks and
    # routes: on Petersen, which is regular, a pass of adjacency counts.  The
    # check reads every entry, so its passes have no targets; a root's pass
    # is read at its roots
    from bzk.cli import main

    g = CORPUS["petersen"]
    passes = _record_passes(monkeypatch)
    assert main(["verify", "--family", "petersen", "--order", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    groups = [("walk", roots, None) for roots in ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9))]
    assert passes == groups + [("adjacency", (x0, *g.neighbors(x0)), (x0, *g.neighbors(x0)))
                               for x0 in range(10)]


def test_off_diagonal_zeta_builds_one_row(monkeypatch, capsys):
    # the entries (x0, x) are row x0's: one pass over x0 alone, read at x
    # alone, of adjacency counts on Petersen, which is regular, and of the
    # walk rows on a graph that is not
    from bzk.cli import main

    passes = _record_passes(monkeypatch)
    assert main(["zeta", "--family", "petersen", "--root", "0", "--target", "3",
                 "--order", "16", "--route", "log"]) == 0
    assert passes == [("adjacency", (0,), (3,))]
    passes.clear()
    assert main(["zeta", "--family", "path", "--n", "5", "--root", "1", "--target", "3",
                 "--order", "16", "--route", "log"]) == 0
    assert passes == [("walk", (1,), (3,))]


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


def _random_graph_cases():
    rng = random.Random(2022)
    return [(random_connected_graph(rng, rng.randint(2, 9)), order) for order in range(2, 13)]


@pytest.mark.parametrize("g, order",
                         [(CORPUS[name], order) for name in CORPUS for order in (2, 3, 6, 12)]
                         + _random_graph_cases(),
                         ids=lambda v: getattr(v, "label", str(v)))
def test_series_inverse_check_matches_dense_product(g, order):
    # the neighbour sums on the packed rows against the dense operator product
    report = check_series_inverse_identity(g, order)
    assert report.passed
    assert report == dense_series_inverse_check(g, order)


def _both_series_inverse_reports(g, order):
    return check_series_inverse_identity(g, order), dense_series_inverse_check(g, order)


@pytest.mark.parametrize("name", ["petersen", "path(4)"])
def test_series_inverse_check_rejects_a_wrong_walk_matrix(name, monkeypatch):
    # t^2 added to entry (y, y) of C_5, in root y's digit of every pass that
    # holds y, first shows at u^5: y = 0 leads the first group, y = 5 is the
    # second root of its group on Petersen and y = 3 the first of path(4)'s
    # second group
    import bzk.operators

    walk_rows = bzk.operators._walk_rows
    g = CORPUS[name]
    for y in (0, 5 if name == "petersen" else 3):
        def wrong(g, roots, order):
            width = _packed_width(g.max_degree, order)
            rows = [list(row) for row in walk_rows(g, roots, order)]
            for r, root in enumerate(roots):
                if root == y:
                    rows[5][y] += 1 << (2 * width + r * _digit_width(width, order))
            return tuple(map(tuple, rows))

        monkeypatch.setattr(bzk.operators, "_walk_rows", wrong)
        for report in _both_series_inverse_reports(g, 10):
            assert not report.passed
            assert report.first_failure == {"display": "plain", "u_power": 5}


@pytest.mark.parametrize("name", ["petersen", "path(4)"])
def test_series_inverse_check_rejects_a_wrong_valency_term(name, monkeypatch):
    # d - 1 - t in place of d - 1 + t changes B's u^2 coefficient, in the
    # check's own weight and in the dense reference's D - (1-t)I alike
    import bzk.operators

    import _oracles

    monkeypatch.setattr(bzk.operators, "_inverse_weight", lambda d: (d - 1, -d, 1))
    monkeypatch.setattr(_oracles, "qxt_poly", lambda g: OperatorPoly.diagonal(
        [TPoly((d - 1, -1)) for d in g.degrees]))
    for report in _both_series_inverse_reports(CORPUS[name], 10):
        assert not report.passed
        assert report.first_failure == {"display": "plain", "u_power": 2}


@pytest.mark.parametrize("name", ["petersen", "path(4)", "tree_ball(3,3)"])
def test_series_inverse_check_rejects_a_narrowed_root_width(name, monkeypatch):
    # the mutant packs a pass's roots R - W apart, one t-digit closer than
    # the R at which the check places its unit and every reader decodes: the
    # check fails from u^0 on, at the group's second root, and the pass's
    # digits no longer equal the one-root rows
    import bzk.operators

    source = textwrap.dedent(inspect.getsource(bzk.operators._walk_rows))
    spacing = "shift = _digit_width(width, order)\n"
    assert source.count(spacing) == 1
    built = {}
    exec(source.replace(spacing, "shift = _digit_width(width, order) - width\n"),
         vars(bzk.operators), built)
    g = CORPUS[name]
    roots = (0, *g.neighbors(0))
    assert _pass_matches_one_root_rows(g, roots, 10)
    monkeypatch.setattr(bzk.operators, "_walk_rows", built["_walk_rows"])
    assert not _pass_matches_one_root_rows(g, roots, 10)
    for report in _both_series_inverse_reports(g, 10):
        assert not report.passed
        assert report.first_failure == {"display": "plain", "u_power": 0}


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
    # code that the log route reads through zeta.cbc_entries; the reference
    # reads its TPoly twin, shifted alike
    import bzk.operators

    import _oracles

    exact = bzk.operators.cbc_terms
    exact_reference = _oracles.tpoly_cbc_terms

    def shifted(c, deg, width, r=None):
        out = exact(c, deg, width, r)
        # t^9 packed, or its l1 norm 1 in the run on norms that sizes the width
        out[5] += 1 if width is None else 1 << (9 * width)
        return out

    def shifted_reference(c, deg, r=None):
        out = exact_reference(c, deg, r)
        out[5] = out[5] + TPoly((0,) * 9 + (1,))
        return out

    monkeypatch.setattr(bzk.operators, "cbc_terms", shifted)
    monkeypatch.setattr(_oracles, "tpoly_cbc_terms", shifted_reference)
    rep = check_cyclic_bump_identity(CORPUS["K4"], 0, 8)
    assert rep.first_failure == {"display": "per-length", "u_power": 5, "difference": "-t^9"}
    assert rep == _oracles.useries_cyclic_bump_check(CORPUS["K4"], 0, 8)


# each per-root check with its USeries reference from tests/_oracles.py
_PER_ROOT_CHECKS = [(check_no_tail_identity, useries_no_tail_check),
                    (check_cyclic_bump_identity, useries_cyclic_bump_check),
                    (check_r_generating_identity, useries_r_generating_check)]


def _agreement_graphs():
    graphs = [(name, g) for name, g in CORPUS.items()]
    graphs.append(("star(6)", generate("star", 6)))
    rng = random.Random(2323)
    graphs += [(f"random {k}", random_connected_graph(rng, rng.randint(2, 10)))
               for k in range(15)]
    return graphs


_AGREEMENT_GRAPHS = _agreement_graphs()


@pytest.mark.parametrize("order", [4, 5, 8, 12])
@pytest.mark.parametrize("name, g", _AGREEMENT_GRAPHS, ids=[n for n, _ in _AGREEMENT_GRAPHS])
def test_packed_checks_match_useries_references(name, g, order):
    # the packed displays against USeries products of TPoly coefficients, at
    # every root, failing reports and their decoded differences included
    failing = 0
    for x0 in range(g.vertex_count):
        for check, reference in _PER_ROOT_CHECKS:
            report = check(g, x0, order)
            assert report == reference(g, x0, order), (x0, check.__name__)
            failing += not report.passed
    if name in NON_TRANSITIVE and order >= 8:
        assert failing > 0


def test_packed_checks_match_references_under_the_operator_reading(monkeypatch):
    # the rejected reading of the defect term, read by both sides
    import bzk.operators

    monkeypatch.setattr(bzk.operators, "_rooted_walk", operator_reading_table)
    for name in ("path(4)", "star(4)", "petersen"):
        g = CORPUS[name]
        for x0 in range(g.vertex_count):
            for check, reference in _PER_ROOT_CHECKS:
                assert check(g, x0, 10) == reference(g, x0, 10), (name, x0, check.__name__)


@pytest.mark.parametrize("which, failing", [(0, check_cyclic_bump_identity),
                                            (1, check_no_tail_identity)],
                         ids=["cbc_all", "no_tail"])
def test_tally_checks_reject_a_wrong_tally(monkeypatch, which, failing):
    # t added to one tally of _closed_tallies at m = 7 shows at u^7 in the
    # check that reads it, alike in the packed check and in its reference
    import bzk.operators

    tallies = bzk.operators._closed_tallies

    def shifted(g, x0, order):
        out = [list(tally) for tally in tallies(g, x0, order)]
        out[which][7] = out[which][7] + TPoly((0, 1))
        return tuple(map(tuple, out))

    monkeypatch.setattr(bzk.operators, "_closed_tallies", shifted)
    g = CORPUS["petersen"]
    for check, reference in _PER_ROOT_CHECKS[:2]:
        report = check(g, 0, 10)
        assert report == reference(g, 0, 10)
        if check is failing:
            assert report.first_failure == {"display": "series", "u_power": 7,
                                            "difference": "t"}
        else:
            assert report.passed


def test_adjacency_poly_matches_operators():
    g = CORPUS["petersen"]
    a, _, _ = graph_operators(g)
    ap = adjacency_poly(g)
    for i in range(10):
        for j in range(10):
            assert ap.entry(i, j) == TPoly((a[i][j],))
