"""Path oracle tests: bump bookkeeping, enumeration, primitivity."""

from fractions import Fraction

import pytest

from bzk.paths import primitive_rooted_closed_paths, rooted_closed_tallies
from bzk.series import TPoly
from conftest import CORPUS

from _oracles import int_matrix_power, poly_eval_fraction
from _paths import (NotClosed, bump_count, closed_geodesic_counts,
                    cm_bruteforce, cyclic_bump_count,
                    enumerate_closed_weighted, has_tail,
                    non_backtracking_matrices)


def edge_from(g, a, b):
    for eid in g.out_edges[a]:
        if g.edges[eid].terminus == b:
            return eid
    raise AssertionError(f"no edge {a}->{b}")


def test_bump_count_examples():
    g = CORPUS["triangle"]
    e = edge_from(g, 0, 1)
    eb = g.twin(e)
    assert bump_count(g, (e, eb)) == 1
    loop = (edge_from(g, 0, 1), edge_from(g, 1, 2), edge_from(g, 2, 0))
    assert bump_count(g, loop) == 0
    assert bump_count(g, (e, eb, e, eb)) == 3


def test_cyclic_bump_count_examples():
    g = CORPUS["triangle"]
    e = edge_from(g, 0, 1)
    eb = g.twin(e)
    assert cyclic_bump_count(g, (e, eb)) == 2
    loop = (edge_from(g, 0, 1), edge_from(g, 1, 2), edge_from(g, 2, 0))
    assert cyclic_bump_count(g, loop) == 0
    # (e, f, fbar, ebar) with f != ebar: bumps at the middle pair and at the
    # wrap position only, so the cyclic count is 2 (= bc 1 plus the tail)
    f = edge_from(g, 1, 2)
    walk = (e, f, g.twin(f), eb)
    assert bump_count(g, walk) == 1
    assert has_tail(g, walk)
    assert cyclic_bump_count(g, walk) == 2
    with pytest.raises(NotClosed):
        cyclic_bump_count(g, (e, f))
    assert cyclic_bump_count(g, ()) == 0


def test_enumerate_closed_examples():
    g = CORPUS["triangle"]
    assert enumerate_closed_weighted(g, 0, 2, "cbc") == TPoly((0, 0, 2))
    assert enumerate_closed_weighted(g, 0, 2, "bc") == TPoly((0, 2))
    k4 = CORPUS["K4"]
    assert enumerate_closed_weighted(k4, 0, 3, "cbc", no_tail=True) == TPoly((6,))
    assert enumerate_closed_weighted(g, 0, 0) == TPoly((1,))


def test_enumerate_edge_filters():
    g = CORPUS["triangle"]
    e = edge_from(g, 0, 1)
    total = sum(
        (enumerate_closed_weighted(g, 0, 4, "bc", first_edge=eid) for eid in g.out_edges[0]),
        TPoly(),
    )
    assert total == enumerate_closed_weighted(g, 0, 4, "bc")
    pinned = enumerate_closed_weighted(g, 0, 4, "bc", first_edge=e, last_edge=g.twin(e))
    # closed walks 0->..->0 with first e and last ebar of length 4
    assert pinned == TPoly((0, 1, 0, 1))


def test_cm_bruteforce_is_adjacency_at_length_one():
    from bzk.operators import adjacency_poly

    for g in CORPUS.values():
        assert cm_bruteforce(g, 1) == adjacency_poly(g)


def test_cm_bruteforce_triangle_diagonal():
    g = CORPUS["triangle"]
    c2 = cm_bruteforce(g, 2)
    for x in range(3):
        assert c2.entry(x, x) == TPoly((0, 2))


def test_cm_bruteforce_at_t_one_counts_all_walks():
    from bzk.graphs import operators as graph_operators

    for name in ("triangle", "cycle(4)", "K4", "path(4)", "star(4)", "Q3"):
        g = CORPUS[name]
        a, _, _ = graph_operators(g)
        for m in range(7):
            walks = int_matrix_power(a, m)
            c = cm_bruteforce(g, m)
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    assert poly_eval_fraction(c.entry(i, j), Fraction(1)) == walks[i][j]


def test_cm_bruteforce_symmetric():
    for name in ("triangle", "cycle(4)", "path(4)", "star(4)", "K4"):
        g = CORPUS[name]
        for m in range(8):
            c = cm_bruteforce(g, m)
            assert c.is_symmetric()


def test_cbc_equals_bc_plus_tail_by_enumeration():
    for name in ("triangle", "cycle(4)", "path(4)", "star(4)"):
        g = CORPUS[name]
        out = g.out_edges
        heads = g._heads

        def walks(v, depth, prefix, acc):
            if depth == 0:
                acc.append(tuple(prefix))
                return
            for e in out[v]:
                prefix.append(e)
                walks(heads[e], depth - 1, prefix, acc)
                prefix.pop()

        for m in (2, 3, 5, 8):
            acc = []
            walks(0, m, [], acc)
            for w in acc:
                if heads[w[-1]] != 0:
                    continue
                expect = bump_count(g, w) + (1 if has_tail(g, w) else 0)
                assert cyclic_bump_count(g, w) == expect


def test_tallies_match_per_call_enumeration():
    for name, root in [("triangle", 0), ("path(4)", 0), ("path(4)", 2),
                       ("star(4)", 0), ("star(4)", 3), ("petersen", 0)]:
        g = CORPUS[name]
        cbc_all, bc_all, notail = rooted_closed_tallies(g, root, 6)
        for m in range(1, 7):
            assert cbc_all[m] == enumerate_closed_weighted(g, root, m, "cbc")
            assert bc_all[m] == enumerate_closed_weighted(g, root, m, "bc")
            assert notail[m] == enumerate_closed_weighted(g, root, m, "cbc", no_tail=True)


def test_primitive_triangle():
    g = CORPUS["triangle"]
    prims = primitive_rooted_closed_paths(g, 0, 6)
    by_len = {}
    for edges, length, cbc in prims:
        by_len.setdefault(length, []).append((edges, cbc))
    # two orientations of the triangle and two bump pairs survive
    assert len(by_len[2]) == 2 and all(c == 2 for _, c in by_len[2])
    assert len(by_len[3]) == 2 and all(c == 0 for _, c in by_len[3])
    # doubled loops are not primitive
    for edges, length, _ in prims:
        assert not (length == 6 and edges[:3] == edges[3:])


def test_primitive_rejects_repetitions():
    g = CORPUS["cycle(4)"]
    prims = {edges for edges, _, _ in primitive_rooted_closed_paths(g, 0, 4)}
    e = edge_from(g, 0, 1)
    assert (e, g.twin(e), e, g.twin(e)) not in prims
    assert (e, g.twin(e)) in prims


def test_primitive_cycle4_census():
    # period-free closed walks at one root: two bump pairs at length 2; at
    # length 4 the two full loops, two mixed bump pairs, and two
    # depth-2 out-and-back walks
    g = CORPUS["cycle(4)"]
    prims = primitive_rooted_closed_paths(g, 0, 4)
    lengths = sorted(length for _, length, _ in prims)
    assert lengths == [2, 2, 4, 4, 4, 4, 4, 4]
    loops = [edges for edges, length, cbc in prims if length == 4 and cbc == 0]
    assert len(loops) == 2


def test_powers_of_primitives_scale_cbc():
    for name in ("triangle", "cycle(4)", "K4"):
        g = CORPUS[name]
        for edges, length, cbc in primitive_rooted_closed_paths(g, 0, 4):
            for k in (2, 3):
                assert cyclic_bump_count(g, edges * k) == k * cbc


def test_t_zero_column_is_non_backtracking():
    for name in ("triangle", "cycle(4)", "path(4)", "K4"):
        g = CORPUS[name]
        nb = non_backtracking_matrices(g, 8)
        for m in range(9):
            c = cm_bruteforce(g, m)
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    assert c.entry(i, j).coefficient(0) == nb[m][i][j]


def test_geodesic_counts_cycle4():
    g = CORPUS["cycle(4)"]
    counts = closed_geodesic_counts(g, 0, 8)
    assert counts == [0, 0, 0, 0, 2, 0, 0, 0, 2]


def test_enumeration_cap_guard():
    from bzk.paths import EnumerationTooDeep

    g = CORPUS["triangle"]
    with pytest.raises(EnumerationTooDeep):
        enumerate_closed_weighted(g, 0, 13)
    with pytest.raises(EnumerationTooDeep):
        cm_bruteforce(g, 14)
    assert enumerate_closed_weighted(g, 0, 12) is not None


def test_geodesic_counts_match_cbc_zero_tally():
    for name in ("triangle", "K4", "petersen", "path(4)"):
        g = CORPUS[name]
        counts = closed_geodesic_counts(g, 0, 8)
        cbc_all, _, _ = rooted_closed_tallies(g, 0, 8)
        for m in range(1, 9):
            assert counts[m] == cbc_all[m].coefficient(0)
