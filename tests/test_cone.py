"""Light-cone passes: a walk pass given targets steps only the entries that
its roots reach and that can still reach a target (operators._cone), and its
entries at the targets must equal those of the pass over every vertex, on
and off the diagonal; so must the formula route's f-power and commutator
entries.  A horizon one step short must fail.
"""

import inspect
import random
import textwrap

import pytest

import bzk.operators
import bzk.zeta
from bzk.graphs import build_graph, generate
from conftest import CORPUS, random_connected_graph

TREE = generate("tree_ball", 3, 9)


def _sparse_graph(rng, n):
    """A random spanning tree on n vertices plus up to three extra edges:
    large diameter, so that a cone leaves most vertices out."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(3):
        a, b = sorted(rng.sample(range(n), 2))
        pairs.add((a, b))
    return build_graph(n, sorted(pairs), label=f"sparse({n})")


def _graphs():
    rng = random.Random(2929)
    graphs = list(CORPUS.values())
    graphs += [random_connected_graph(rng, rng.randint(2, 10)) for _ in range(6)]
    graphs += [_sparse_graph(rng, rng.randint(12, 30)) for _ in range(6)]
    return graphs


def _pairs(g):
    """(x0, x) on the diagonal at the first and last vertex, and off it
    between them and to the next vertex."""
    last = g.vertex_count - 1
    pairs = [(0, 0), (last, last), (0, last), (last, 0)]
    return sorted({p for p in pairs + [(0, 1 % g.vertex_count)]})


def _uncone(nbrs, roots, targets, order):
    """operators._cone with no targets: every vertex at every step."""
    return [None] * (order + 1)


def _coned_equals_full(g, pairs, orders):
    """Whether, at every pair (x0, x) and order, the target entries of each
    coned pass equal those of the full pass, and the f table of the pair
    equals the one stepped on every vertex.  On the diagonal a pass runs
    over x0 and its neighbours with them as targets, as a root walk does;
    off it over x0 with target x.  Everything is read through the modules,
    so that a test may replace _cone."""
    passes = [bzk.operators._walk_rows]
    if g.regular_degree() is not None:
        passes.append(bzk.operators._adjacency_rows)
    cone = bzk.zeta._cone
    for order in orders:
        for x0, x in pairs:
            roots = (x0, *g.neighbors(x0)) if x == x0 else (x0,)
            targets = roots if x == x0 else (x,)
            for rows in passes:
                for coned, full in zip(rows(g, roots, order, targets), rows(g, roots, order)):
                    if [coned[y] for y in targets] != [full[y] for y in targets]:
                        return False
            bzk.zeta._f_power_table.cache_clear()
            table = bzk.zeta._f_power_table(g, x0, x, order)
            bzk.zeta._f_power_table.cache_clear()
            bzk.zeta._cone = _uncone
            try:
                full_table = bzk.zeta._f_power_table(g, x0, x, order)
            finally:
                bzk.zeta._cone = cone
                bzk.zeta._f_power_table.cache_clear()
            if table != full_table:
                return False
    return True


@pytest.mark.parametrize("g", _graphs(), ids=lambda g: g.label)
def test_coned_passes_equal_full_passes(g):
    assert _coned_equals_full(g, _pairs(g), range(1, 17))


def test_coned_passes_equal_full_passes_on_a_large_tree():
    # the centre, a leaf, the pair between them and a vertex's neighbour
    assert _coned_equals_full(TREE, [(0, 0), (1533, 1533), (0, 1533), (1, 4)], range(1, 17))


def test_coned_route_outputs_equal_full_ones(monkeypatch):
    # the records and entries that the routes read, through both modules'
    # bindings of _cone, at the order cap too
    pairs = [(g, x0, x) for g in (CORPUS["tree_ball(3,3)"], CORPUS["path(4)"], CORPUS["petersen"])
             for x0, x in _pairs(g)]

    def outputs():
        bzk.operators._rooted_walk.cache_clear()
        bzk.zeta._f_power_table.cache_clear()
        return [(bzk.zeta.cbc_entries(g, x0, x, order),
                 bzk.zeta.zeta_formula_series(g, x0, x, order))
                for order in (16, 64) for g, x0, x in pairs]

    coned = outputs()
    for module in (bzk.operators, bzk.zeta):
        monkeypatch.setattr(module, "_cone", _uncone)
    assert outputs() == coned
    monkeypatch.undo()
    bzk.operators._rooted_walk.cache_clear()
    bzk.zeta._f_power_table.cache_clear()


def test_root_walk_steps_its_cone_only(monkeypatch):
    # the root walk of tree_ball(3,9)'s centre at order 16 computes 17.5% of
    # the n (order + 1) entries of a full pass, and leaves every entry
    # outside its cone zero
    n, order = TREE.vertex_count, 16
    stepped = []
    placed = bzk.operators._placed

    def counting(live, n, values):
        stepped.append(len(values))
        row = placed(live, n, values)
        if live is not None:
            outside = set(range(n)) - set(live)
            assert not any(row[y] for y in outside)
        return row

    monkeypatch.setattr(bzk.operators, "_placed", counting)
    bzk.operators._rooted_walk.cache_clear()
    try:
        bzk.operators._rooted_walk(TREE, 0, order)
    finally:
        bzk.operators._rooted_walk.cache_clear()
    assert len(stepped) == order
    assert sum(stepped) <= 0.175 * n * (order + 1)


def _horizon_one_short(monkeypatch):
    """operators._cone with the horizon order - m - 1 in place of
    order - m, in both modules."""
    source = textwrap.dedent(inspect.getsource(bzk.operators._cone))
    old = "last = [order - d for d"
    assert source.count(old) == 1
    built = {}
    exec(source.replace(old, "last = [order - d - 1 for d"), vars(bzk.operators), built)
    for module in (bzk.operators, bzk.zeta):
        monkeypatch.setattr(module, "_cone", built["_cone"])


def test_cone_horizon_one_short_fails(monkeypatch):
    graphs = [CORPUS[name] for name in ("tree_ball(3,3)", "petersen", "path(4)")]
    assert all(_coned_equals_full(g, _pairs(g), range(1, 9)) for g in graphs)
    _horizon_one_short(monkeypatch)
    for g in graphs:
        assert not _coned_equals_full(g, _pairs(g), range(1, 9))
