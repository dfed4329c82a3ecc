"""The root's walk record, operators.RootedWalk, runs R_m and the rooted
cyclic-bump entries packed at the pass width: they must equal the runs
sized by their own l1 majorants (operators._decoded) and the TPoly
references of tests/_oracles.py.  The log route, on the diagonal and off
it, must decode its packed entries once, with no majorant run and no TPoly
before the exp recurrence, and the formula route on a regular graph must
step no f-power and run no majorant.
"""

import random

import pytest

import bzk.operators
import bzk.series
import bzk.zeta
from bzk.operators import _decoded, _r_recursion, _rooted_walk, cbc_terms
from bzk.series import TPoly
from bzk.zeta import _packed_entries, cbc_entries, zeta_formula_series, zeta_log_series
from conftest import CORPUS, FRUCHT, random_connected_graph
from test_regular import CASES as REGULAR_CASES

from _oracles import tpoly_cbc_terms, tpoly_r_double_sum


def _record_graphs():
    """(graph, roots): every root of the corpus, of eight seeded random
    graphs, of the switched regular graphs and of Frucht's graph (see
    tests/test_regular.py), and the first root of the regular cases with a
    single one."""
    rng = random.Random(3030)
    cases = [(g, tuple(range(g.vertex_count))) for g in CORPUS.values()]
    cases += [(g, tuple(range(g.vertex_count)))
              for g in (random_connected_graph(rng, rng.randint(2, 10)) for _ in range(8))]
    cases += [(g, roots) for g, roots in REGULAR_CASES if g.label not in
              {h.label for h in CORPUS.values()}]
    return cases


CASES = _record_graphs()


def _record_matches(g, x0, order, reference):
    """Whether the record's R_m and rooted cyclic-bump entries at x0 equal
    the runs of operators._decoded on its decoded defect and diagonal and,
    given reference, the TPoly double sum and cyclic-bump references."""
    walk = _rooted_walk(g, x0, order)
    deg = g.degrees[x0]
    r = _decoded(lambda width, delta: _r_recursion(delta, order, width), walk.delta)
    entries = _decoded(lambda width, c, r: cbc_terms(c, deg, width, r), walk.diag, walk.r)
    if list(walk.r) != r or cbc_entries(g, x0, x0, order) != entries:
        return False
    if reference:
        r_ref = tpoly_r_double_sum(walk.delta, order)
        return r == r_ref and entries == tpoly_cbc_terms(walk.diag, deg, r_ref)
    return True


@pytest.mark.parametrize("g,roots", CASES, ids=[g.label for g, _ in CASES])
def test_record_equals_majorant_runs_and_references(g, roots):
    # orders 1-16 at every root, and the order cap at the first, where the
    # TPoly references are slow
    _rooted_walk.cache_clear()
    for order in range(1, 17):
        for x0 in roots:
            assert _record_matches(g, x0, order, True), (x0, order)
    assert _record_matches(g, roots[0], 64, True)
    _rooted_walk.cache_clear()


def test_switched_and_frucht_records_have_a_defect():
    # the regular cases here are not all vertex-transitive, so R_m is not
    # zero everywhere and its packed run is tested
    assert any(any(_rooted_walk(g, x0, 16).packed_r) for g, roots in CASES
               if g.regular_degree() is not None and g.label not in
               {h.label for h in CORPUS.values()} for x0 in roots)
    assert any(_rooted_walk(FRUCHT, 0, 16).packed_r)


def test_record_decodes_once_and_only_on_read(monkeypatch):
    # a fresh record decodes nothing; each series is decoded on its first
    # read and kept
    g = CORPUS["tree_ball(3,3)"]
    unpacked = []
    unpack = bzk.operators._unpack

    def counting(v, width):
        unpacked.append(v)
        return unpack(v, width)

    monkeypatch.setattr(bzk.operators, "_unpack", counting)
    _rooted_walk.cache_clear()
    walk = _rooted_walk(g, 0, 12)
    assert unpacked == []
    r = walk.r
    assert len(unpacked) == 13
    assert walk.r is r and _rooted_walk(g, 0, 12).r is r and len(unpacked) == 13
    _rooted_walk.cache_clear()


def _spied(monkeypatch, names):
    """Replace each bzk.zeta and bzk.operators binding of names by one that
    records its calls in the returned list."""
    calls = []
    for name in names:
        for module in (bzk.zeta, bzk.operators):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, (lambda real, name: lambda *args, **kw: (
                    calls.append(name), real(*args, **kw))[1])(real, name))
    return calls


def _decodes_once(monkeypatch, g, x0, x):
    """Whether the log route from x0 to x at orders 16 and 64, from cleared
    caches, runs no _decoded and builds no TPoly before the exp recurrence,
    and hands it raw int lists that are the entries of cbc_entries."""
    calls = _spied(monkeypatch, ["_decoded", "_unpack"])
    built = []
    init = TPoly.__init__

    def counting_init(self, coeffs=()):
        built.append(coeffs)
        init(self, coeffs)

    reached = []
    exp_from_scaled = bzk.zeta._exp_from_scaled

    def recording_exp(order, scaled, scale):
        reached.append((len(built), scaled))
        return exp_from_scaled(order, scaled, scale)

    monkeypatch.setattr(TPoly, "__init__", counting_init)
    monkeypatch.setattr(bzk.zeta, "_exp_from_scaled", recording_exp)
    once = True
    for order in (16, 64):
        _rooted_walk.cache_clear()
        built.clear()
        zeta_log_series(g, x0, x, order)
        (tpolys, scaled), = reached
        reached.clear()
        once = once and calls == [] and tpolys == 0
        once = once and all(type(p) is list for p in scaled[1:])
    monkeypatch.undo()
    _rooted_walk.cache_clear()
    return once and [TPoly(p) for p in scaled] == [TPoly(())] + cbc_entries(g, x0, x, 64)[1:]


@pytest.mark.parametrize("name", ["petersen", "tree_ball(3,3)", "star(4)", "frucht"])
def test_diagonal_log_route_decodes_once(monkeypatch, name):
    # from a cleared cache: no _decoded run, and no TPoly built before the
    # exp recurrence, which receives the entries decoded from the packed
    # record as raw int lists
    g = FRUCHT if name == "frucht" else CORPUS[name]
    assert _decodes_once(monkeypatch, g, 0, 0)
    assert _packed_entries(g, 0, 0, 64)[0] == bzk.series._packed_width(g.max_degree, 64)


@pytest.mark.parametrize("name,x0,x", [("petersen", 0, 3), ("frucht", 0, 5),
                                       ("tree_ball(3,3)", 5, 17), ("star(4)", 1, 2)])
def test_off_diagonal_log_route_decodes_once(monkeypatch, name, x0, x):
    # off the diagonal too, on a regular graph and on one that is not: the
    # entries run packed at the pass width from the walk rows or the
    # adjacency counts, and are decoded once, straight into the exp's lists
    g = FRUCHT if name == "frucht" else CORPUS[name]
    assert _decodes_once(monkeypatch, g, x0, x)
    assert _packed_entries(g, x0, x, 64)[0] == bzk.series._packed_width(g.max_degree, 64)


@pytest.mark.parametrize("name", ["petersen", "Q3", "frucht"])
def test_regular_formula_route_steps_no_f_power(monkeypatch, name):
    # on a regular graph, on the diagonal and off it, no f-power row is
    # stepped and no majorant runs: the exponent is summed at _formula_width
    g = FRUCHT if name == "frucht" else CORPUS[name]
    table = bzk.zeta._f_power_table
    calls = _spied(monkeypatch, ["_f_step", "_f_power_table", "_decoded"])
    for order in (16, 64):
        _rooted_walk.cache_clear()
        table.cache_clear()
        for x in (0, 1, g.vertex_count - 1):
            zeta_formula_series(g, 0, x, order)
    assert calls == []
    # a graph that is not regular still steps them
    table.cache_clear()
    zeta_formula_series(CORPUS["star(4)"], 0, 0, 8)
    assert "_f_step" in calls and "_f_power_table" in calls and "_decoded" not in calls
    monkeypatch.undo()
    _rooted_walk.cache_clear()
    table.cache_clear()
