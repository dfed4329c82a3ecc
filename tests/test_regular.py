"""The regular-graph branch of the walk records, the off-diagonal entries and
the formula route's f-powers, which take the t-algebra once, on integer
adjacency counts, must equal the general recursions (operators._walk_rows and
zeta._f_step) exactly; three mutants of the branch must each fail.
"""

import copy
import inspect
import random
import textwrap

import pytest

import bzk.operators
import bzk.zeta
from bzk.graphs import Disconnected, build_graph
from bzk.operators import _adjacency_rows, _count_width, _rooted_walk
from bzk.series import _digit
from bzk.zeta import _f_power_table, cbc_entries
from conftest import CORPUS, FRUCHT, REGULAR, random_circulants


def _general(g):
    """A copy of g that says it is not regular, so that every reader takes
    the general recursions: the walk rows and the stepped f-powers, with
    commutator rows."""
    h = copy.copy(g)
    h._regular_degree = None
    return h


def _switched(g, rng):
    """A connected graph of the degrees of g from random double-edge switches
    of it (ab, cd -> ad, cb), which in general gives roots with different
    walk counts; None if the switches disconnect it."""
    pairs = set(g.undirected_pairs())
    for _ in range(4 * len(pairs)):
        (a, b), (c, d) = rng.sample(sorted(pairs), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & pairs:
            pairs = (pairs - {(a, b), (c, d)}) | new
    try:
        return build_graph(g.vertex_count, sorted(pairs), label=f"switched {g.label}")
    except Disconnected:
        return None


# (graph, roots): one root of each vertex-transitive graph, every root of the
# others, since a root orbit of theirs may be a single vertex
CASES = [(CORPUS[name], (0,)) for name in REGULAR]
CASES += [(g, (0,)) for g in random_circulants(2828, 4)]
_rng = random.Random(2828)
CASES += [(h, tuple(range(h.vertex_count)))
          for h in (_switched(g, _rng) for g in random_circulants(2929, 6)) if h is not None]
CASES.append((FRUCHT, tuple(range(FRUCHT.vertex_count))))


def _branch_equals_general(g, roots, orders):
    """Whether, at every root and order, the root walk, the entries to the
    next vertex and the f-power entries at the root and at the next vertex
    are equal (==) on g and on _general(g), with the caches emptied first,
    and whether the general pass finds no commutator digits on g."""
    h = _general(g)
    n = g.vertex_count
    _rooted_walk.cache_clear()
    _f_power_table.cache_clear()
    for order in orders:
        for x0 in roots:
            if _rooted_walk(g, x0, order) != _rooted_walk(h, x0, order):
                return False
            if cbc_entries(g, x0, (x0 + 1) % n, order) != cbc_entries(h, x0, (x0 + 1) % n, order):
                return False
            for x in (x0, (x0 + 1) % n):
                powers, integrand = _f_power_table(g, x0, x, order)
                general, commutator = _f_power_table(h, x0, x, order)
                if integrand or any(commutator) or powers != general:
                    return False
    return True


@pytest.mark.parametrize("g,roots", CASES, ids=[g.label for g, _ in CASES])
def test_regular_branch_equals_general_recursions(g, roots):
    # orders 1-16 at every listed root, and the order cap at the first
    assert g.regular_degree() is not None
    assert _branch_equals_general(g, roots, range(1, 17))
    assert _branch_equals_general(g, roots[:1], (64,))


def test_switched_graphs_have_a_defect():
    # the switched graphs are not all vertex-transitive: some root has a
    # nonzero Laplacian defect, so the defect counts of the branch are tested
    assert any(not p.is_zero() for g, roots in CASES for x0 in roots
               for p in _rooted_walk(g, x0, 8).delta)


def test_adjacency_pass_digits_are_the_one_root_counts():
    # root digit r of a pass over a root and its neighbours is the count
    # A^i(roots[r], x) of the one-root pass, at the derived width
    for g, roots in CASES:
        for order in (1, 2, 7, 16):
            shift = _count_width(g.regular_degree(), order)
            for x0 in roots[:2]:
                tup = (x0, *g.neighbors(x0))
                rows = list(_adjacency_rows(g, tup, order))
                for r, y in enumerate(tup):
                    own = list(_adjacency_rows(g, (y,), order))
                    assert [[_digit(v, r, shift) for v in row] for row in rows] == own


def _rewritten(monkeypatch, name, old, new):
    """Replace operators.<name> (and zeta's binding of it, if any) by its
    source with old replaced by new, run in the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(bzk.operators, name)))
    assert source.count(old) == 1
    built = {}
    exec(source.replace(old, new), vars(bzk.operators), built)
    for module in (bzk.operators, bzk.zeta):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, built[name])


MUTANTS = {
    # C(k, p - 1) in place of C(k, p), with k = m - p: C(m - p, p - 1)
    "binomial p - 1": lambda mp: _rewritten(mp, "_f_digits", "math.comb(k, p)",
                                            "(math.comb(k, p - 1) if p else 0)"),
    # C_m = S_m - (1-t) S_(m-2) in place of (1-t)^2
    "fold by 1 - t": lambda mp: _rewritten(mp, "_regular_walk", "_pack((1, -2, 1), width)",
                                           "_pack((1, -1), width)"),
    # adjacency digits one bit narrower than the derived width
    "digit one bit narrower": lambda mp: mp.setattr(
        bzk.operators, "_count_width",
        (lambda real: lambda degree, order: real(degree, order) - 1)(_count_width)),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_regular_branch_mutants_fail(monkeypatch, mutant):
    cases = [(CORPUS[name], (0,)) for name in REGULAR]
    orders = (*range(1, 17), 64)
    assert all(_branch_equals_general(g, roots, orders) for g, roots in cases)
    MUTANTS[mutant](monkeypatch)
    try:
        assert not all(_branch_equals_general(g, roots, orders) for g, roots in cases)
    finally:
        monkeypatch.undo()
        _rooted_walk.cache_clear()
        _f_power_table.cache_clear()
