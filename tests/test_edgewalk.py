"""Edge-transfer closed-walk tallies against the DFS enumeration oracle."""

import ast
import random
from pathlib import Path

import pytest

import bzk.edgewalk
from bzk.edgewalk import edge_closed_tallies
from bzk.graphs import build_graph
from bzk.paths import rooted_closed_tallies
from bzk.series import TPoly
from conftest import CORPUS, random_connected_graph


@pytest.mark.parametrize("name", list(CORPUS))
def test_edge_tally_matches_dfs_on_corpus(name):
    g = CORPUS[name]
    for x0 in range(min(3, g.vertex_count)):
        cbc_all, _, no_tail = rooted_closed_tallies(g, x0, 10)
        for order in range(11):
            assert edge_closed_tallies(g, x0, order) == (cbc_all[:order + 1],
                                                         no_tail[:order + 1])


def test_edge_tally_matches_dfs_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(24):
        g = random_connected_graph(rng, rng.randint(2, 8))
        x0 = rng.randrange(g.vertex_count)
        cbc_all, _, no_tail = rooted_closed_tallies(g, x0, 8)
        assert edge_closed_tallies(g, x0, 8) == (cbc_all, no_tail)


def test_edge_tally_small_cases():
    # path(2): the only closed walks go back and forth, each step a bump,
    # and every one has a tail, so the cyclic count is the length
    g = build_graph(2, [(0, 1)])
    cbc_all, no_tail = edge_closed_tallies(g, 0, 6)
    assert cbc_all == [TPoly(), TPoly(), TPoly((0, 0, 1)), TPoly(),
                       TPoly((0, 0, 0, 0, 1)), TPoly(), TPoly((0,) * 6 + (1,))]
    assert all(p.is_zero() for p in no_tail)
    assert edge_closed_tallies(g, 0, 0) == ([TPoly()], [TPoly()])
    with pytest.raises(ValueError):
        edge_closed_tallies(g, 0, -1)


def test_edgewalk_imports_only_graphs_and_series():
    # the tally is an independent reference for the operator side
    tree = ast.parse(Path(bzk.edgewalk.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert imported <= {"graphs", "series"}
