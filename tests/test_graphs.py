"""Graph construction, families, operators, balls, and file formats."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import (ball, bfs_girth, canonical_rooted_tree, distances_from,
                      quadratic_form)
from bzk.graphs import (MAX_EDGES, Disconnected, DuplicateEdge, EmptyGraph,
                        InvalidParameter, LoopEdge, build_graph, generate,
                        graph_to_json_dict, load_graph, operators,
                        parse_edge_list, parse_graph_json)
from bzk.zeta import charpoly_exact
from conftest import CORPUS


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.vertex_count == 3
    assert g.degrees == (2, 2, 2)
    assert len(g.edges) == 6


def test_build_k4():
    g = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert g.degrees == (3, 3, 3, 3)


def test_build_errors():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(LoopEdge):
        build_graph(2, [(0, 0)])
    with pytest.raises(Disconnected):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(EmptyGraph):
        build_graph(0, [])
    with pytest.raises(InvalidParameter):
        build_graph(2, [(0, 5)])


@pytest.mark.parametrize("parse,text", [
    (parse_edge_list, "0 2000000"),
    (parse_graph_json, '{"vertices": 2000000, "edges": [[0, 1]]}'),
])
def test_vertex_count_past_edges_rejected_before_allocation(parse, text):
    # a connected graph has at most |E| + 1 vertices, so a larger count is
    # refused before any per-vertex list is built
    tracemalloc.start()
    try:
        with pytest.raises(Disconnected):
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_twin_involution_axioms():
    for g in CORPUS.values():
        for e in g.edges:
            twin = g.edges[e.twin]
            assert twin.twin == e.id
            assert e.twin != e.id
            assert e.origin == twin.terminus and e.terminus == twin.origin
            assert e.origin != e.terminus


def test_generate_cycle4():
    g = generate("cycle", 4)
    assert g.vertex_count == 4
    assert len(g.edges) == 8
    assert g.regular_degree() == 2


def test_generate_petersen():
    g = generate("petersen")
    assert g.vertex_count == 10
    assert g.regular_degree() == 3
    assert bfs_girth(g) == 5


def test_generate_tree_ball_counts():
    g = generate("tree_ball", 3, 2)
    assert g.vertex_count == 1 + 3 + 6
    assert g.degrees[0] == 3
    g = generate("tree_ball", 3, 3)
    assert g.vertex_count == 22


# Generates each case in a fresh interpreter whose address space is capped at
# 1 GB, so a family built without its edge cap fails with MemoryError or the
# timeout instead of taking the machine's memory.  Then runs `bzk graphs` on
# two of them.
_FAMILY_CAP_PROBE = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from bzk.cli import main
from bzk.graphs import InvalidParameter, generate

outcomes = []
for family, *params in json.loads(sys.argv[1]):
    try:
        outcomes.append(len(generate(family, *params).edges) // 2)
    except (InvalidParameter, MemoryError) as exc:
        outcomes.append(f"{type(exc).__name__}: {exc}")
for argv in (["graphs", "--family", "complete", "--n", "100000"],
             ["graphs", "--family", "hypercube", "--d", "40"]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        outcomes.append([main(argv), err.getvalue()])
print(json.dumps(outcomes))
"""


def test_generated_families_past_the_edge_cap_are_refused():
    # the cases sit just past, and far past, a cap of 100,000 edges
    assert MAX_EDGES == 100_000
    past = [["cycle", 100_001], ["cycle", 10**9], ["complete", 448],
            ["complete", 100_000], ["hypercube", 15], ["hypercube", 40],
            ["path", 100_002], ["path", 10**9], ["star", 100_001], ["star", 10**9],
            ["tree_ball", 2, 50_001], ["tree_ball", 3, 16], ["tree_ball", 3, 10**6],
            ["tree_ball", 10**9, 2]]
    # the largest members of three families that the cap admits
    admitted = [["cycle", 100_000], ["hypercube", 13], ["tree_ball", 3, 15]]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FAMILY_CAP_PROBE,
                           json.dumps(past + admitted)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    for case, outcome in zip(past, outcomes):
        label = f"{case[0]}({','.join(map(str, case[1:]))})"
        assert outcome == f"InvalidParameter: {label} has more than 100000 edges"
    assert outcomes[len(past):len(past) + len(admitted)] == [100_000, 53_248, 98_301]
    for code, err in outcomes[len(past) + len(admitted):]:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_generate_errors():
    with pytest.raises(InvalidParameter):
        generate("cycle", 2)
    with pytest.raises(InvalidParameter):
        generate("tree_ball", 3)
    with pytest.raises(InvalidParameter):
        generate("nonsense")


def test_operators_triangle():
    g = CORPUS["triangle"]
    a, d, lap = operators(g)
    assert a == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert d == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert all(lap[i][j] == d[i][j] - a[i][j] for i in range(3) for j in range(3))


def test_operators_path3_degrees():
    g = generate("path", 3)
    assert g.degrees == (1, 2, 1)


def test_k4_laplacian_spectrum_charpoly():
    _, _, lap = operators(CORPUS["K4"])
    p = charpoly_exact(lap)
    # lambda (lambda - 4)^3 = lambda^4 - 12 lambda^3 + 48 lambda^2 - 64 lambda
    assert p == [Fraction(0), Fraction(-64), Fraction(48), Fraction(-12), Fraction(1)]


def test_adjacency_symmetric_and_degree_sum():
    for g in CORPUS.values():
        a, _, _ = operators(g)
        n = g.vertex_count
        assert all(a[i][j] == a[j][i] for i in range(n) for j in range(n))
        assert sum(g.degrees) == len(g.edges)


def test_laplacian_positive_semidefinite():
    rng = random.Random(42)
    for g in CORPUS.values():
        _, _, lap = operators(g)
        n = g.vertex_count
        for _ in range(100):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            assert quadratic_form(lap, v) >= 0


def test_laplacian_row_sums_zero():
    for g in CORPUS.values():
        _, _, lap = operators(g)
        assert all(sum(row) == 0 for row in lap)


def test_ball_radius_zero():
    g = CORPUS["petersen"]
    sub, vmap = ball(g, 3, 0)
    assert sub.vertex_count == 1
    assert vmap == (3,)


def test_ball_cycle10():
    g = generate("cycle", 10)
    sub, vmap = ball(g, 0, 2)
    assert sub.vertex_count == 5
    assert sorted(sub.degrees) == [1, 1, 2, 2, 2]
    assert set(vmap) == {8, 9, 0, 1, 2}


def test_ball_tree_isomorphism():
    g = generate("tree_ball", 3, 4)
    sub, vmap = ball(g, 0, 2)
    reference = generate("tree_ball", 3, 2)
    assert vmap[0] == 0
    assert canonical_rooted_tree(sub, 0) == canonical_rooted_tree(reference, 0)


def test_ball_locality_of_rooted_counts():
    # rooted closed-walk tallies of length m depend only on the radius
    # ceil(m/2) ball around the root
    from _paths import enumerate_closed_weighted

    g = generate("tree_ball", 3, 4)
    for m in (2, 4, 6):
        sub, vmap = ball(g, 0, (m + 1) // 2)
        root = vmap.index(0)
        assert enumerate_closed_weighted(g, 0, m) == enumerate_closed_weighted(sub, root, m)


def test_distances():
    g = CORPUS["Q3"]
    d = distances_from(g, 0)
    assert d[0] == 0 and d[7] == 3


def test_json_format_roundtrip(tmp_path):
    g = CORPUS["cycle(4)"]
    data = graph_to_json_dict(g)
    assert data == {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    back = parse_graph_json(json.dumps(data))
    assert back.vertex_count == 4 and sorted(back.degrees) == [2, 2, 2, 2]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert load_graph(path).vertex_count == 4


def test_edge_list_format(tmp_path):
    text = "# a triangle\n0 1\n1 2  # last two\n2 0\n"
    g = parse_edge_list(text)
    assert g.vertex_count == 3 and g.degrees == (2, 2, 2)
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert load_graph(path).degrees == (2, 2, 2)


def test_immutability_types():
    g = CORPUS["triangle"]
    assert isinstance(g.out_edges, tuple)
    assert isinstance(g.degrees, tuple)
    assert isinstance(g.edges, tuple)
