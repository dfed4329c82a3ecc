"""Finite simple connected graphs with paired directed edges.

Every undirected edge is stored as a twin pair of directed edges so walk and
bump bookkeeping is O(1).  Graph values are immutable after construction.
"""

import json
from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Base class for graph construction failures."""


class LoopEdge(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphError):
    """The same undirected edge was given twice."""


class Disconnected(GraphError):
    """The graph is not connected."""


class EmptyGraph(GraphError):
    """No vertices."""


class InvalidParameter(GraphError):
    """Bad generator or builder parameter."""


@dataclass(frozen=True)
class DirectedEdge:
    id: int
    origin: int
    terminus: int
    twin: int


class Graph:
    """Immutable simple graph: directed edge pairs plus per-vertex fanout."""

    __slots__ = ("vertex_count", "edges", "out_edges", "degrees", "label",
                 "_heads", "_twins")

    def __init__(self, vertex_count, edges, out_edges, degrees, label):
        self.vertex_count = vertex_count
        self.edges = edges
        self.out_edges = out_edges
        self.degrees = degrees
        self.label = label
        self._heads = tuple(e.terminus for e in edges)
        self._twins = tuple(e.twin for e in edges)

    @property
    def max_degree(self):
        return max(self.degrees) if self.degrees else 0

    def neighbors(self, x):
        return [self._heads[e] for e in self.out_edges[x]]

    def twin(self, edge_id):
        return self._twins[edge_id]

    def regular_degree(self):
        """Common degree if the graph is regular, else None."""
        degs = set(self.degrees)
        return degs.pop() if len(degs) == 1 else None

    def undirected_pairs(self):
        """Each undirected edge once, as a sorted (a, b) pair."""
        return [(e.origin, e.terminus) for e in self.edges if e.origin < e.terminus]

    def __repr__(self):
        return f"Graph({self.label!r}, vertices={self.vertex_count}, edges={len(self.edges) // 2})"


def _bfs_distances(neighbors, start, n):
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def build_graph(vertex_count, undirected_edges, *, label="graph"):
    """Assemble a simple graph from undirected vertex pairs.

    Each pair becomes a twin pair of directed edges.  Raises LoopEdge,
    DuplicateEdge, Disconnected or EmptyGraph when the corresponding axiom is
    violated.  A connected graph has at most |E| + 1 vertices, so a larger
    vertex_count is rejected before anything of that size is allocated.
    """
    if vertex_count <= 0:
        raise EmptyGraph("a graph needs at least one vertex")
    if vertex_count > len(undirected_edges) + 1:
        raise Disconnected(
            f"graph is not connected: {vertex_count} vertices but only "
            f"{len(undirected_edges)} edges"
        )
    seen = set()
    adjacency = [[] for _ in range(vertex_count)]
    edges = []
    out_edges = [[] for _ in range(vertex_count)]
    for a, b in undirected_edges:
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise InvalidParameter(f"edge ({a}, {b}) references a missing vertex")
        if a == b:
            raise LoopEdge(f"loop at vertex {a}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise DuplicateEdge(f"repeated edge {key}")
        seen.add(key)
        eid = len(edges)
        edges.append(DirectedEdge(eid, a, b, eid + 1))
        edges.append(DirectedEdge(eid + 1, b, a, eid))
        out_edges[a].append(eid)
        out_edges[b].append(eid + 1)
        adjacency[a].append(b)
        adjacency[b].append(a)
    if vertex_count > 1:
        dist = _bfs_distances(adjacency, 0, vertex_count)
        if any(d < 0 for d in dist):
            raise Disconnected("graph is not connected")
    return Graph(
        vertex_count,
        tuple(edges),
        tuple(tuple(lst) for lst in out_edges),
        tuple(len(lst) for lst in out_edges),
        label,
    )


# Most edges a generated family may have.  Building a graph costs about 8-11 us
# and 0.7-1 KB of RSS per edge on a 2-core Xeon with Python 3.11:
# hypercube(14), 114,688 edges, took 1.3 s and 81 MB; complete(500), 124,750
# edges, 1.0 s and 82 MB; cycle(125000) 1.2 s and 120 MB.  So the cap costs at
# most about 1 s and 100 MB.
MAX_EDGES = 100_000


def _check_edges(label, edges):
    """Refuse a family graph with more than MAX_EDGES edges, before any of it
    is built."""
    if edges > MAX_EDGES:
        raise InvalidParameter(f"{label} has more than {MAX_EDGES} edges")


def _cycle(n):
    if n < 3:
        raise InvalidParameter("cycle needs n >= 3")
    _check_edges(f"cycle({n})", n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], label=f"cycle({n})")


def _complete(n):
    if n < 2:
        raise InvalidParameter("complete graph needs n >= 2")
    _check_edges(f"complete({n})", n * (n - 1) // 2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, pairs, label=f"complete({n})")


def _hypercube(d):
    if d < 1:
        raise InvalidParameter("hypercube needs d >= 1")
    # d 2^(d-1) is past the cap once 2^(d-1) alone is, so a huge d never
    # forms 1 << d
    _check_edges(f"hypercube({d})",
                 d << (d - 1) if d <= MAX_EDGES.bit_length() else MAX_EDGES + 1)
    n = 1 << d
    pairs = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return build_graph(n, pairs, label=f"hypercube({d})")


def _petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, pairs, label="petersen")


def _path(n):
    if n < 2:
        raise InvalidParameter("path needs n >= 2")
    _check_edges(f"path({n})", n - 1)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], label=f"path({n})")


def _star(n):
    # center is vertex 0, n leaves
    if n < 1:
        raise InvalidParameter("star needs n >= 1 leaves")
    _check_edges(f"star({n})", n)
    return build_graph(n + 1, [(0, i) for i in range(1, n + 1)], label=f"star({n})")


def _tree_ball(branching, radius):
    """Radius-r ball in the infinite branching-regular tree, rooted at 0."""
    if branching < 2:
        raise InvalidParameter("tree_ball needs branching >= 2")
    if radius < 1:
        raise InvalidParameter("tree_ball needs radius >= 1")
    # level k adds branching (branching-1)^(k-1) edges; stop at the first
    # level past the cap
    edges, width = 0, branching
    for _ in range(radius):
        edges += width
        _check_edges(f"tree_ball({branching},{radius})", edges)
        width *= branching - 1
    pairs = []
    frontier = [0]
    next_id = 1
    for level in range(radius):
        new_frontier = []
        for v in frontier:
            children = branching if level == 0 else branching - 1
            for _ in range(children):
                pairs.append((v, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return build_graph(next_id, pairs, label=f"tree_ball({branching},{radius})")


_FAMILIES = {
    "cycle": (_cycle, 1),
    "complete": (_complete, 1),
    "hypercube": (_hypercube, 1),
    "petersen": (_petersen, 0),
    "path": (_path, 1),
    "star": (_star, 1),
    "tree_ball": (_tree_ball, 2),
}


def generate(family, *params):
    """Build a named family graph: cycle(n), complete(n), hypercube(d),
    petersen, path(n), star(n), tree_ball(branching, radius)."""
    if family not in _FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    builder, arity = _FAMILIES[family]
    if len(params) != arity:
        raise InvalidParameter(f"{family} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def operators(g):
    """Adjacency, valency and Laplacian matrices as nested int tuples."""
    n = g.vertex_count
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        a[e.origin][e.terminus] = 1
    adjacency = tuple(tuple(row) for row in a)
    valency = tuple(tuple(g.degrees[i] if i == j else 0 for j in range(n)) for i in range(n))
    laplacian = tuple(
        tuple(valency[i][j] - adjacency[i][j] for j in range(n)) for i in range(n)
    )
    return adjacency, valency, laplacian


def graph_to_json_dict(g):
    return {"vertices": g.vertex_count, "edges": [list(p) for p in g.undirected_pairs()]}


def _json_int(value, what):
    # bool is a subclass of int, and JSON true must not read as 1
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def parse_graph_json(text, *, label="graph"):
    data = json.loads(text)
    try:
        n = _json_int(data["vertices"], "vertices")
        pairs = [(_json_int(a, "an edge endpoint"), _json_int(b, "an edge endpoint"))
                 for a, b in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"bad graph JSON: {exc}") from exc
    return build_graph(n, pairs, label=label)


def parse_edge_list(text, *, label="graph"):
    """Plain-text format: one "a b" per line, '#' starts a comment."""
    pairs = []
    top = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InvalidParameter(f"bad edge line {raw!r}")
        a, b = int(fields[0]), int(fields[1])
        pairs.append((a, b))
        top = max(top, a, b)
    if top < 0:
        raise EmptyGraph("edge list holds no edges")
    return build_graph(top + 1, pairs, label=label)


def load_graph(path):
    """Read a graph file; JSON if it parses as JSON, edge list otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text, label=str(path))
    return parse_edge_list(text, label=str(path))
