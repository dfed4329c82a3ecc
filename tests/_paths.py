"""Brute-force walk enumerators that the library's walk matrices, tallies and
cyclic-bump entries are tested against.

They stay naive on purpose: plain depth-first search over directed edges,
exact integer tallies, no recursions borrowed from the symbolic side.  They
share the length cap and the count-to-polynomial helper of bzk.paths, which
keeps the two enumerators that the benchmark tracer wraps.
"""

from bzk.paths import _check_length, _poly_from_counts
from bzk.series import OperatorPoly, TPoly


class NotClosed(ValueError):
    """A cyclic quantity was asked of an open walk."""


def path_origin(g, edges):
    if not edges:
        raise ValueError("length-0 paths carry no edges; track the vertex separately")
    return g.edges[edges[0]].origin


def path_terminus(g, edges):
    if not edges:
        raise ValueError("length-0 paths carry no edges; track the vertex separately")
    return g.edges[edges[-1]].terminus


def bump_count(g, edges):
    """Number of positions i < len where edge i+1 reverses edge i."""
    twins = g._twins
    return sum(1 for i in range(len(edges) - 1) if edges[i + 1] == twins[edges[i]])


def has_tail(g, edges):
    return bool(edges) and edges[-1] == g._twins[edges[0]]


def cyclic_bump_count(g, edges):
    """Bump count with the wrap-around position included.

    Equals bump_count plus 1 exactly when the walk has a tail.  The empty
    closed walk has cyclic bump count 0.
    """
    if not edges:
        return 0
    if path_origin(g, edges) != path_terminus(g, edges):
        raise NotClosed("cyclic bump count needs a closed walk")
    return bump_count(g, edges) + (1 if has_tail(g, edges) else 0)


def enumerate_closed_weighted(g, x0, m, weight="cbc", *, no_tail=False,
                              first_edge=None, last_edge=None):
    """Sum of t^weight over closed walks of length m at x0 passing the filter.

    weight is "bc" or "cbc".  Filters: no_tail drops walks whose last edge
    reverses the first; first_edge/last_edge pin those edges.  The length-0
    walk counts once with weight 0, and only when no edge filter is set.
    """
    if weight not in ("bc", "cbc"):
        raise ValueError(f"unknown weight {weight!r}")
    if m < 0:
        raise ValueError("length must be >= 0")
    _check_length(m)
    if first_edge is not None and g.edges[first_edge].origin != x0:
        raise ValueError("first_edge must leave x0")
    if last_edge is not None and g.edges[last_edge].terminus != x0:
        raise ValueError("last_edge must return to x0")
    if m == 0:
        if first_edge is None and last_edge is None and not no_tail:
            return TPoly((1,))
        return TPoly()

    out = g.out_edges
    heads = g._heads
    twins = g._twins
    cyclic = weight == "cbc"
    counts = {}

    def walk(v, depth, bumps, first, prev_twin):
        nd = depth + 1
        for e in out[v]:
            if depth == 0 and first_edge is not None and e != first_edge:
                continue
            b = bumps + (1 if e == prev_twin else 0)
            h = heads[e]
            f = e if first < 0 else first
            if nd == m:
                if h != x0:
                    continue
                if last_edge is not None and e != last_edge:
                    continue
                tail = f == twins[e]
                if no_tail and tail:
                    continue
                w = b + (1 if cyclic and tail else 0)
                counts[w] = counts.get(w, 0) + 1
            else:
                walk(h, nd, b, f, twins[e])

    walk(x0, 0, 0, -1, -1)
    return _poly_from_counts(counts)


def cm_bruteforce(g, m):
    """Bump-weighted walk matrix by direct enumeration.

    Entry (x, y) is the sum of t^bc over walks x -> y of length m; length 0
    gives the identity.
    """
    if m < 0:
        raise ValueError("length must be >= 0")
    _check_length(m)
    n = g.vertex_count
    if m == 0:
        return OperatorPoly.identity(n)
    out = g.out_edges
    heads = g._heads
    twins = g._twins
    rows = []
    for x in range(n):
        counts = [dict() for _ in range(n)]

        def walk(v, depth, bumps, prev_twin):
            nd = depth + 1
            if nd == m:
                for e in out[v]:
                    b = bumps + (1 if e == prev_twin else 0)
                    c = counts[heads[e]]
                    c[b] = c.get(b, 0) + 1
            else:
                for e in out[v]:
                    walk(heads[e], nd, bumps + (1 if e == prev_twin else 0), twins[e])

        walk(x, 0, 0, -1)
        rows.append([_poly_from_counts(c) for c in counts])
    return OperatorPoly(rows)


def closed_geodesic_counts(g, x0, max_len):
    """Number of closed geodesics at x0 per length (no bumps, no tail).

    Kept independent of the weighted enumerators: the DFS never takes a
    reversing edge and rejects tails at closure, counting objects with
    cyclic bump count zero directly.
    """
    _check_length(max_len)
    out = g.out_edges
    heads = g._heads
    twins = g._twins
    counts = [0] * (max_len + 1)

    def walk(v, depth, first, prev_twin):
        nd = depth + 1
        for e in out[v]:
            if e == prev_twin:
                continue
            h = heads[e]
            f = e if first < 0 else first
            if h == x0 and f != twins[e]:
                counts[nd] += 1
            if nd < max_len:
                walk(h, nd, f, twins[e])

    if max_len >= 1:
        walk(x0, 0, -1, -1)
    return counts


def non_backtracking_matrices(g, max_len):
    """Integer matrices counting bump-free walks per length <= max_len."""
    _check_length(max_len)
    n = g.vertex_count
    out = g.out_edges
    heads = g._heads
    twins = g._twins
    mats = [[[0] * n for _ in range(n)] for _ in range(max_len + 1)]
    for i in range(n):
        mats[0][i][i] = 1

    def walk(x, v, depth, prev_twin):
        nd = depth + 1
        for e in out[v]:
            if e == prev_twin:
                continue
            h = heads[e]
            mats[nd][x][h] += 1
            if nd < max_len:
                walk(x, h, nd, twins[e])

    if max_len >= 1:
        for x in range(n):
            walk(x, x, 0, -1)
    return mats
