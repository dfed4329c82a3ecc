"""Brute-force enumeration of walks and closed walks with bump and tail
bookkeeping.

This module is the independent oracle that the operator calculus is tested
against, so it stays naive on purpose: plain depth-first search over directed
edges, exact integer tallies, no recursions borrowed from the symbolic side.
"""

from .series import OperatorPoly, TPoly

# Enumeration is exponential in the length; this guards runaway jobs.
MAX_ENUMERATION_LENGTH = 12


class NotClosed(ValueError):
    """A cyclic quantity was asked of an open walk."""


class EnumerationTooDeep(ValueError):
    """Requested length exceeds the enumeration cap."""


def _check_length(m):
    if m > MAX_ENUMERATION_LENGTH:
        raise EnumerationTooDeep(f"length {m} exceeds cap {MAX_ENUMERATION_LENGTH}")


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


def _poly_from_counts(counts):
    """counts: dict weight -> multiplicity, as a polynomial in t."""
    if not counts:
        return TPoly()
    top = max(counts)
    return TPoly([counts.get(w, 0) for w in range(top + 1)])


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


def rooted_closed_tallies(g, x0, max_len):
    """One exhaustive DFS collecting, for every length m <= max_len, the
    weight tallies the generating-function identities consume.

    Returns (cbc_all, bc_all, no_tail): lists indexed by m of TPoly, where
    cbc_all[m] sums t^cbc over closed walks of length m, bc_all[m] sums t^bc,
    and no_tail[m] sums t^cbc (= t^bc) over tail-free closed walks.  Index 0
    is zero in all three; the series these feed start at m = 1.
    """
    _check_length(max_len)
    out = g.out_edges
    heads = g._heads
    twins = g._twins
    cbc_counts = [dict() for _ in range(max_len + 1)]
    bc_counts = [dict() for _ in range(max_len + 1)]
    notail_counts = [dict() for _ in range(max_len + 1)]

    def walk(v, depth, bumps, first, prev_twin):
        nd = depth + 1
        descend = nd < max_len
        for e in out[v]:
            b = bumps + (1 if e == prev_twin else 0)
            h = heads[e]
            f = e if first < 0 else first
            if h == x0:
                bc = bc_counts[nd]
                bc[b] = bc.get(b, 0) + 1
                if f == twins[e]:
                    c = cbc_counts[nd]
                    c[b + 1] = c.get(b + 1, 0) + 1
                else:
                    c = cbc_counts[nd]
                    c[b] = c.get(b, 0) + 1
                    c = notail_counts[nd]
                    c[b] = c.get(b, 0) + 1
            if descend:
                walk(h, nd, b, f, twins[e])

    if max_len >= 1:
        walk(x0, 0, 0, -1, -1)
    return (
        [_poly_from_counts(c) for c in cbc_counts],
        [_poly_from_counts(c) for c in bc_counts],
        [_poly_from_counts(c) for c in notail_counts],
    )


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


def _is_primitive(edges):
    """True when the edge sequence is not a k-fold repetition, k >= 2."""
    m = len(edges)
    for d in range(1, m):
        if m % d:
            continue
        if all(edges[i] == edges[i - d] for i in range(d, m)):
            return False
    return True


def primitive_rooted_closed_paths(g, x0, max_len):
    """All primitive closed walks at x0 of length <= max_len.

    Returns a list of (edge_tuple, length, cbc).  A closed walk is primitive
    when its edge sequence has no proper period, i.e. it is not a repetition
    of a shorter closed walk at x0.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    _check_length(max_len)
    out = g.out_edges
    heads = g._heads
    twins = g._twins
    found = []
    stack = []

    def walk(v, depth, bumps, prev_twin):
        nd = depth + 1
        for e in out[v]:
            stack.append(e)
            b = bumps + (1 if e == prev_twin else 0)
            h = heads[e]
            if h == x0 and _is_primitive(stack):
                tail = stack[0] == twins[e]
                found.append((tuple(stack), nd, b + (1 if tail else 0)))
            if nd < max_len:
                walk(h, nd, b, twins[e])
            stack.pop()

    walk(x0, 0, 0, -1)
    return found


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
