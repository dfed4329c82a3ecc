"""Closed-walk tallies by a transfer recursion over directed edges.

A walk steps from edge e' to edge e when e leaves the vertex e' enters, with
weight t when e reverses e' (a bump) and 1 otherwise: the transfer matrix
B + (t-1) J of Hashimoto and Bartholdi, with B the edge adjacency and J the
twin pairing.  Its powers give the bump-weighted closed walks at a root in
time polynomial in the length, where an enumeration grows like (d-1)^m.
"""

from .graphs import _check_vertex
from .series import _pack, _packed_width, _unpack

# t - 1, lowest power first: the extra weight of the step that reverses an edge
_T_MINUS_ONE = (-1, 1)


def edge_closed_tallies(g, x0, order):
    """Cyclic-bump tallies of the closed walks at x0, lengths 0..order.

    Returns (cbc_all, no_tail): lists indexed by length m of TPoly, where
    cbc_all[m] sums t^cbc over closed walks of length m at x0 and no_tail[m]
    sums t^cbc (= t^bc) over those whose last edge does not reverse the
    first.  Index 0 is zero in both, as in paths.rooted_closed_tallies.

    For each first edge f leaving x0, V_k[e] is the sum of t^bc over walks
    of length k that start with f and end with e:
        V_1 = [f],  V_(k+1)[e] = S_k[tail e] + (t-1) V_k[twin e],
    with S_k[v] the sum of V_k over the edges into v.  A walk ending at the
    twin of f has a tail, whose wrap-around bump adds one more factor t.
    The recursion runs on packed ints (series._pack at
    _packed_width(max degree, order)), 0 for zero, and only the tallies are
    decoded.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    _check_vertex(g, x0)
    width = _packed_width(g.max_degree, order)
    t = _pack((0, 1), width)
    t_minus_one = _pack(_T_MINUS_ONE, width)
    cbc_all = [0] * (order + 1)
    no_tail = [0] * (order + 1)
    edge_count = len(g.edges)
    heads = g._heads
    twins = g._twins
    # the edges into v are the twins of the edges out of v
    into_root = [twins[e] for e in g.out_edges[x0]]
    steps = [(e.origin, twins[i]) for i, e in enumerate(g.edges)]
    for f in g.out_edges[x0]:
        closing = twins[f]
        cur = [0] * edge_count
        cur[f] = 1
        for k in range(1, order + 1):
            for e in into_root:
                v = cur[e]
                if e == closing:
                    cbc_all[k] += t * v
                else:
                    cbc_all[k] += v
                    no_tail[k] += v
            if k == order:
                break
            sums = [0] * g.vertex_count
            for e, v in enumerate(cur):
                if v:
                    sums[heads[e]] += v
            cur = [sums[tail] + t_minus_one * cur[back] for tail, back in steps]
    return ([_unpack(c, width) for c in cbc_all],
            [_unpack(c, width) for c in no_tail])
