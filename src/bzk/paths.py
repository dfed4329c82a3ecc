"""Brute-force enumeration of rooted closed walks with bump and tail
bookkeeping.

No library route calls this module: the closed-walk tallies come from
edgewalk, and the other enumeration oracles are in tests/_paths.py.  These two
enumerators stay because the benchmark tracer (perfbench/tracing.py) wraps
rooted_closed_tallies and primitive_rooted_closed_paths by name and looks up
bzk.paths when it installs, so `import bzk` loads this module.  They remain
the test references of the edge tally and of the Euler route, and stay naive
on purpose: plain depth-first search over directed edges, exact integer
tallies, no recursions borrowed from the symbolic side.
"""

from .series import TPoly

# Enumeration is exponential in the length; this guards runaway jobs.
MAX_ENUMERATION_LENGTH = 12


class EnumerationTooDeep(ValueError):
    """Requested length exceeds the enumeration cap."""


def _check_length(m):
    if m > MAX_ENUMERATION_LENGTH:
        raise EnumerationTooDeep(f"length {m} exceeds cap {MAX_ENUMERATION_LENGTH}")


def _poly_from_counts(counts):
    """counts: dict weight -> multiplicity, as a polynomial in t."""
    if not counts:
        return TPoly()
    top = max(counts)
    return TPoly([counts.get(w, 0) for w in range(top + 1)])


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


