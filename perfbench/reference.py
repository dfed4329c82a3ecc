"""Reference computations for the benchmark, sharing no code with bzk.

Graphs are rebuilt from their definitions, the rooted Bartholdi tally comes
from the directed-edge matrix M(t) = B - (1 - t) J (L. Bartholdi, "Counting
paths in graphs", 1999; Hashimoto's edge matrix at t = 0), and the heat
kernel from the matrix exponential of the Laplacian.  Each reference is in
turn checked against a closed form by `self_check_*`.
"""

from fractions import Fraction
import math

import numpy as np
import scipy.linalg


# ---------------------------------------------------------------------------
# graphs, as (vertex count, sorted undirected pairs)


def _pairs(edges):
    return sorted((min(a, b), max(a, b)) for a, b in edges)


def build(spec):
    """Vertex count and edge pairs of a graph named like bzk.generate's
    arguments: ["petersen"], ["hypercube", d], ["complete", n] or
    ["tree_ball", branching, radius] (breadth-first ids, centre 0)."""
    family, *params = spec
    if family == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return 10, _pairs(outer + spokes + inner)
    if family == "hypercube":
        (d,) = params
        n = 1 << d
        return n, _pairs((v, v | (1 << b)) for v in range(n) for b in range(d)
                         if not v & (1 << b))
    if family == "complete":
        (n,) = params
        return n, _pairs((i, j) for i in range(n) for j in range(i + 1, n))
    if family == "tree_ball":
        branching, radius = params
        edges, level, n = [], [0], 1
        for depth in range(radius):
            nxt = []
            for v in level:
                for _ in range(branching if depth == 0 else branching - 1):
                    edges.append((v, n))
                    nxt.append(n)
                    n += 1
            level = nxt
        return n, _pairs(edges)
    raise ValueError(f"no reference construction for {spec!r}")


def _adjacency_lists(n, pairs):
    nbrs = [[] for _ in range(n)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


# ---------------------------------------------------------------------------
# exact rooted tally from the directed-edge matrix


def rooted_tallies(n, pairs, x0, order, t):
    """tally[m] = sum over directed edges e leaving x0 of (M(t)^m)[e, e] for
    m = 1..order, in exact integers (t an int).

    Directed edge 2k runs a -> b for the k-th pair (a, b) and 2k + 1 is its
    twin.  M(e, f) = [head e = tail f] * t^[f = twin e], so a row vector r
    maps to (r M)[f] = S[tail f] - (1 - t) r[twin f], where S[v] sums r over
    the edges into v.
    """
    tails, heads = [], []
    for a, b in pairs:
        tails += [a, b]
        heads += [b, a]
    count = len(tails)
    tally = [0] * (order + 1)
    for start in range(count):
        if tails[start] != x0:
            continue
        r = [0] * count
        r[start] = 1
        for m in range(1, order + 1):
            into = [0] * n
            for f, value in enumerate(r):
                if value:
                    into[heads[f]] += value
            r = [into[tails[f]] - (1 - t) * r[f ^ 1] for f in range(count)]
            tally[m] += r[start]
    return tally


def exp_of_log_series(tally, order):
    """Coefficients b_0..b_order of exp(sum_m tally[m] u^m / m), from the
    exact recurrence n b_n = sum_{k=1}^{n} tally[k] b_{n-k}."""
    b = [Fraction(1)]
    for m in range(1, order + 1):
        b.append(Fraction(sum(tally[k] * b[m - k] for k in range(1, m + 1)), m))
    return b


def rooted_zeta_at(n, pairs, x0, order, t):
    """u-coefficients of the rooted zeta exp(sum tally_m u^m / m) at integer t."""
    return exp_of_log_series(rooted_tallies(n, pairs, x0, order, t), order)


def t_points(order):
    """order + 1 distinct integers: a polynomial of degree <= order that
    vanishes at all of them is zero."""
    low = -(order // 2)
    return list(range(low, low + order + 1))


def parse_series(rows):
    """bzk's series JSON (u-major rows of "p/q" t-coefficients) as Fractions."""
    return [[Fraction(c) for c in row] for row in rows]


def evaluate_series(coeffs, t):
    out = []
    for row in coeffs:
        acc = Fraction(0)
        for c in reversed(row):
            acc = acc * t + c
        out.append(acc)
    return out


def series_mismatch(coeffs, order, expected_at):
    """First disagreement of an exact series with a reference, or None.

    coeffs: parsed series; expected_at: {t: [b_0..b_order]} at order + 1
    integer points.  The u^m coefficient of the rooted zeta has t-degree at
    most m, which is checked first, so agreement at the points is equality
    of polynomials.
    """
    if len(coeffs) != order + 1:
        return f"series has {len(coeffs)} coefficients, expected {order + 1}"
    for m, row in enumerate(coeffs):
        if len(row) - 1 > m:
            return f"u^{m} coefficient has t-degree {len(row) - 1} > {m}"
    for t, expected in expected_at.items():
        got = evaluate_series(coeffs, t)
        for m in range(order + 1):
            if got[m] != expected[m]:
                return f"u^{m} at t={t}: {got[m]} != reference {expected[m]}"
    return None


# ---------------------------------------------------------------------------
# float references


def laplacian(n, pairs):
    lap = np.zeros((n, n))
    for a, b in pairs:
        lap[a, b] = lap[b, a] = -1.0
        lap[a, a] += 1.0
        lap[b, b] += 1.0
    return lap


def heat_matrix(n, pairs, tau):
    """exp(-tau L): entry (x0, x) is the heat kernel K(tau, x0, x)."""
    return scipy.linalg.expm(-tau * laplacian(n, pairs))


def edge_matrix(n, pairs, t):
    """M(t) = B - (1 - t) J on directed edges, as floats."""
    tails, heads = [], []
    for a, b in pairs:
        tails += [a, b]
        heads += [b, a]
    count = len(tails)
    mat = np.zeros((count, count))
    for e in range(count):
        for f in range(count):
            if heads[e] == tails[f]:
                mat[e, f] = t if f == e ^ 1 else 1.0
    return mat


def vt_rooted_zeta(n, pairs, u, t):
    """Rooted zeta on a vertex-transitive graph: every root carries the same
    factor of det(I - u M(t))^(-1), so it is exp(-log det(I - u M(t)) / n)."""
    mat = edge_matrix(n, pairs, t)
    sign, logdet = np.linalg.slogdet(np.eye(len(mat)) - u * mat)
    if sign <= 0:
        raise ValueError(f"det(I - uM) is not positive at u={u}, t={t}")
    return math.exp(-logdet / n)


# ---------------------------------------------------------------------------
# self-checks of the references against closed forms


def self_check_tally(n, pairs, x0, order, dfs_walk_cap=200_000):
    """Errors (strings) of the edge-matrix tally against two closed forms:
    at t = 1 it counts closed walks, (A^m)[x0, x0]; at t = 0 it counts
    closed geodesics (no backtracking, wrap-around included), enumerated by
    depth-first search up to the longest length whose walk count stays
    under dfs_walk_cap."""
    errors = []
    nbrs = _adjacency_lists(n, pairs)
    tally_one = rooted_tallies(n, pairs, x0, order, 1)
    walk = [0] * n
    walk[x0] = 1
    for m in range(1, order + 1):
        nxt = [0] * n
        for v, value in enumerate(walk):
            if value:
                for w in nbrs[v]:
                    nxt[w] += value
        walk = nxt
        if walk[x0] != tally_one[m]:
            errors.append(f"t=1, m={m}: tally {tally_one[m]} != (A^m)[x0,x0] {walk[x0]}")

    top = max(len(v) for v in nbrs)
    depth = 1
    while depth < order and top * max(top - 1, 1) ** depth <= dfs_walk_cap:
        depth += 1
    geodesics = [0] * (depth + 1)

    def extend(v, length, first, prev):
        for w in nbrs[v]:
            if w == prev:
                continue
            if w == x0 and first != v:
                geodesics[length + 1] += 1
            if length + 1 < depth:
                extend(w, length + 1, first if length else w, v)

    extend(x0, 0, None, None)
    tally_zero = rooted_tallies(n, pairs, x0, depth, 0)
    for m in range(1, depth + 1):
        if tally_zero[m] != geodesics[m]:
            errors.append(f"t=0, m={m}: tally {tally_zero[m]} != geodesics {geodesics[m]}")
    return errors


def self_check_spectral(n, pairs, x0, u=0.05, order=40):
    """Errors of the determinant reference against the exact tally series
    summed to u^order, at t = 0 and t = 1, on a vertex-transitive graph."""
    errors = []
    for t in (0, 1):
        want = float(sum(b * Fraction(u) ** m
                         for m, b in enumerate(rooted_zeta_at(n, pairs, x0, order, t))))
        got = vt_rooted_zeta(n, pairs, u, float(t))
        if abs(got - want) > 1e-12 * abs(want):
            errors.append(f"det reference at u={u}, t={t}: {got} != tally sum {want}")
    return errors


def self_check_heat():
    """Errors of the expm heat reference against the closed form on the
    complete graph K4: K(tau, 0, 0) = 1/4 + 3/4 e^(-4 tau)."""
    n, pairs = build(["complete", 4])
    errors = []
    for tau in (0.25, 1.0, 2.5, 5.0):
        got = heat_matrix(n, pairs, tau)[0, 0]
        want = 0.25 + 0.75 * math.exp(-4.0 * tau)
        if abs(got - want) > 1e-13:
            errors.append(f"K4 heat at tau={tau}: {got} != {want}")
    return errors
