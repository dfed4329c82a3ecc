"""Test-side oracles and references that cross-check the library.

Most are deliberately dumb implementations that share no code with it.
These read library code:
- operator_reading_table is a foil rather than an oracle, built from the
  library's walk matrices and double sum;
- commutator_exponent_loop reads the library's f^k table;
- cm_cbc, the dense cyclic-bump matrix that cbc_terms is checked against,
  reads cm_sequence and r_values;
- heat_residual reads both heat routes, heat_kernel_bessel and
  heat_kernel_spectral, and the cached eigendecomposition;
- binomial_power reads USeries.log and USeries.exp;
- ball builds its subgraph with the library's BFS and build_graph.
"""

from collections import deque
from fractions import Fraction

from bzk.graphs import InvalidParameter, _bfs_distances, build_graph
from bzk.heat import heat_kernel_bessel, heat_kernel_spectral
from bzk.operators import cm_sequence, r_values
from bzk.series import ONE_MINUS_T, TPOLY_T, OperatorPoly, TPoly, USeries
from bzk.zeta import _eigh_cached



def bfs_girth(g):
    """Shortest cycle length by BFS from every vertex."""
    best = None
    for s in range(g.vertex_count):
        dist = {s: 0}
        parent_edge = {s: None}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in g.out_edges[v]:
                w = g.edges[eid].terminus
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent_edge[w] = eid
                    queue.append(w)
                elif parent_edge[v] is None or eid != g.twin(parent_edge[v]):
                    cycle = dist[v] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def canonical_rooted_tree(g, root):
    """Canonical nested-tuple encoding of a tree rooted at root."""
    def encode(v, parent):
        children = sorted(
            encode(w, v) for w in g.neighbors(v) if w != parent
        )
        return tuple(children)

    return encode(root, None)


def quadratic_form(matrix, vector):
    """<M v, v> over Fractions."""
    n = len(vector)
    total = Fraction(0)
    for i in range(n):
        row_dot = sum(Fraction(matrix[i][j]) * vector[j] for j in range(n))
        total += row_dot * vector[i]
    return total


def int_matrix_power(mat, k):
    n = len(mat)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [list(row) for row in mat]
    for _ in range(k):
        out = [
            [sum(out[i][l] * base[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out


def poly_eval_fraction(p, t):
    """Evaluate a TPoly at an exact rational point."""
    acc = Fraction(0)
    for c in reversed(p.c):
        acc = acc * t + c
    return acc


def operator_reading_table(g, x0, order):
    """The RootedWalk of x0 under the rejected reading of the defect term:
    the diagonal of the matrix product (Laplacian * C_m) in place of the
    Laplacian of y -> C_m(y, y).  Built from the library's walk matrices and
    double sum, so that a test can put it in place of operators._rooted_walk
    and show the unchanged cyclic-bump check rejecting this reading."""
    from bzk.operators import RootedWalk, _r_double_sum, cm_sequence

    cms = cm_sequence(g, order)
    delta = []
    for c in cms:
        acc = c.entry(x0, x0) * g.degrees[x0]
        for y in g.neighbors(x0):
            acc = acc - c.entry(y, x0)
        delta.append(acc)
    return RootedWalk(diag=tuple(c.entry(x0, x0) for c in cms), delta=tuple(delta),
                      r=tuple(_r_double_sum(delta, order)))


def commutator_matrix(g):
    """K = A D - D A as integer rows, from the dense graph matrices."""
    from bzk.graphs import operators

    adjacency, valency, _ = operators(g)
    n = g.vertex_count
    return [
        [adjacency[i][j] * (valency[j][j] - valency[i][i]) for j in range(n)]
        for i in range(n)
    ]


def commutator_exponent_loop(g, x0, x, order):
    """The commutator integral's exponent coefficients (index = u-power) by
    the direct double sum over (a, b):
    int_0^u (1-t) s^2 sum_{a,b} (b+1)/(a+b+2) [f^a K f^b](x0, x) s^(a+b) ds.
    Reuses the library's row tables zeta._f_power_table for f^a(x0, .) and
    f^b(., x), as operator_reading_table reuses library code; f is symmetric,
    so f^b(q, x) is row x of f^b at q."""
    from bzk.series import ONE_MINUS_T, TPOLY_ZERO, TPoly, _mul_into
    from bzk.zeta import _f_power_table

    left = _f_power_table(g, x0, order)
    exponent = [TPOLY_ZERO] * (order + 1)
    commutator = [[(q, kpq) for q, kpq in enumerate(row) if kpq]
                  for row in commutator_matrix(g)]
    if any(commutator):
        right = left if x == x0 else _f_power_table(g, x, order)
        top = order - 3  # integrating the u^2 shift lifts power s to s + 3
        integrand = [TPOLY_ZERO] * (order + 1)
        for b in range(top + 1):
            # [K f^b](p, x) for every p, as raw coefficient lists per u-power
            kf = []
            for terms in commutator:
                acc = None
                for q, kpq in terms:
                    entry = right[b][q]
                    if entry:
                        acc = acc or [[] for _ in entry]
                        for slot, c in zip(acc, entry):
                            _mul_into(slot, (kpq,), c.c)
                kf.append(acc)
            for a in range(top - b + 1):
                total = [[] for _ in range(top - a - b + 1)]
                for lp, kp in zip(left[a], kf):
                    if not lp or kp is None:
                        continue
                    for i, c in enumerate(lp[: len(total)]):
                        for l, d in enumerate(kp[: len(total) - i]):
                            _mul_into(total[i + l], c.c, d)
                weight = Fraction(b + 1, a + b + 2)
                for s, c in enumerate(total, start=a + b):
                    if c:
                        integrand[s] = integrand[s] + TPoly(c) * weight
        for s in range(top + 1):
            exponent[s + 3] = exponent[s + 3] + integrand[s] * ONE_MINUS_T * Fraction(1, s + 3)
    return exponent


def binomial_power(s, exponent):
    """(constant-term-1 series) ** exponent for rational exponents, as
    exp(exponent * log s)."""
    if not isinstance(s, USeries):
        raise TypeError("binomial_power expects a scalar USeries")
    return (s.log() * Fraction(exponent)).exp()


def distances_from(g, x0):
    """BFS distances from x0 (graphs here are connected, so all finite)."""
    neighbors = [g.neighbors(v) for v in range(g.vertex_count)]
    return _bfs_distances(neighbors, x0, g.vertex_count)


def ball(g, x0, r):
    """Induced subgraph on vertices within distance r of x0.

    Returns (subgraph, vertex_map) where vertex_map[new_id] = old_id.
    """
    if r < 0:
        raise InvalidParameter("radius must be >= 0")
    dist = distances_from(g, x0)
    keep = [v for v in range(g.vertex_count) if 0 <= dist[v] <= r]
    index = {old: new for new, old in enumerate(keep)}
    pairs = [
        (index[a], index[b])
        for a, b in g.undirected_pairs()
        if a in index and b in index
    ]
    sub = build_graph(
        len(keep), pairs,
        label=f"ball({g.label},{x0},{r})",
    )
    return sub, tuple(keep)


def cm_cbc(g, m, *, cms=None):
    """Cyclic-bump walk operator, as a dense matrix.

    Identity and adjacency at lengths 0 and 1, t * C_2 at length 2, and for
    m >= 3 the walk matrix corrected by the diagonal factor
    (D - 2(1-t) I) sum_j (1-t)^(2j-1) C_{m-2j}, the defect diagonal, and the
    even-length valency term.  Its diagonal equals the cyclic-bump tally of
    closed walks.  The library computes entries by cbc_terms; this literal
    matrix form is their reference.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if cms is None:
        cms = cm_sequence(g, m)
    if m <= 1:
        return cms[m]
    if m == 2:
        return cms[2].scale(TPOLY_T)
    n = g.vertex_count
    acc = OperatorPoly.zero(n)
    for j in range(1, (m + 1) // 2):
        acc = acc + cms[m - 2 * j].scale(ONE_MINUS_T ** (2 * j - 1))
    dfac = OperatorPoly.diagonal([TPoly((d - 2, 2)) for d in g.degrees])
    result = cms[m] - dfac * acc
    r = r_values(g, m, cms=cms)[m]
    result = result + OperatorPoly.diagonal([v * ONE_MINUS_T for v in r])
    if m % 2 == 0:
        even = ONE_MINUS_T ** (m - 1) * TPOLY_T
        result = result - OperatorPoly.diagonal([even * d for d in g.degrees])
    return result


def heat_residual(g, x0, tau, h, *, route="bessel", t=0.0):
    """Max over vertices of |d/dtau K + (Laplacian K)| at time tau.

    The bessel route differentiates by central differences with step h; the
    spectral route uses the analytic derivative.
    """
    import numpy as np

    if route == "bessel":
        if not tau > h > 0:
            raise ValueError("need tau > h > 0")
        tol = 1e-13
        k_mid = [heat_kernel_bessel(g, x0, x, tau, t, tol).value for x in range(g.vertex_count)]
        k_lo = [heat_kernel_bessel(g, x0, x, tau - h, t, tol).value for x in range(g.vertex_count)]
        k_hi = [heat_kernel_bessel(g, x0, x, tau + h, t, tol).value for x in range(g.vertex_count)]
        dk = [(hi - lo) / (2.0 * h) for hi, lo in zip(k_hi, k_lo)]
    elif route == "spectral":
        w, v = _eigh_cached(g)
        k_mid = [heat_kernel_spectral(g, x0, x, tau).value for x in range(g.vertex_count)]
        dk = [float(np.sum(-w * np.exp(-tau * w) * v[x0] * v[x])) for x in range(g.vertex_count)]
    else:
        raise ValueError(f"unknown route {route!r}")
    worst = 0.0
    for x in range(g.vertex_count):
        lap = g.degrees[x] * k_mid[x] - sum(k_mid[y] for y in g.neighbors(x))
        worst = max(worst, abs(dk[x] + lap))
    return worst
