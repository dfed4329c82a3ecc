"""Independent test-side oracles: deliberately dumb implementations used to
cross-check the library, sharing no code with it.  Two exceptions:
operator_reading_table is a foil rather than an oracle, and
commutator_exponent_loop reads the library's f^k table."""

from collections import deque
from fractions import Fraction


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
