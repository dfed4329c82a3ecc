"""Test-side oracles and references that cross-check the library.

Most are deliberately dumb implementations that share no code with it.
These read library code:
- operator_reading_table is a foil rather than an oracle, built from the
  library's walk matrices and packed double sum;
- adjacency_poly and qxt_poly are A and D - (1-t)I as dense OperatorPoly,
  built from g.edges and g.degrees alone;
- dense_f_powers, the reference for the formula route's f^k entries, and
  commutator_exponent_loop and _dense_commutator_rows, which read it, build
  f from adjacency_poly and qxt_poly and share only the exact kernel with
  the route;
- dense_series_inverse_check, the reference for
  operators.check_series_inverse_identity, which runs by neighbour sums on
  the packed walk rows, multiplies the dense OperatorSeries of cm_sequence's
  matrices by B built from adjacency_poly and qxt_poly;
- useries_no_tail_check, useries_cyclic_bump_check and
  useries_r_generating_check, the references for the three per-root
  identity checks, which run on packed ints at a width taken from the l1
  norms of their inputs, build each display from USeries products of TPoly
  coefficients; they read the library's closed-walk tallies and rooted
  walk records through bzk.operators, so that a test that replaces either
  replaces it for both sides.  Their per-length and defect displays read
  tpoly_cbc_terms and tpoly_r_double_sum, the TPoly references for the
  packed operators.cbc_terms and operators._r_double_sum;
- cm_cbc, the dense cyclic-bump matrix that cbc_terms is checked against,
  reads cm_sequence and r_values;
- heat_residual reads both heat routes, heat_kernel_bessel and
  heat_kernel_spectral, and the cached eigendecomposition;
- formula_exponent, the reference for the formula route's integer exponent,
  and fraction_commutator_exponent, which it reads, sum the same factors in
  Fractions from dense_f_powers and _dense_commutator_rows, with no step
  code of the route, and the route's own rooted walk;
- binomial_power reads USeries.log and USeries.exp;
- fraction_exp, the reference for USeries.exp, runs the same derivative
  recurrence on TPoly coefficient lists of Fractions instead of packed ints;
- ball builds its subgraph with the library's BFS and build_graph;
- bessel_cutoffs_recomputed, the reference for heat._bessel_cutoffs, runs
  the same majorant with every tail recomputed from 1 (exp_tail,
  even_tail), and reads the library's alpha and series_weight;
- walk_matrix_rows, the reference for the grown table of
  heat._walk_matrix_table, builds the rows in one pass over the library's
  dense adjacency;
- bessel_column_per_order, the reference for heat._bessel_column, sums each
  order I_k with its own heat.bessel_i call and each inner[n] by a scalar
  j-loop, on the library's cutoffs, walk table and series weight;
- fraction_charpoly, the reference for zeta.charpoly_exact, runs the same
  trace recursion on dense Fraction matrices, with no scaling.
"""

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache

import bzk.operators
from bzk.graphs import InvalidParameter, _bfs_distances, build_graph
from bzk.heat import (ParameterDomain, _bessel_cutoffs, _walk_matrix_table, bessel_i,
                      heat_kernel_bessel, heat_kernel_spectral, series_weight)
from bzk.operators import IdentityReport, _rooted_walk, alpha, cm_sequence, r_values
from bzk.series import (ONE_MINUS_T, TPOLY_ONE, TPOLY_T, TPOLY_ZERO,
                        BadConstantTerm, OperatorPoly, OperatorSeries, TPoly,
                        USeries, _mul_into)
from bzk.zeta import _common_neighbours, _dense_operators, _eigh_cached



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
    from bzk.operators import RootedWalk, _decoded, _r_double_sum, cm_sequence

    cms = cm_sequence(g, order)
    delta = []
    for c in cms:
        acc = c.entry(x0, x0) * g.degrees[x0]
        for y in g.neighbors(x0):
            acc = acc - c.entry(y, x0)
        delta.append(acc)
    r = _decoded(lambda width, d: _r_double_sum(d, order, width), delta)
    return RootedWalk(diag=tuple(c.entry(x0, x0) for c in cms), delta=tuple(delta),
                      r=tuple(r))


def commutator_matrix(g):
    """K = A D - D A as integer rows, from the dense graph matrices."""
    adjacency, valency, _ = operators(g)
    n = g.vertex_count
    return [
        [adjacency[i][j] * (valency[j][j] - valency[i][i]) for j in range(n)]
        for i in range(n)
    ]


def adjacency_poly(g):
    n = g.vertex_count
    rows = [[TPOLY_ZERO] * n for _ in range(n)]
    for e in g.edges:
        rows[e.origin][e.terminus] = TPOLY_ONE
    return OperatorPoly(rows)


def qxt_poly(g):
    """Valency minus (1-t) on the diagonal."""
    return OperatorPoly.diagonal([TPoly((d - 1, 1)) for d in g.degrees])


def dense_series_inverse_check(g, order):
    """The report of operators.check_series_inverse_identity, by the dense
    product (sum C_m u^m) B of n x n OperatorSeries, with
    B = I - u A + (1-t)(D - (1-t)I) u^2, compared coefficient by coefficient
    with (1-(1-t)^2 u^2) I."""
    if order < 2:
        raise ValueError("order must be >= 2")
    n = g.vertex_count
    ident = OperatorPoly.identity(n)
    b = OperatorSeries(n, order, [ident, -adjacency_poly(g), qxt_poly(g).scale(ONE_MINUS_T)])
    lhs = OperatorSeries(n, order, cm_sequence(g, order)) * b
    rhs = [ident, OperatorPoly.zero(n), ident.scale(-(ONE_MINUS_T * ONE_MINUS_T))]
    rhs += [OperatorPoly.zero(n)] * (order - 2)
    failure = next(({"display": "plain", "u_power": m}
                    for m in range(order + 1) if lhs.coefficient(m) != rhs[m]), None)
    return IdentityReport(identity="walk-series-inverse", graph=g.label, root=None,
                          order=order, passed=failure is None, first_failure=failure)


def _series_from(order, terms, start=1):
    """USeries with coefficient terms[m] at u^m for start <= m < len(terms)."""
    coeffs = [TPOLY_ZERO] * (order + 1)
    for m in range(start, min(len(terms), order + 1)):
        coeffs[m] = terms[m]
    return USeries(order, coeffs)


def _quadratic(order, a):
    """1 - a u^2 as a USeries."""
    return USeries(order, [TPOLY_ONE, TPOLY_ZERO, -a])


def _first_difference(lhs, rhs):
    for m in range(lhs.order + 1):
        if lhs.coefficient(m) != rhs.coefficient(m):
            diff = lhs.coefficient(m) - rhs.coefficient(m)
            return {"u_power": m, "difference": str(diff)}
    return None


def _useries_report(identity, g, root, order, failures):
    return IdentityReport(identity=identity, graph=g.label, root=root, order=order,
                          passed=not failures,
                          first_failure=failures[0] if failures else None)


def tpoly_r_double_sum(delta, order):
    """R_0..R_order at one vertex by the double sum of operators.r_values on
    TPoly, from its defect values delta[k], k <= order - 2: the reference
    for the packed operators._r_double_sum."""
    one_minus_t_sq = ONE_MINUS_T * ONE_MINUS_T
    one_minus_t2 = TPoly((1, 0, -1))
    # a_j = sum_{i=1}^{j} (1-t)^(2(j-i)) (1-t^2)^(i-1)
    a = [TPOLY_ZERO, TPOLY_ONE]
    power = TPOLY_ONE  # (1-t^2)^(j-1)
    for _ in range(2, (order + 1) // 2 + 1):
        power = power * one_minus_t2
        a.append(a[-1] * one_minus_t_sq + power)
    out = [TPOLY_ZERO] * min(order + 1, 3)
    for m in range(3, order + 1):
        acc = TPOLY_ZERO
        for j in range(1, (m + 1) // 2):
            d = delta[m - 2 * j]
            if not d.is_zero():
                acc = acc + a[j] * d
        out.append(acc)
    return out


def tpoly_cbc_terms(c, deg, r=None):
    """The cyclic-bump entries of the packed operators.cbc_terms, on TPoly
    inputs c[m] = C_m(x0, x) and r[m] = R_m(x0), by the same two-step
    recursion for s_m."""
    order = len(c) - 1
    one_minus_t_sq = ONE_MINUS_T * ONE_MINUS_T
    entries = list(c)
    if order >= 2:
        entries[2] = c[2] * TPOLY_T
    s_prev2, s_prev1 = TPOLY_ZERO, TPOLY_ZERO  # s[1], s[2]
    dfac = TPoly((deg - 2, 2))
    valency = ONE_MINUS_T * TPoly((0, deg))  # (1-t)^(m-1) t deg at the last even m
    for m in range(3, order + 1):
        s_m = ONE_MINUS_T * c[m - 2] + one_minus_t_sq * s_prev2
        ent = c[m] - dfac * s_m
        if r is not None:
            ent = ent + ONE_MINUS_T * r[m]
            if m % 2 == 0:
                valency = valency * one_minus_t_sq
                ent = ent - valency
        entries[m] = ent
        s_prev2, s_prev1 = s_prev1, s_m
    return entries


def useries_no_tail_check(g, x0, order):
    """The report of operators.check_no_tail_identity by USeries products of
    TPoly coefficients.  Reads operators._closed_tallies and
    operators._rooted_walk through the module, so a test that replaces
    either replaces it here too."""
    if order < 4:
        raise ValueError("order must be >= 4")
    _, notail = bzk.operators._closed_tallies(g, x0, order)
    walk = bzk.operators._rooted_walk(g, x0, order)
    deg = g.degrees[x0]
    c_terms = walk.diag
    n_series = _series_from(order, notail)
    c_series = _series_from(order, c_terms)
    d_series = _series_from(order, walk.delta)
    one_minus_t2 = TPoly((1, 0, -1))
    one_minus_t_sq = ONE_MINUS_T * ONE_MINUS_T

    failures = []
    lhs = _quadratic(order, one_minus_t_sq) * n_series
    rhs = (
        _quadratic(order, TPoly((deg - 1, 0, 1))) * c_series
        - USeries(order, [TPOLY_ZERO, TPOLY_ZERO, TPoly((0, deg))])
        + _quadratic(order, one_minus_t2).inverse() * d_series.shift(2)
    )
    diff = _first_difference(lhs, rhs)
    if diff:
        failures.append({"display": "series", **diff})

    # even[k] = (1-t)^(2k)
    even = [TPOLY_ONE]
    for _ in range(1, (order + 1) // 2):
        even.append(even[-1] * one_minus_t_sq)
    for m in range(3, order + 1):
        acc = TPOLY_ZERO
        for j in range(1, (m + 1) // 2):
            acc = acc + even[j - 1] * c_terms[m - 2 * j]
        rhs_m = c_terms[m] - TPoly((deg - 2, 2)) * acc + walk.r[m]
        if m % 2 == 0:
            rhs_m = rhs_m - even[m // 2 - 1] * TPoly((0, deg))
        if notail[m] != rhs_m:
            failures.append({"display": "per-length", "u_power": m,
                             "difference": str(notail[m] - rhs_m)})
            break
    return _useries_report("no-tail-series", g, x0, order, failures)


def useries_cyclic_bump_check(g, x0, order):
    """The report of operators.check_cyclic_bump_identity by USeries
    products of TPoly coefficients, its per-length display from
    tpoly_cbc_terms.  Reads operators._closed_tallies and
    operators._rooted_walk through the module."""
    if order < 4:
        raise ValueError("order must be >= 4")
    cbc_all, _ = bzk.operators._closed_tallies(g, x0, order)
    deg = g.degrees[x0]
    walk = bzk.operators._rooted_walk(g, x0, order)
    cbc_series = _series_from(order, cbc_all)
    c_series = _series_from(order, walk.diag)
    d_series = _series_from(order, walk.delta)
    one_minus_t2 = TPoly((1, 0, -1))
    one_minus_t_sq = ONE_MINUS_T * ONE_MINUS_T

    failures = []
    lhs = _quadratic(order, one_minus_t2) * _quadratic(order, one_minus_t_sq) * cbc_series
    bracket = USeries(
        order,
        [
            TPOLY_ONE,
            TPOLY_ZERO,
            -(ONE_MINUS_T * TPoly((deg, 2))),
            TPOLY_ZERO,
            one_minus_t2 * ONE_MINUS_T * TPoly((deg - 1, 1)),
        ],
    )
    rhs = (
        bracket * c_series
        + d_series.shift(2) * ONE_MINUS_T
        - _quadratic(order, one_minus_t2) * USeries(
            order, [TPOLY_ZERO, TPOLY_ZERO, TPoly((0, deg)) * ONE_MINUS_T]
        )
    )
    diff = _first_difference(lhs, rhs)
    if diff:
        failures.append({"display": "series", **diff})

    terms = tpoly_cbc_terms(walk.diag, deg, walk.r)
    for m in range(3, order + 1):
        if cbc_all[m] != terms[m]:
            failures.append({"display": "per-length", "u_power": m,
                             "difference": str(cbc_all[m] - terms[m])})
            break
    return _useries_report("cyclic-bump-series", g, x0, order, failures)


def useries_r_generating_check(g, x0, order):
    """The report of operators.check_r_generating_identity by USeries
    products of TPoly coefficients, its left side from tpoly_r_double_sum.
    Reads operators._rooted_walk through the module."""
    if order < 3:
        raise ValueError("order must be >= 3")
    delta = bzk.operators._rooted_walk(g, x0, order).delta
    r_series = _series_from(order, tpoly_r_double_sum(delta, order))
    d_series = _series_from(order, delta)
    one_minus_t2 = TPoly((1, 0, -1))
    rhs = (
        _quadratic(order, ONE_MINUS_T * ONE_MINUS_T).inverse()
        * _quadratic(order, one_minus_t2).inverse()
        * d_series.shift(2)
    )
    failures = []
    diff = _first_difference(r_series, rhs)
    if diff:
        failures.append({"display": "series", **diff})
    return _useries_report("defect-generating-function", g, x0, order, failures)


@lru_cache(maxsize=4)
def dense_f_powers(g, order):
    """The powers f^0..f^order of the formula route's operator
    f(u) = u A - u^2 (1-t)(D - (1-t)I), as dense OperatorSeries truncated at
    u^order, from adjacency_poly and qxt_poly alone."""
    n = g.vertex_count
    f = OperatorSeries(
        n, order,
        [OperatorPoly.zero(n), adjacency_poly(g), -(qxt_poly(g).scale(ONE_MINUS_T))],
    )
    powers = [OperatorSeries.identity(n, order)]
    for _ in range(order):
        powers.append(f * powers[-1])
    return tuple(powers)


def commutator_exponent_loop(g, x0, x, order, powers):
    """The commutator integral's exponent coefficients (index = u-power) by
    the direct double sum over (a, b):
    int_0^u (1-t) s^2 sum_{a,b} (b+1)/(a+b+2) [f^a K f^b](x0, x) s^(a+b) ds.
    f^a(x0, .) and f^b(., x) are read from powers = dense_f_powers(g, N) for
    any N >= order, truncated at u^(order-3): the coefficients of the
    integral do not depend on the order it is cut at."""
    exponent = [TPOLY_ZERO] * (order + 1)
    commutator = [[(q, kpq) for q, kpq in enumerate(row) if kpq]
                  for row in commutator_matrix(g)]
    if not any(commutator):
        return exponent
    n = g.vertex_count
    top = order - 3  # integrating the u^2 shift lifts power s to s + 3

    def coefficients(k, i, j):
        # u^0..u^top of f^k(i, j)
        return [powers[k].c[m].rows[i][j] for m in range(top + 1)]

    left_rows = [[coefficients(a, x0, p) for p in range(n)] for a in range(top + 1)]
    integrand = [TPOLY_ZERO] * (top + 1)
    for b in range(top + 1):
        column = [coefficients(b, q, x) for q in range(n)]
        # [K f^b](p, x) for every p, by u-power
        kf = []
        for terms in commutator:
            acc = [TPOLY_ZERO] * (top + 1)
            for q, kpq in terms:
                acc = [s + c * kpq for s, c in zip(acc, column[q])]
            kf.append(acc)
        for a in range(top - b + 1):
            total = [TPOLY_ZERO] * (top + 1)
            for left, right in zip(left_rows[a], kf):
                for i in range(a, top + 1):
                    if left[i].is_zero():
                        continue
                    for l in range(b, top + 1 - i):
                        if not right[l].is_zero():
                            total[i + l] = total[i + l] + left[i] * right[l]
            weight = Fraction(b + 1, a + b + 2)
            integrand = [s + c * weight for s, c in zip(integrand, total)]
    for s in range(top + 1):
        exponent[s + 3] = integrand[s] * ONE_MINUS_T * Fraction(1, s + 3)
    return exponent


@lru_cache(maxsize=4)
def _dense_commutator_rows(g, x0, order):
    """Row x0 of M_T = sum_{a+b=T} f^a D f^b for T = 0..order-2, each entry
    a list of TPoly by u-power 0..order-2, by M_0 = D and
    M_T = M_(T-1) f + f^T D: the product with f is a dense row-times-matrix
    product over the nonzero entries of f, and f^T D reads row x0 of f^T;
    both come from dense_f_powers(g, order)."""
    powers = dense_f_powers(g, order)
    n = g.vertex_count
    d = g.degrees
    top = order - 2
    nonzero = [(i, j, m, mat.rows[i][j]) for m, mat in enumerate(powers[1].c)
               for i in range(n) for j in range(n) if not mat.rows[i][j].is_zero()]
    row = [[TPOLY_ZERO] * (top + 1) for _ in range(n)]
    row[x0][0] = TPoly((d[x0],))
    rows = [row]
    for T in range(1, top + 1):
        nxt = [[powers[T].c[m].rows[x0][j] * d[j] for m in range(top + 1)] for j in range(n)]
        for i, j, shift, w in nonzero:
            for m in range(shift, top + 1):
                if not row[i][m - shift].is_zero():
                    nxt[j][m] = nxt[j][m] + row[i][m - shift] * w
        row = nxt
        rows.append(row)
    return tuple(rows)


def fraction_commutator_exponent(g, x0, x, order):
    """The commutator term's exponent coefficients by u-power, in Fractions,
    through the identity sum_{a+b=S} (b+1) f^a K f^b
    = (M_(S+1) - (S+2) D f^(S+1)) / u on the dense rows of
    _dense_commutator_rows and dense_f_powers: u^(T+p) of
    (M_T - (T+1) d_x0 f^T)(x0, x) / (T+1) is u^(T-1+p) of the integrand,
    which integrating lifts to u^(T+p+2) times (1-t)/(T+p+2).
    commutator_exponent_loop sums the same integral over (a, b) directly."""
    exponent = [TPOLY_ZERO] * (order + 1)
    if order < 3:
        return exponent
    powers = dense_f_powers(g, order)
    rows = _dense_commutator_rows(g, x0, order)
    deg = g.degrees[x0]
    for T in range(1, order - 1):
        for m in range(T, order - 1):
            c = rows[T][x][m] - powers[T].c[m].rows[x0][x] * ((T + 1) * deg)
            exponent[m + 2] = exponent[m + 2] + c * ONE_MINUS_T * Fraction(1, (T + 1) * (m + 2))
    return exponent


def formula_exponent(g, x0, x, order):
    """The formula route's exponent series a_0..a_order as TPolys of
    Fractions, summed factor by factor: the matrix log sum_k f^k(x0, x)/k
    from dense_f_powers, and on the diagonal the prefactor's log
    (deg-2)/2 sum_k (1-t)^(2k) u^(2k)/k and the defect series
    (1-t) R_m / m from the library's rooted walk, off it the length-2
    correction -(1-t) common/2 u^2, and the commutator integral of
    fraction_commutator_exponent on graphs that are not regular.  Each
    coefficient a_m is the same at every order >= m."""
    powers = dense_f_powers(g, order)
    exponent = [TPOLY_ZERO] * (order + 1)
    for k in range(1, order + 1):
        for m in range(k, order + 1):
            exponent[m] = exponent[m] + powers[k].c[m].rows[x0][x] * Fraction(1, k)
    if x == x0:
        half = Fraction(g.degrees[x0] - 2, 2)
        square = ONE_MINUS_T * ONE_MINUS_T
        power = TPOLY_ONE
        for k in range(1, order // 2 + 1):
            power = power * square
            exponent[2 * k] = exponent[2 * k] + power * (half / k)
        r = _rooted_walk(g, x0, order).r
        for m in range(3, order + 1):
            exponent[m] = exponent[m] + ONE_MINUS_T * r[m] * Fraction(1, m)
    elif order >= 2:
        common = _common_neighbours(g, x0, x)
        exponent[2] = exponent[2] - ONE_MINUS_T * Fraction(common, 2)
    if g.regular_degree() is None:
        exponent = [a + b for a, b in
                    zip(exponent, fraction_commutator_exponent(g, x0, x, order))]
    return exponent


def binomial_power(s, exponent):
    """(constant-term-1 series) ** exponent for rational exponents, as
    exp(exponent * log s)."""
    if not isinstance(s, USeries):
        raise TypeError("binomial_power expects a scalar USeries")
    return (s.log() * Fraction(exponent)).exp()


def fraction_exp(s):
    """exp of a series with constant term 0, by the derivative recurrence
    n b_n = sum_{k=1}^{n} k a_k b_(n-k), from b' = a' b, on Fractions:
    O(order^2) coefficient products and one division per term.  This was
    USeries.exp before it ran on packed ints."""
    if not s.c[0].is_zero():
        raise BadConstantTerm("exp needs constant term 0")
    da = s.derivative().c  # da[k-1] = k a_k
    out = [TPOLY_ONE]
    for n in range(1, s.order + 1):
        acc = []
        for k in range(1, n + 1):
            a, b = da[k - 1].c, out[n - k].c
            if a and b:
                _mul_into(acc, a, b)
        out.append(TPoly(acc) * Fraction(1, n))
    return USeries(s.order, out)


def series_from_scaled(order, scaled, scale):
    """The series sum_k a_k u^k, as a USeries of Fractions, from the raw int
    lists scaled[k] = scale k a_k that the routes hand to
    series._exp_from_scaled."""
    return USeries(order, [TPoly(p) * Fraction(1, k * scale) if k else TPOLY_ZERO
                           for k, p in enumerate(scaled)])


def exp_tail(x, n_from):
    """Upper bound on sum_{k >= n_from} x^k / k!, x^n / n! recomputed from 1."""
    if n_from <= 0:
        return math.exp(x)
    term = 1.0
    for k in range(1, n_from + 1):
        term *= x / k
    if x < n_from + 1:
        return term / (1.0 - x / (n_from + 1))
    return term * math.exp(x)


def even_tail(x, j_from):
    """Upper bound on sum_{j >= j_from} x^(2j) / (2j)!, recomputed from 1."""
    if j_from <= 0:
        return math.cosh(x)
    term = 1.0
    for k in range(1, 2 * j_from + 1):
        term *= x / k
    ratio = x * x / ((2 * j_from + 1) * (2 * j_from + 2))
    if ratio < 1.0:
        return term / (1.0 - ratio)
    return term * math.cosh(x)


def bessel_cutoffs_recomputed(g, tau, t, tol):
    """(n_max, j_max, tail) of heat._bessel_cutoffs by the loops that
    _bessel_column ran before the cutoffs had a helper of their own: every
    candidate cutoff recomputes its tail from 1 with exp_tail or even_tail,
    at O(cutoff) products each.  ParameterDomain where the helper raises it."""
    q = g.regular_degree() - 1
    c = (1.0 - t) * (q + t)
    arg = 2.0 * math.sqrt(c) * tau
    a = alpha(g, abs(t))
    b = abs(1.0 - t)
    m_t = max(1.0, abs(series_weight(1, q, t)))
    pref = math.exp(arg - (q + 1.0) * tau)
    budget = (tol - tol * 1e-2) / 2.0
    try:
        n_max = 1
        while m_t * pref * math.cosh(b * tau) * exp_tail(a * tau, n_max + 1) > budget:
            n_max += 1
            if n_max > 600:
                raise ParameterDomain("truncation bound did not converge")
        j_max = 1
        while m_t * pref * math.exp(a * tau) * even_tail(b * tau, j_max + 1) > budget:
            j_max += 1
            if j_max > 600:
                raise ParameterDomain("truncation bound did not converge")
        tail = (
            m_t * pref * math.cosh(b * tau) * exp_tail(a * tau, n_max + 1)
            + m_t * pref * math.exp(a * tau) * even_tail(b * tau, j_max + 1)
        )
    except OverflowError as exc:
        raise ParameterDomain("truncation bound did not converge") from exc
    return n_max, j_max, tail


def walk_matrix_rows(g, t, count, x0):
    """Row x0 of the float walk matrices C_0..C_count at numeric t, built in
    one pass by the recursion C_m = C_(m-1) A - w_m C_(m-2), with
    w_2 = (1-t)(q+1) and w_m = (1-t)(q+t) after it."""
    import numpy as np

    a, _ = _dense_operators(g)
    q = g.regular_degree() - 1
    rows = [np.zeros(g.vertex_count), a[x0].copy()]
    rows[0][x0] = 1.0
    weight = (1.0 - t) * (q + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2, count + 1):
            rows.append(rows[-1] @ a - weight * rows[-2])
            weight = (1.0 - t) * (q + t)
    return rows[: count + 1]


def bessel_column_per_order(g, x0, tau, t, tol):
    """(n_max, j_max, tail, values) of heat._bessel_column as the column
    was first written: every order k reads its own bessel_i, which builds
    (tau/2)^k / k! from 1, and inner[n] is a scalar sum over j, so each
    value sees the same float operations, in the same order, as the
    library's one pass over the orders and its vector j-sum."""
    import numpy as np

    q = g.regular_degree() - 1
    c = (1.0 - t) * (q + t)
    root_c = math.sqrt(c)
    arg = 2.0 * root_c * tau
    d1 = series_weight(1, q, t)
    bessel_share = tol * 1e-2
    n_max, j_max, tail = _bessel_cutoffs(g, tau, t, tol)

    rows, peaks = _walk_matrix_table(g, t, x0).upto(n_max)
    one_minus_t_sq = (1.0 - t) ** 2
    w = np.zeros(2 * j_max + 1)
    w[0] = 1.0
    w[2::2] = abs(d1) * one_minus_t_sq ** np.arange(1, j_max + 1)
    mult = np.convolve(peaks, w).tolist()
    top = n_max + 2 * j_max
    share = bessel_share / (top + 1)
    scaled = []
    damp = math.exp(-(q + 1.0) * tau)
    try:
        for k in range(top + 1):
            if mult[k] == 0.0:
                scaled.append(0.0)
                continue
            weight = root_c ** (-k) * damp * mult[k]
            k_tol = share / weight if weight > 0.0 else 0.0
            if not 0.0 < k_tol < math.inf:
                raise ParameterDomain("Bessel multiplier outside the float range")
            ev = bessel_i(k, arg, tol=k_tol)
            scaled.append(root_c ** (-k) * ev.value * damp)
            tail += weight * ev.tail_bound
    except OverflowError as exc:
        raise ParameterDomain("Bessel multiplier outside the float range") from exc
    values = np.zeros(g.vertex_count)
    for n, row in enumerate(rows):
        inner = scaled[n]
        power = 1.0
        for j in range(1, j_max + 1):
            power *= one_minus_t_sq
            inner += d1 * power * scaled[n + 2 * j]
        values = values + row * inner
    return n_max, j_max, tail, values


def fraction_charpoly(mat):
    """Monic characteristic polynomial det(lambda I - M), ascending
    Fraction coefficients, by the trace recursion on Fraction matrices."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    coeff = [Fraction(0)] * (n + 1)
    coeff[n] = Fraction(1)
    m = [row[:] for row in a]
    coeff[n - 1] = -sum(m[i][i] for i in range(n))
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += coeff[n - k + 1]
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        coeff[n - k] = -sum(m[i][i] for i in range(n)) / k
    return coeff


def distances_from(g, x0):
    """BFS distances from x0 (graphs here are connected, so all finite)."""
    neighbors = [g.neighbors(v) for v in range(g.vertex_count)]
    return _bfs_distances(neighbors, (x0,), g.vertex_count)


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
    closed walks.  The library computes entries by cbc_terms, packed; this
    literal matrix form is their reference.
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
