"""Rooted Bartholdi zeta function by independent routes.

Routes: exponential of the cyclic-bump log-series, the closed product
formula, the spectral form for regular graphs, and the Euler product over
primitive rooted closed walks.  The first, second and fourth are exact
truncated series; the third is numeric and comes with a reported truncation
bound.  numpy is imported inside the numeric functions, on their first call,
so the exact routes run without loading it.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .graphs import _check_vertex
from .operators import (_adjacency_rows, _closed_tallies, _cone, _decoded, _f_digits, _f_weight,
                        _norm_width, _pick, _placed, _r_recursion, _regular_walk, _rooted_walk,
                        _walk_rows, _weight, alpha, cbc_terms)
from .records import Record
from .series import (ONE_MINUS_T, TPOLY_ZERO, TPoly, _balanced, _digit_width, _digits,
                     _exp_from_scaled, _pack, _packed_width, _unpack, _walk_norms)


class DomainError(ValueError):
    """Numeric parameters outside the guaranteed region."""


class NotRegular(ValueError):
    """A regular-graph-only route was asked of a non-regular graph."""


class EigensolverFailure(RuntimeError):
    """Numeric eigenvalues failed the exact cross-check."""


# ---------------------------------------------------------------------------
# log-series route


def cbc_entries(g, x0, x, order):
    """Cyclic-bump operator entries (x0, x) for every length m <= order.

    Same values as cm_cbc(g, m)[x0, x], the dense test reference in
    tests/_oracles.py, from operators.cbc_terms.  The rooted entries
    (x = x0) are _rooted_entries, decoded.  Off the diagonal they read
    C_m(x0, x) from a pass over x0 alone with target x, which steps only
    its light cone (operators._cone): of operators._walk_rows, whose packed
    rows are the entries themselves, or on a regular graph
    operators._regular_walk of the counts of operators._adjacency_rows;
    cbc_terms runs on them at the width that its run on l1 norms gives
    (operators._decoded), and each entry is decoded once.
    """
    _check_vertex(g, x0)
    _check_vertex(g, x)
    if x == x0:
        width, entries = _rooted_entries(g, x0, order)
        return [_unpack(v, width) for v in entries]
    width = _packed_width(g.max_degree, order)
    if g.regular_degree() is None:
        packed = [row[x] for row in _walk_rows(g, (x0,), order, (x,))]
    else:
        packed = _regular_walk([row[x] for row in _adjacency_rows(g, (x0,), order, (x,))],
                               g.degrees[x0], width)
    deg = g.degrees[x0]
    return _decoded(lambda width, c: cbc_terms(c, deg, width),
                    [_unpack(v, width) for v in packed])


def _rooted_entries(g, x0, order):
    """(width, entries): the rooted cyclic-bump entries (x0, x0) for every
    length m <= order, packed, by operators.cbc_terms on the root's
    RootedWalk, C_m(x0, x0) and R_m(x0), at the record's own width, which
    series._packed_width bounds every such entry by."""
    walk = _rooted_walk(g, x0, order)
    return walk.width, cbc_terms(walk.packed_diag, g.degrees[x0], walk.width, walk.packed_r)


def zeta_log_coefficients(g, x0, x, order):
    """Coefficients of log Z: entry_m / m for m >= 1 (index 0 unused)."""
    ent = cbc_entries(g, x0, x, order)
    return [TPOLY_ZERO] + [ent[m] * Fraction(1, m) for m in range(1, order + 1)]


def zeta_log_series(g, x0, x, order):
    """exp of the cyclic-bump log-series, truncated at the given order.

    m (entry_m / m) is entry_m, so the exponent reaches the exp recurrence
    as the integer entries at scale 1.  On the diagonal the packed entries
    of _rooted_entries are decoded once, straight into the raw lists that
    the recurrence takes."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_vertex(g, x0)
    _check_vertex(g, x)
    if x == x0:
        width, entries = _rooted_entries(g, x0, order)
        exponent = [_digits(v, width) for v in entries[1:]]
    else:
        exponent = [p.c for p in cbc_entries(g, x0, x, order)[1:]]
    return _exp_from_scaled(order, [()] + exponent, 1)


# ---------------------------------------------------------------------------
# closed product-formula route


def _f_step(g, width, shift):
    """step(prev, digits, plus=None, live=None) = prev f for the formula route's
    f = u A - u^2 (1-t)(D - (1-t)I) = u A - s (D - 1 + t), s = (1-t) u^2, on
    rows of packed ints: entry j of a row v at u^k is sum_p Q_p(j) 2^(p shift),
    with Q_p(j) the u^(k+p) coefficient of v(j) over (1-t)^p, packed at width
    (series._pack).  Each u^2 of f carries one (1-t), so digit p of (v f)(j),
    at u^(k+1), is sum_{i ~ j} Q_p(i) - (d_j - 1 + t) Q_(p-1)(j): one
    neighbour sum, one weight product and one shift per entry.

    With plus, a row at u^(k+1) in the same layout, each entry j also gets
    d_j plus(j), the f^T D of the commutator rows.  digits, when not None,
    keeps the lowest `digits` u-powers of each nonzero entry, by one balanced
    residue mod 2^(digits shift); the kept digits are balanced base-2^shift
    digits (see _f_power_table), so they sum to a value inside the residue's
    range, whatever the digits above them hold.  live, when not None, is a
    step of operators._cone: only its entries are computed, the rest are 0."""
    n = g.vertex_count
    nbrs = [g.neighbors(j) for j in range(n)]
    weights = [-_pack(_f_weight(d), width) for d in g.degrees]
    degrees = g.degrees

    def step(prev, digits, plus=None, live=None):
        get = prev.__getitem__
        columns = (_pick(live, nbrs), _pick(live, weights), _pick(live, prev))
        if plus is None:
            cur = [sum(map(get, nb)) + ((w * v) << shift) for nb, w, v in zip(*columns)]
        else:
            cur = [sum(map(get, nb)) + ((w * v) << shift) + d * p
                   for nb, w, v, d, p in zip(*columns, _pick(live, degrees), _pick(live, plus))]
        if digits is not None:
            bits = digits * shift
            cur = [_balanced(v, bits) if v else 0 for v in cur]
        return _placed(live, n, cur)

    return step


def _cut(k, top):
    """The u-power digits that a row at u^k keeps when its powers stop at
    u^top: all of them (None) while 2k <= top, whose k + 1 digits all fit,
    and top - k + 1 on the shrinking half."""
    return top - k + 1 if 2 * k > top else None


@lru_cache(maxsize=32)
def _f_power_table(g, x0, x, order):
    """The target entries of row x0 of the formula route's f-powers and of
    its commutator rows, by one streamed pass: (powers, integrand), with
    powers[k] the entry f^k(x0, x) for k = 0..order and integrand[T-1] the
    entry (M_T - (T+1) d_x0 f^T)(x0, x) for T = 1..order-2 (see
    _commutator_exponent).  Each entry is a tuple of digits, digit p the raw
    t-coefficients of Q_p, its u^(k+p) (u^(T+p)) coefficient over (1-t)^p,
    for p <= min(k, order - k) (p <= min(T, order - 2 - T)); no entry ends
    in an empty digit.  The formula route reads it on graphs that are not
    regular; on a regular graph _regular_exponent takes the f-powers from
    adjacency counts, and K = A D - D A is zero.

    Row x0 of f^k steps from the unit at x0, and row x0 of
    M_T = M_(T-1) f + f^T D from M_0 = D in lockstep with it (_f_step), at
    W = _packed_width(max degree, order) and U = _digit_width(W, order // 2);
    only entry x of each is decoded, and no row is kept past the next step.
    Each steps its light cone from x0 to x (operators._cone), to horizon
    order for the f-powers and order - 2 for the commutator rows.
    Q_p has t-degree at most p <= order // 2 and, by _packed_width's bound,
    coefficients below 2^(W-1), so it is a balanced base-2^U digit that
    series._digits reads.  Digit p of a step reads digits p and p - 1 of the
    row before it, so a row is cut only on its shrinking half (_cut), and
    the digits it keeps stay exact."""
    width = _packed_width(g.max_degree, order)
    d = g.degrees

    def trimmed(entry):
        while entry and not entry[-1]:
            entry = entry[:-1]
        return tuple(entry)

    def decoded(digits):
        return trimmed([tuple(_digits(q, width)) for q in digits])

    n = g.vertex_count
    nbrs = [g.neighbors(j) for j in range(n)]
    power_cone = _cone(nbrs, (x0,), (x,), order)
    row_cone = _cone(nbrs, (x0,), (x,), order - 2)
    shift = _digit_width(width, order // 2)
    step = _f_step(g, width, shift)
    power = [0] * n
    power[x0] = 1
    rows = [0] * n
    rows[x0] = d[x0]
    powers, integrand = [decoded(_digits(power[x], shift)[:1])], []
    for k in range(1, order + 1):
        power = step(power, _cut(k, order), live=power_cone[k])
        powers.append(decoded(_digits(power[x], shift)[:min(k, order - k) + 1]))
        if k <= order - 2:
            rows = step(rows, _cut(k, order - 2), power, row_cone[k])
            integrand.append(decoded(_digits(rows[x] - (k + 1) * d[x0] * power[x], shift)
                                     [:min(k, order - 2 - k) + 1]))
    return tuple(powers), tuple(integrand)


def _restored(order, terms):
    """Raw int lists s_0..s_order, with s_m the sum of share (1-t)^q Q over
    the terms (m, q, share, Q), q <= m and Q a raw int coefficient sequence, by the
    two runs of operators._decoded.  On l1 norms, |share| |Q|_1 is summed
    per (m, q) and |1-t|_1 = 2 restored, and the largest total bounds every
    |s_m|_1, which gives the width (operators._norm_width).  Packed at that
    width, the shares are summed per (m, q), the powers of 1 - t restored
    once per m by Horner's rule, from the highest q down, and each s_m
    decoded once."""
    terms = list(terms)
    norms = _summed_by_power(order, ((m, q, abs(share) * sum(map(abs, coeffs)))
                                     for m, q, share, coeffs in terms), 2)
    width = _norm_width(max(norms))
    packed = _summed_by_power(order, ((m, q, share * _pack(coeffs, width))
                                      for m, q, share, coeffs in terms), _pack((1, -1), width))
    return [_digits(v, width) for v in packed]


def _summed_by_power(order, terms, one_minus_t):
    """sum_q (sum of the values at (m, q)) one_minus_t^q for m = 0..order,
    from the terms (m, q, value), q <= m, by Horner's rule."""
    by_power = [[0] * (m + 1) for m in range(order + 1)]
    for m, q, value in terms:
        by_power[m][q] += value
    out = []
    for slots in by_power:
        acc = 0
        for v in reversed(slots):
            acc = acc * one_minus_t + v
        out.append(acc)
    return out


def _log_terms(powers, scale):
    """The matrix-log factor's terms for _restored:
    -[log(I - f)](x0, x) = sum_k f^k(x0, x) / k, so digit p of f^k, at
    u^m with m = k + p, adds scale m / k times (1-t)^p Q_p to scale m a_m."""
    return ((k + p, p, scale * (k + p) // k, q)
            for k, entry in enumerate(powers) if k for p, q in enumerate(entry))


def _commutator_exponent(integrand, scale):
    """The commutator term's terms for _restored, from the integrand entries
    of _f_power_table: its share of scale m a_m for the coefficients a_m of
    int_0^u (1-t) s^2 sum_{a,b} (b+1)/(a+b+2) [f^a K f^b](x0, x) s^(a+b) ds
    with K = A D - D A.  scale must be a multiple of 1, ..., order - 1.

    f D - D f = u K, so sum_{a+b=S} (b+1) f^a K f^b = (M_(S+1) - (S+2) D f^(S+1)) / u
    with M_T = sum_{a+b=T} f^a D f^b.  Digit p of the T-th integrand entry is
    at u^(T+p) of M_T - (T+1) d_x0 f^T, so u^(T-1+p) of the S = T - 1 term,
    and it is added times scale/(T+1).  Integrating lifts the u^s of the
    integrand to u^(s+3) with a factor (1-t)/(s+3), whose 1/(s+3) the
    m = s+3 of m a_m cancels: digit p adds scale/(T+1) (1-t)^(p+1) Q_p at
    u^(T+p+2)."""
    return ((T + p + 2, p + 1, scale // (T + 1), q)
            for T, entry in enumerate(integrand, start=1) for p, q in enumerate(entry))


def _common_neighbours(g, x, y):
    """Number of common neighbours of x and y, which is C_2(x, y) for x != y:
    a length-2 walk bumps only when it returns to its start."""
    return len(set(g.neighbors(x)).intersection(g.neighbors(y)))


def _formula_exponent(g, x0, x, order):
    """(scaled, scale) for the formula route's exponent series a: the logs
    of the prefactor, the matrix-log factor, the commutator integral, the
    length-2 correction and the defect series, summed as
    scaled[m] = scale m a_m, raw int lists, at scale = lcm(1, ..., order),
    which every denominator below divides.  On a regular graph they are
    _regular_exponent.  On other graphs each is a stream of terms
    (m, q, share, Q) that _restored sums, and the matrix log and the
    commutator integral read the target entries of _f_power_table."""
    scale = math.lcm(*range(1, order + 1))
    if g.regular_degree() is not None:
        return _regular_exponent(g, x0, x, order, scale), scale
    powers, integrand = _f_power_table(g, x0, x, order)
    terms = [_log_terms(powers, scale), _commutator_exponent(integrand, scale)]
    if x == x0:
        # log (1-(1-t)^2 u^2)^(-(deg-2)/2) = (deg-2)/2 sum_k (1-t)^(2k) u^(2k) / k,
        # so m a_m at m = 2k is (deg-2) (1-t)^(2k); the prefactor is 1 off
        # the diagonal
        share = scale * (g.degrees[x0] - 2)
        terms.append((2 * k, 0, share, [(-1) ** i * math.comb(2 * k, i) for i in range(2 * k + 1)])
                     for k in range(1, order // 2 + 1))
        # sum_{m>=3} (1-t) R_m(x0) / m u^m; the defect operator is diagonal
        r = _rooted_walk(g, x0, order).r
        terms.append((m, 1, scale, r[m].c) for m in range(3, order + 1))
    elif order >= 2:
        # [t D - C_2](x0, x) (1-t) u^2 / 2; C_2(x, x) = t deg(x), so only the
        # off-diagonal -A^2(x0, x) survives
        terms.append([(2, 1, -scale * _common_neighbours(g, x0, x), (1,))])
    return _restored(order, chain.from_iterable(terms)), scale


def _regular_sum(counts, deg, order, scale, width, defect=None, common=0):
    """scale m a_m for m = 0..order, the formula route's exponent on a
    deg-regular graph, packed at width (series._pack), from the counts
    counts[i] = A^i(x0, x) and, on the diagonal (defect not None), the
    packed defect values defect[m] = [DC_m](x0), or off it the number of
    common neighbours of x0 and x.  With width None the inputs are bounds
    of their l1 norms and the outputs bound the outputs' norms: every sign
    is folded into a weight, as in operators._decoded.  The five logs of
    _formula_exponent, at the same scale:
    - the matrix log: digit p of f^k(x0, x) is
      C(k, p) A^(k-p)(x0, x) (-(d - 1 + t))^p (operators._f_digits), at
      u^(k+p) with (1-t)^p, so it adds scale (k+p)/k times
      C(k, p) A^(k-p)(x0, x) (-(1-t)(d - 1 + t))^p to scaled[k+p];
    - the commutator integral is zero, as K = A D - D A is;
    - on the diagonal the prefactor, (deg - 2) (1-t)^(2k) at m = 2k, and the
      defect term (1-t) R_m at m >= 3, R_m by operators._r_recursion;
    - off it the length-2 correction, -common (1-t) at m = 2."""
    one_minus_t = _weight((1, -1), width)
    minus_weight = _weight((-TPoly(_f_weight(deg)) * ONE_MINUS_T).c, width)
    powers = [1]
    for _ in range(order // 2):
        powers.append(powers[-1] * minus_weight)
    out = [0] * (order + 1)
    for k, factors in enumerate(_f_digits(counts)):
        if k:
            for p, s in enumerate(factors):
                out[k + p] += scale * (k + p) // k * s * powers[p]
    if defect is not None:
        share, square = _weight((scale * (deg - 2),), width), _weight((1, -2, 1), width)
        for m in range(2, order + 1, 2):
            share *= square
            out[m] += share
        r = _r_recursion(defect, order, width)
        for m in range(3, order + 1):
            out[m] += scale * one_minus_t * r[m]
    elif order >= 2:
        out[2] += _weight((-scale * common, scale * common), width)
    return out


@lru_cache(maxsize=64)
def _regular_width(degree, order):
    """The width at which _regular_exponent sums on a degree-regular graph
    through order: 2^(width-1) exceeds the largest output of _regular_sum
    run with width None on bounds of its inputs' l1 norms, so that every
    scale m a_m decodes.  With D = max(degree, 2) the bounds are
    A^i(x0, x) <= D^i, a row of A^i summing to degree^i;
    |[DC_m](x0)|_1 <= 2D N_m, as series._packed_width derives it; and at
    most D common neighbours.  Both the diagonal and the off-diagonal sums
    are bounded."""
    big_d = max(degree, 2)
    scale = math.lcm(*range(1, order + 1))
    counts = [big_d ** i for i in range(order + 1)]
    defect = [2 * big_d * n for n in _walk_norms(big_d, order)]
    return _norm_width(max(chain(_regular_sum(counts, degree, order, scale, None, defect),
                                 _regular_sum(counts, degree, order, scale, None, common=big_d))))


def _regular_exponent(g, x0, x, order, scale):
    """scale m a_m for m = 0..order on a regular graph, scale =
    lcm(1, ..., order): _regular_sum, packed at _regular_width and decoded
    once into raw int lists.  On the diagonal it reads the counts of the
    root's RootedWalk, its own A^i(x0, x0) and its defect's, which
    operators._regular_walk turns into the packed defect at this width; off
    it the counts of a pass of operators._adjacency_rows over x0 with
    target x.  No f-power is stepped and no digit tuple is built."""
    deg = g.degrees[x0]
    width = _regular_width(deg, order)
    if x == x0:
        own, defect = _rooted_walk(g, x0, order).counts
        packed = _regular_sum(own, deg, order, scale, width, _regular_walk(defect, deg, width))
    else:
        counts = [row[x] for row in _adjacency_rows(g, (x0,), order, (x,))]
        packed = _regular_sum(counts, deg, order, scale, width,
                              common=_common_neighbours(g, x0, x))
    return [_digits(v, width) for v in packed]


def zeta_formula_series(g, x0, x, order):
    """Closed-formula route: the logs of its five factors, summed into one
    exponent series in integers by _formula_exponent and exponentiated once
    by series._exp_from_scaled, which reduces lcm(1, ..., order) to the
    smallest scale before its recurrence.  The walk recursions are decoded
    once, into raw digits, and no Fraction appears before exp's final
    division."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_vertex(g, x0)
    _check_vertex(g, x)
    return _exp_from_scaled(order, *_formula_exponent(g, x0, x, order))


# ---------------------------------------------------------------------------
# Euler product route


def euler_product_series(g, x0, order):
    """Product over primitive rooted closed walks of length <= order of
    (1 - t^cbc u^len)^(-1/len), truncated.

    Every closed walk at x0 is P^k for exactly one primitive P, and
    cbc(P^k) = k cbc(P), so the log of the product is sum_m cbc_all[m] u^m / m
    over all closed walks at x0: the edge-transfer tally that the identity
    checks share through operators._closed_tallies, which stops at its cap.
    paths.primitive_rooted_closed_paths enumerates the primitive walks
    themselves and is this route's test reference.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_vertex(g, x0)
    cbc_all, _ = _closed_tallies(g, x0, order)
    # m (cbc_all[m] / m) is the integer tally, so the scale is 1
    return _exp_from_scaled(order, [()] + [p.c for p in cbc_all[1:]], 1)


# ---------------------------------------------------------------------------
# exact eigenvalue machinery (characteristic polynomial cross-check)


def charpoly_exact(mat):
    """Monic characteristic polynomial det(lambda I - M) of a square matrix
    of ints, Fractions or floats, as ascending Fraction coefficients.

    The trace recursion (Faddeev-LeVerrier) runs on B = D M, an int matrix,
    with D the lcm of the entries' denominators: from M_0 = I, for k = 1..n,
    P = B M_(k-1), c_(n-k) = -tr(P) / k and M_k = P + c_(n-k) I.  Each
    product reads the nonzero entries of each row of B, d + 1 of them on a
    Laplacian of degree d.  B's coefficients are ints, so every division by
    k is exact, and a remainder raises ArithmeticError.  det(lambda I - B)
    = D^n det(lambda/D I - M), so M's coefficient c_i is B's over D^(n-i).
    """
    n = len(mat)
    entries = [[Fraction(x) for x in row] for row in mat]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    nonzero = [[(j, x.numerator * (scale // x.denominator)) for j, x in enumerate(row) if x]
               for row in entries]
    coeff = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        product = []
        for row in nonzero:
            acc = [0] * n
            for j, b in row:
                acc = [s + b * x for s, x in zip(acc, m[j])]
            product.append(acc)
        c, rem = divmod(-sum(product[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"trace recursion: step {k} does not divide exactly")
        coeff[n - k] = c
        for i in range(n):
            product[i][i] += c
        m = product
    return [Fraction(c, scale ** (n - i)) for i, c in enumerate(coeff)]


def _gcd(a, b):
    """Monic greatest common divisor of two TPoly."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


def _squarefree_decomposition(p):
    """Yun's algorithm: list of (factor, multiplicity), factors monic and
    squarefree, product of factor^multiplicity = p up to a constant."""
    p = p.monic()
    dp = p.derivative()
    g = _gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    c = divmod(p, g)[0]
    d = divmod(dp, g)[0] - c.derivative()
    out = []
    i = 1
    while c != 1:
        a = _gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = divmod(c, a)[0]
        d = divmod(d, a)[0] - c.derivative()
        i += 1
    return out


def _sturm_chain(p):
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        chain.append(-divmod(chain[-2], chain[-1])[1])
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _sign_variations(chain, x):
    signs = []
    for p in chain:
        v = p.evaluate(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_in(chain, lo, hi):
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


# width to which isolate_real_roots brackets each root
ROOT_WIDTH = Fraction(1, 10**12)


def isolate_real_roots(p, lo, hi):
    """Distinct real roots of p (ascending Fraction coefficients) in (lo, hi]
    with multiplicities, each bracketed to ROOT_WIDTH.  Returns a list of
    (lo, hi, multiplicity)."""
    out = []
    for factor, mult in _squarefree_decomposition(TPoly(p)):
        if factor.degree == 0:
            continue
        chain = _sturm_chain(factor)
        total = _roots_in(chain, lo, hi)
        stack = [(lo, hi, total)]
        while stack:
            a, b, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1 and b - a <= ROOT_WIDTH:
                out.append((a, b, mult))
                continue
            mid = (a + b) / 2
            if factor.evaluate(mid) == 0 and cnt == 1:
                out.append((mid, mid, mult))
                continue
            left = _roots_in(chain, a, mid)
            stack.append((a, mid, left))
            stack.append((mid, b, cnt - left))
    out.sort(key=lambda item: item[0])
    return out


# ---------------------------------------------------------------------------
# spectral route


class SpectralData(Record):
    """Distinct Laplacian eigenvalues with local pair weights.

    weights[i] is the (x0, x) entry of the eigenprojection for
    eigenvalues[i]; multiplicities records the eigenspace dimensions.
    """

    __slots__ = ("x0", "x", "eigenvalues", "weights", "multiplicities")

    def __init__(self, x0, x, eigenvalues, weights, multiplicities):
        self.x0 = x0
        self.x = x
        self.eigenvalues = eigenvalues
        self.weights = weights
        self.multiplicities = multiplicities


def _dense_operators(g):
    """The dense float adjacency of g, built from its directed edges, and
    its Laplacian diag(degrees) - adjacency, as numpy arrays."""
    import numpy as np

    n = g.vertex_count
    adjacency = np.zeros((n, n))
    for e in g.edges:
        adjacency[e.origin, e.terminus] = 1.0
    return adjacency, np.diag(np.array(g.degrees, dtype=float)) - adjacency


@lru_cache(maxsize=32)
def _eigh_cached(g):
    import numpy as np

    _, laplacian = _dense_operators(g)
    w, v = np.linalg.eigh(laplacian)
    return w, v


# numeric eigenvalues further apart than this are distinct
EIGENVALUE_GAP = 1e-8


@lru_cache(maxsize=32)
def _verified_spectrum(g):
    """The cached eigendecomposition of the Laplacian, grouped into distinct
    eigenvalues: (eigenvectors, groups, eigenvalues, multiplicities), where
    groups[i] is the column range of eigenvalues[i] and neighbours more than
    EIGENVALUE_GAP apart fall in different groups.

    On graphs with at most 10 vertices the numeric eigenvalues are verified
    once against exact characteristic-polynomial root isolation to 1e-10;
    disagreement raises EigensolverFailure, and a failure is not cached.
    """
    import numpy as np

    w, v = _eigh_cached(g)
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > EIGENVALUE_GAP:
            groups.append((start, i))
            start = i
    eigenvalues = tuple(float(np.mean(w[a:b])) for a, b in groups)
    mults = tuple(b - a for a, b in groups)
    if g.vertex_count <= 10:
        # the float Laplacian's entries are integers, so the charpoly is exact
        p = charpoly_exact(_dense_operators(g)[1].tolist())
        top = 2 * g.max_degree + 1
        roots = isolate_real_roots(p, Fraction(-1), Fraction(top))
        if len(roots) != len(groups):
            raise EigensolverFailure(
                f"{len(groups)} numeric eigenvalue groups vs {len(roots)} exact roots"
            )
        for (lo, hi, mult), lam, k in zip(roots, eigenvalues, mults):
            if mult != k:
                raise EigensolverFailure(f"multiplicity mismatch near {lam}")
            mid = float((lo + hi) / 2)
            if abs(mid - lam) > 1e-10:
                raise EigensolverFailure(f"eigenvalue {lam} vs exact {mid}")
    return v, tuple(groups), eigenvalues, mults


def local_spectrum(g, x0, x):
    """Eigendecomposition of the Laplacian with per-pair local weights.

    The eigenvalues come from _verified_spectrum, so on graphs with at most
    10 vertices they have passed the exact cross-check.
    """
    import numpy as np

    _check_vertex(g, x0)
    _check_vertex(g, x)
    v, groups, eigenvalues, mults = _verified_spectrum(g)
    weights = tuple(float(np.dot(v[x0, a:b], v[x, a:b])) for a, b in groups)
    return SpectralData(
        x0=x0,
        x=x,
        eigenvalues=eigenvalues,
        weights=weights,
        multiplicities=mults,
    )


def _require_regular(g):
    q_plus_1 = g.regular_degree()
    if q_plus_1 is None:
        raise NotRegular(f"{g.label} is not regular")
    return q_plus_1 - 1


R_TAIL_ORDER = 20


def zeta_spectral_report(g, x0, x, u, t):
    """Spectral-route evaluation with the full numeric record."""
    q = _require_regular(g)
    _check_vertex(g, x0)
    _check_vertex(g, x)
    if not -1.0 < t < 1.0:
        raise DomainError("need |t| < 1")
    a = alpha(g, abs(t))
    if not 0.0 < u < 1.0 / a:
        raise DomainError(f"need 0 < u < 1/alpha = {1.0 / a:.6g}")

    spd = local_spectrum(g, x0, x)
    integral = 0.0
    for lam, mu in zip(spd.eigenvalues, spd.weights):
        arg = 1.0 - (q + 1 - lam) * u + (1.0 - t) * (q + t) * u * u
        if arg <= 0.0:
            raise DomainError("log argument left the positive region")
        integral -= math.log(arg) * mu
    spectral_factor = math.exp(integral)

    if x == x0:
        prefactor = (1.0 - (1.0 - t) ** 2 * u * u) ** (-(q - 1) / 2.0)
    else:
        prefactor = 1.0

    order = R_TAIL_ORDER
    corr = 0.0 if x == x0 else -_common_neighbours(g, x0, x)
    c2_factor = math.exp(corr / 2.0 * (1.0 - t) * u * u)

    if x == x0:
        r = _rooted_walk(g, x0, order).r
        r_sum = sum(
            (1.0 - t) * r[m].evaluate(t) / m * u**m for m in range(3, order + 1)
        )
    else:
        r_sum = 0.0
    defect_factor = math.exp(r_sum)

    # |R_m| <= 2 M a^(m-2) / (1 - beta/a^2)^2 with beta = |1-t|(1+|t|),
    # so the dropped tail is geometric in (a u).
    beta = abs(1.0 - t) * (1.0 + abs(t))
    au = a * u
    if beta < a * a and au < 1.0:
        scale = abs(1.0 - t) * 2.0 * g.max_degree / (a * a * (1.0 - beta / a**2) ** 2)
        tail = scale * au ** (order + 1) / ((order + 1) * (1.0 - au))
    else:
        tail = math.inf
    value = prefactor * spectral_factor * c2_factor * defect_factor
    return {
        "value": value,
        "u": u,
        "t": t,
        "order": order,
        "r_tail_bound": tail,
        "spectral_factor": spectral_factor,
        "prefactor": prefactor,
        "c2_factor": c2_factor,
        "defect_factor": defect_factor,
    }
