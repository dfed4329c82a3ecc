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

from .graphs import _check_vertex
from .operators import (_adjacency_rows, _closed_tallies, _cone, _f_digits, _f_weight, _lift,
                        _norm_width, _pick, _placed, _r_recursion, _regular_walk, _rooted_walk,
                        _walk_rows, _weight, alpha, cbc_terms)
from .records import Record
from .series import (TPOLY_ZERO, TPoly, _balanced, _digit_width, _digits, _exp_from_scaled,
                     _pack, _packed_width, _unpack, _walk_norms)


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
    tests/_oracles.py: the packed entries of _packed_entries, each decoded
    once.
    """
    _check_vertex(g, x0)
    _check_vertex(g, x)
    width, entries = _packed_entries(g, x0, x, order)
    return [_unpack(v, width) for v in entries]


def _packed_entries(g, x0, x, order):
    """(width, entries): the cyclic-bump entries (x0, x) for every length
    m <= order, packed at width = series._packed_width(max degree, order),
    by operators.cbc_terms on the walk-matrix entries C_m(x0, x) at that
    width, which bounds every entry (see series._packed_width).  On the
    diagonal they are the root's RootedWalk, C_m(x0, x0) with R_m(x0).  Off
    it they come from a pass over x0 alone with target x, which steps only
    its light cone (operators._cone): of operators._walk_rows, whose packed
    rows are the entries themselves, or on a regular graph
    operators._regular_walk of the counts of operators._adjacency_rows.
    Nothing is decoded here."""
    deg = g.degrees[x0]
    if x == x0:
        walk = _rooted_walk(g, x0, order)
        return walk.width, cbc_terms(walk.packed_diag, deg, walk.width, walk.packed_r)
    width = _packed_width(g.max_degree, order)
    if g.regular_degree() is None:
        c = [row[x] for row in _walk_rows(g, (x0,), order, (x,))]
    else:
        c = _regular_walk([row[x] for row in _adjacency_rows(g, (x0,), order, (x,))], deg, width)
    return width, cbc_terms(c, deg, width)


def zeta_log_coefficients(g, x0, x, order):
    """Coefficients of log Z: entry_m / m for m >= 1 (index 0 unused)."""
    ent = cbc_entries(g, x0, x, order)
    return [TPOLY_ZERO] + [ent[m] * Fraction(1, m) for m in range(1, order + 1)]


def zeta_log_series(g, x0, x, order):
    """exp of the cyclic-bump log-series, truncated at the given order.

    m (entry_m / m) is entry_m, so the exponent reaches the exp recurrence
    as the integer entries at scale 1: the packed entries of
    _packed_entries, decoded once, straight into the raw lists that the
    recurrence takes."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_vertex(g, x0)
    _check_vertex(g, x)
    width, entries = _packed_entries(g, x0, x, order)
    return _exp_from_scaled(order, [()] + [_digits(v, width) for v in entries[1:]], 1)


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
    nbrs = g.adjacency
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
    _formula_sum).  Each entry is a tuple of digits, digit p the raw
    t-coefficients of Q_p, its u^(k+p) (u^(T+p)) coefficient over (1-t)^p,
    for p <= min(k, order - k) (p <= min(T, order - 2 - T)); no entry ends
    in an empty digit.  The formula route reads it on graphs that are not
    regular; on a regular graph _formula_exponent takes the f-powers from
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
    power_cone = _cone(g.adjacency, (x0,), (x,), order)
    row_cone = _cone(g.adjacency, (x0,), (x,), order - 2)
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


def _common_neighbours(g, x, y):
    """Number of common neighbours of x and y, which is C_2(x, y) for x != y:
    a length-2 walk bumps only when it returns to its start."""
    return len(set(g.adjacency[x]).intersection(g.adjacency[y]))


def _formula_sum(order, scale, width, powers, integrand, share, defect, common):
    """scale m a_m for m = 0..order, the formula route's exponent series a,
    packed at width (series._pack), from inputs packed at width:
    powers[k][p] and integrand[T-1][p], digit p of f^k(x0, x) and of the
    T-th commutator integrand entry, their u^(k+p) (u^(T+p)) coefficients
    over (1-t)^p (see _f_power_table); share = deg(x0) - 2; the defect
    values [DC_m](x0), or None; and common, the number of common neighbours
    of x0 and x.  On the diagonal common is 0, and off it share is 0 and
    defect None.  scale must be a multiple of 1, ..., order.  With width
    None the inputs are bounds of their l1 norms and the outputs bound the
    outputs' norms: every sign is folded into a weight (operators._weight).

    Each of the five logs adds a share times (1-t)^q to scale m a_m, with
    q <= m/2; the shares are summed packed per (m, q), and the powers of
    1 - t restored once per m by Horner's rule, from the highest q down:
    - the matrix log, -[log(I - f)](x0, x) = sum_k f^k(x0, x) / k: digit p
      of f^k adds scale (k+p)/k times itself at (k + p, p);
    - the commutator integral
      int_0^u (1-t) s^2 sum_{a,b} (b+1)/(a+b+2) [f^a K f^b](x0, x) s^(a+b) ds
      with K = A D - D A.  f D - D f = u K, so
      sum_{a+b=S} (b+1) f^a K f^b = (M_(S+1) - (S+2) D f^(S+1)) / u with
      M_T = sum_{a+b=T} f^a D f^b, and digit p of the T-th integrand entry,
      at u^(T+p) of M_T - (T+1) d_x0 f^T, is at u^(T-1+p) of the S = T - 1
      term, taken scale/(T+1) times.  Integrating lifts the u^s of the
      integrand to u^(s+3) with a factor (1-t)/(s+3), whose 1/(s+3) the
      m = s+3 of m a_m cancels: the digit adds scale/(T+1) times itself at
      (T + p + 2, p + 1);
    - the prefactor, log (1-(1-t)^2 u^2)^(-(deg-2)/2) =
      (deg-2)/2 sum_k (1-t)^(2k) u^(2k) / k: scale share (1-t)^(2k) at
      (2k, 0);
    - the length-2 correction [t D - C_2](x0, x) (1-t) u^2 / 2, in which
      C_2(x, x) = t deg(x), so only the off-diagonal -A^2(x0, x) survives:
      -scale common at (2, 1);
    - the defect series sum_{m>=3} (1-t) R_m(x0) / m u^m, R_m by
      operators._r_recursion on the defect values: scale R_m at (m, 1)."""
    by_power = [[0] * (m // 2 + 1) for m in range(order + 1)]
    for k, entry in enumerate(powers[1:], start=1):
        for p, q in enumerate(entry):
            by_power[k + p][p] += scale * (k + p) // k * q
    for T, entry in enumerate(integrand, start=1):
        for p, q in enumerate(entry):
            by_power[T + p + 2][p + 1] += scale // (T + 1) * q
    prefactor, square = _weight((scale * share,), width), _weight((1, -2, 1), width)
    for m in range(2, order + 1, 2):
        prefactor *= square
        by_power[m][0] += prefactor
    if order >= 2:
        by_power[2][1] += _weight((-scale * common,), width)
    if defect is not None:
        r = _r_recursion(defect, order, width)
        for m in range(3, order + 1):
            by_power[m][1] += scale * r[m]
    one_minus_t = _weight((1, -1), width)
    out = []
    for slots in by_power:
        acc = 0
        for v in reversed(slots):
            acc = acc * one_minus_t + v
        out.append(acc)
    return out


@lru_cache(maxsize=64)
def _formula_width(max_degree, order):
    """The width at which _formula_exponent sums the formula route's
    exponent through order on a graph of that max degree: 2^(width-1)
    exceeds the largest output of _formula_sum run with width None on
    bounds of its inputs' l1 norms, so that every scale m a_m decodes.
    With D = max(max_degree, 2) the bounds are those that
    series._packed_width derives: digit p of f^k(x0, x) is at most
    C(k, p) D^k, digit p of the T-th commutator integrand entry
    2 (T+1) C(T, p) D^(T+1), and the defect |[DC_m](x0)|_1 2D N_m; and
    |deg - 2| <= D, and there are at most D common neighbours.  One run
    takes both the diagonal and the off-diagonal terms, so the width bounds
    every graph of max degree at most D, regular or not, on the diagonal
    and off it."""
    big_d = max(max_degree, 2)
    powers = [[math.comb(k, p) * big_d ** k for p in range(min(k, order - k) + 1)]
              for k in range(order + 1)]
    integrand = [[2 * (T + 1) * math.comb(T, p) * big_d ** (T + 1)
                  for p in range(min(T, order - 2 - T) + 1)] for T in range(1, order - 1)]
    defect = [2 * big_d * n for n in _walk_norms(big_d, order)]
    scale = math.lcm(*range(1, order + 1))
    return _norm_width(max(_formula_sum(order, scale, None, powers, integrand,
                                        big_d, defect, big_d)))


def _formula_exponent(g, x0, x, order):
    """(scaled, scale) for the formula route's exponent series a:
    scaled[m] = scale m a_m, raw int lists, at scale = lcm(1, ..., order),
    which every denominator of _formula_sum divides, summed packed at
    _formula_width and decoded once.  Only the inputs of _formula_sum
    differ by graph.  On a regular graph the f-powers come from walk counts
    A^i(x0, x), the root's own on the diagonal (its RootedWalk) and off it
    those of a pass of operators._adjacency_rows over x0 with target x: f
    is u A - s (d - 1 + t), and A commutes with the scalar, so digit p of
    f^k is C(k, p) A^(k-p)(x0, x) (-(d - 1 + t))^p (operators._f_digits).
    K = A D - D A is zero, so there is no integrand, and the defect is
    operators._regular_walk of the record's defect counts.  On every other
    graph the f-power and integrand digits come from _f_power_table, and
    the defect from the root's RootedWalk."""
    scale = math.lcm(*range(1, order + 1))
    width = _formula_width(g.max_degree, order)
    deg = g.degrees[x0]
    diagonal = x == x0
    if g.regular_degree() is None:
        table, integrand = _f_power_table(g, x0, x, order)
        powers = [[_pack(q, width) for q in entry] for entry in table]
        integrand = [[_pack(q, width) for q in entry] for entry in integrand]
        defect = _lift(_rooted_walk(g, x0, order).delta, width) if diagonal else None
    else:
        if diagonal:
            counts, defect_counts = _rooted_walk(g, x0, order).counts
        else:
            counts = [row[x] for row in _adjacency_rows(g, (x0,), order, (x,))]
        minus_weight = -_pack(_f_weight(deg), width)
        weights = [1]
        for _ in range(order // 2):
            weights.append(weights[-1] * minus_weight)
        powers = [[s * w for s, w in zip(factors, weights)] for factors in _f_digits(counts)]
        integrand = ()
        defect = _regular_walk(defect_counts, deg, width) if diagonal else None
    share, common = (deg - 2, 0) if diagonal else (0, _common_neighbours(g, x0, x))
    packed = _formula_sum(order, scale, width, powers, integrand, share, defect, common)
    return [_digits(v, width) for v in packed], scale


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
