"""Rooted Bartholdi zeta function by independent routes.

Routes: exponential of the cyclic-bump log-series, the closed product
formula, the spectral form for regular graphs, and the Euler product over
primitive rooted closed walks.  The first, second and fourth are exact
truncated series; the third is numeric and comes with a reported truncation
bound.  numpy is imported inside the numeric functions, on their first call,
so the exact routes run without loading it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import operators
from .operators import _closed_tallies, _rooted_walk, _walk_row, alpha, cbc_terms
from .series import (ONE_MINUS_T, TPOLY_ONE, TPOLY_ZERO, TPoly, USeries,
                     _add_into, _mul_into)


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
    tests/_oracles.py, from operators.cbc_terms.  The
    rooted entries (x = x0) read the root's RootedWalk: C_m(x0, x0) and
    R_m(x0), from the walk-matrix rows of x0 and its neighbours.  Off the
    diagonal they read C_m(x0, x) from row x0 alone.
    """
    if x == x0:
        walk = _rooted_walk(g, x0, order)
        c, r = walk.diag, walk.r
    else:
        c, r = [row[x] for row in _walk_row(g, x0, order)], None
    return cbc_terms(c, g.degrees[x0], r)


def zeta_log_coefficients(g, x0, x, order):
    """Coefficients of log Z: entry_m / m for m >= 1 (index 0 unused)."""
    ent = cbc_entries(g, x0, x, order)
    return [TPOLY_ZERO] + [ent[m] * Fraction(1, m) for m in range(1, order + 1)]


def zeta_log_series(g, x0, x, order):
    """exp of the cyclic-bump log-series, truncated at the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = zeta_log_coefficients(g, x0, x, order)
    return USeries(order, coeffs).exp()


# ---------------------------------------------------------------------------
# closed product-formula route


def _f_step(g):
    """step(v, top) = v f for f(u) = u A - u^2 (1-t)(D - (1-t)I): per vertex
    j, the raw coefficient lists of u^k, u^(k+1), ... of v(j), None for zero,
    go to those of u^(k+1)..u^(k+1+top) of
    (v f)(j) = u sum_{i ~ j} v(i) - u^2 (1-t)(d_j - 1 + t) v(j)."""
    nbrs = [g.neighbors(j) for j in range(g.vertex_count)]
    # -(1-t)(d - 1 + t), lowest t-power first
    weights = [(1 - d, d - 2, 1) for d in g.degrees]

    def step(prev, top):
        cur = [None] * len(prev)
        for j, own in enumerate(prev):
            live = [prev[i] for i in nbrs[j] if prev[i] is not None]
            if own is None and not live:
                continue
            entry = [[] for _ in range(top + 1)]
            for r in live:
                for acc, b in zip(entry, r):
                    _add_into(acc, b)
            if own is not None:
                for p in range(1, min(len(own), top) + 1):
                    _mul_into(entry[p], weights[j], own[p - 1])
            cur[j] = entry
        return cur

    return step


@lru_cache(maxsize=32)
def _f_power_table(g, x, order):
    """Row x of the powers f^0..f^order of f, row k-1 times f by _f_step.

    rows[k][j] holds the u^k..u^min(2k, order) coefficients of f^k(x, j), the
    only u-powers f^k can have, as a tuple of TPoly; a zero entry is ()."""
    step = _f_step(g)
    prev = [None] * g.vertex_count
    prev[x] = [[1]]
    rows = [tuple(() if j != x else (TPOLY_ONE,) for j in range(g.vertex_count))]
    for k in range(1, order + 1):
        prev = step(prev, min(k, order - k))
        rows.append(tuple(() if e is None else tuple(TPoly(c) for c in e) for e in prev))
    return tuple(rows)


def _commutator_exponent(g, x0, x, left):
    """Exponent coefficients, by u-power up to order, of the commutator term
    int_0^u (1-t) s^2 sum_{a,b} (b+1)/(a+b+2) [f^a K f^b](x0, x) s^(a+b) ds
    with K = A D - D A, from left = _f_power_table(g, x0, order).

    f D - D f = u K, so sum_{a+b=S} (b+1) f^a K f^b = (M_(S+1) - (S+2) D f^(S+1)) / u
    with M_T = sum_{a+b=T} f^a D f^b = M_(T-1) f + f^T D and M_0 = D.
    """
    order = len(left) - 1
    top = order - 3  # integrating the u^2 shift lifts power s to s + 3
    step = _f_step(g)
    d = g.degrees
    row = [None] * g.vertex_count  # row x0 of M_T, at u^T..u^(T+cut)
    row[x0] = [[d[x0]]]
    integrand = [[] for _ in range(top + 1)]
    for T in range(1, top + 2):
        cut = min(T, top + 1 - T)
        row = step(row, cut)
        for j, entry in enumerate(left[T]):
            if entry:
                acc = row[j] = row[j] or [[] for _ in range(cut + 1)]
                for slot, c in zip(acc, entry):
                    _mul_into(slot, (d[j],), c.c)
        # u^(T+p) of M_T / (T+1) - d_x0 f^T is u^(T-1+p) of the S = T-1 term
        for acc, c in zip(integrand[T - 1:], row[x] or ()):
            _mul_into(acc, (Fraction(1, T + 1),), c)
        for acc, c in zip(integrand[T - 1:], left[T][x][: cut + 1]):
            _mul_into(acc, (-d[x0],), c.c)
    terms = [TPoly(c) * ONE_MINUS_T * Fraction(1, s + 3) for s, c in enumerate(integrand)]
    return ([TPOLY_ZERO] * 3 + terms)[: order + 1]


def _common_neighbours(g, x, y):
    """Number of common neighbours of x and y, which is C_2(x, y) for x != y:
    a length-2 walk bumps only when it returns to its start."""
    return len(set(g.neighbors(x)).intersection(g.neighbors(y)))


def zeta_formula_series(g, x0, x, order):
    """Closed-formula route: the logs of the prefactor, the matrix-log
    factor, the commutator integral, the length-2 correction and the defect
    series, summed into one exponent series and exponentiated once."""
    if order < 1:
        raise ValueError("order must be >= 1")
    left = _f_power_table(g, x0, order)
    exponent = [TPOLY_ZERO] * (order + 1)

    # -[log(I - f)](x0, x) = sum_k f^k(x0, x) / k
    for k in range(1, order + 1):
        for p, c in enumerate(left[k][x], start=k):
            exponent[p] = exponent[p] + c * Fraction(1, k)

    if x == x0:
        # log (1-(1-t)^2 u^2)^(-(deg-2)/2) = (deg-2)/2 sum_k (1-t)^(2k) u^(2k) / k;
        # the prefactor is 1 off the diagonal
        half = Fraction(g.degrees[x0] - 2, 2)
        square = ONE_MINUS_T * ONE_MINUS_T
        power = TPOLY_ONE
        for k in range(1, order // 2 + 1):
            power = power * square
            exponent[2 * k] = exponent[2 * k] + power * (half / k)
        # sum_{m>=3} (1-t) R_m(x0) / m u^m; the defect operator is diagonal
        r = _rooted_walk(g, x0, order).r
        for m in range(3, order + 1):
            exponent[m] = exponent[m] + ONE_MINUS_T * r[m] * Fraction(1, m)
    elif order >= 2:
        # [t D - C_2](x0, x) (1-t) u^2 / 2; C_2(x, x) = t deg(x), so only the
        # off-diagonal -A^2(x0, x) survives
        common = _common_neighbours(g, x0, x)
        exponent[2] = exponent[2] - ONE_MINUS_T * Fraction(common, 2)

    # the commutator integral, over K = A D - D A; on a connected graph K is
    # zero exactly when the graph is regular
    if g.regular_degree() is None:
        exponent = [a + b for a, b in zip(exponent, _commutator_exponent(g, x0, x, left))]

    return USeries(order, exponent).exp()


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
    cbc_all, _ = _closed_tallies(g, x0, order)
    coeffs = [TPOLY_ZERO] + [cbc_all[m] * Fraction(1, m) for m in range(1, order + 1)]
    return USeries(order, coeffs).exp()


# ---------------------------------------------------------------------------
# exact eigenvalue machinery (characteristic polynomial cross-check)


def charpoly_exact(mat):
    """Monic characteristic polynomial det(lambda I - M), ascending
    Fraction coefficients, by the trace recursion."""
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


@dataclass
class SpectralData:
    """Distinct Laplacian eigenvalues with local pair weights.

    weights[i] is the (x0, x) entry of the eigenprojection for
    eigenvalues[i]; multiplicities records the eigenspace dimensions.
    """

    x0: int
    x: int
    eigenvalues: tuple
    weights: tuple
    multiplicities: tuple


@lru_cache(maxsize=32)
def _eigh_cached(g):
    import numpy as np

    _, _, laplacian = operators(g)
    w, v = np.linalg.eigh(np.array(laplacian, dtype=float))
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
        _, _, laplacian = operators(g)
        p = charpoly_exact(laplacian)
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
