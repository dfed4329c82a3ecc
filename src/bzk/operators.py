"""Operator calculus on the bump-weighted walk matrices.

Builds the walk-matrix rows by recursion, each root's walk data and defect
values, the cyclic-bump operators, and machine-checks the generating-function
identities coefficient by coefficient in exact arithmetic.  The checks run on
the packed rows of _walk_row, the series-inverse check by neighbour sums, so
none forms a dense matrix; cm_sequence, r_values and delta_diag are dense.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .edgewalk import edge_closed_tallies
from .graphs import _check_vertex
from .series import (ONE_MINUS_T, TPOLY_ONE, TPOLY_T, TPOLY_ZERO, OperatorPoly, TPoly,
                     USeries, _pack, _packed_width, _unpack)


@dataclass
class IdentityReport:
    identity: str
    graph: str
    root: int | None
    order: int
    passed: bool
    first_failure: dict | None = None

    def to_json(self):
        return {
            "identity": self.identity,
            "graph": self.graph,
            "root": self.root,
            "order": self.order,
            "pass": self.passed,
            "first_failure": self.first_failure,
        }


def cm_sequence(g, order):
    """Walk matrices C_0..C_order, assembled from the rows of _walk_row.

    Entry (y, x) of C_m is decoded from row y, so each matrix shows its rows
    exactly as _walk_row built them, the entries it read off other rows
    included."""
    if order < 0:
        raise ValueError("order must be >= 0")
    width = _packed_width(g.max_degree, order)
    rows = [_walk_row(g, y, order) for y in range(g.vertex_count)]
    return [OperatorPoly([[_unpack(v, width) for v in row[m]] for row in rows])
            for m in range(order + 1)]


@lru_cache(maxsize=8)
def _walk_rows(g, order):
    """The rows of g's walk matrices through the given order that _walk_row
    has built so far, by vertex."""
    return {}


def _walk_row(g, y, order):
    """Row y of the walk matrices C_0..C_order, packed: rows[m][x] is
    C_m(y, x) as the int of series._pack at _packed_width(max degree, order).

    C_0 = I, C_1 = adjacency, C_2 = C_1^2 - (1-t) (Q + I), and for m >= 3
    C_m = C_{m-1} C_1 - (1-t) C_{m-2} (D - (1-t) I).  Each product is taken
    as a neighbour sum and a scaling,
    C_m(y, x) = sum_{z ~ x} C_{m-1}(y, z) - (1-t)(d_x - 1 + t) C_{m-2}(y, x),
    which packed is one big-int sum and one product by the packed weight.
    Each row is built once per graph and order and kept in _walk_rows.  C_m
    is symmetric, so where row x is already kept, C_m(y, x) is its entry
    C_m(x, y).  Zero entries are 0.  Callers decode with series._unpack only
    the entries they read.
    """
    kept = _walk_rows(g, order)
    if y in kept:
        return kept[y]
    n = g.vertex_count
    width = _packed_width(g.max_degree, order)
    nbrs = [g.neighbors(x) for x in range(n)]
    known = [kept.get(x) for x in range(n)]
    # the scalings -(1-t) d_x for C_2 and -(1-t)(d_x - 1 + t) after it
    first_weights = [_pack((-d, d), width) for d in g.degrees]
    step_weights = [_pack((1 - d, d - 2, 1), width) for d in g.degrees]
    rows = [tuple(int(x == y) for x in range(n))]
    if order >= 1:
        adjacent = set(nbrs[y])
        rows.append(tuple(int(x in adjacent) for x in range(n)))
    for m in range(2, order + 1):
        weights = first_weights if m == 2 else step_weights
        last, older = rows[-1], rows[-2]
        rows.append(tuple(
            known[x][m][y] if known[x] is not None
            else sum(map(last.__getitem__, nbrs[x])) + weights[x] * older[x]
            for x in range(n)))
    kept[y] = rows = tuple(rows)
    return rows


def delta_diag(g, c):
    """Laplacian applied to the diagonal function y -> C(y, y).

    Value at x is deg(x) C(x,x) - sum over out-edges of C(head, head).
    """
    diag = c.diag()
    out = []
    for x in range(g.vertex_count):
        acc = diag[x] * g.degrees[x]
        for y in g.neighbors(x):
            acc = acc - diag[y]
        out.append(acc)
    return out


def r_values(g, order, *, cms=None):
    """Per-vertex defect values for every m <= order.

    R_m(x) = sum_{j=1}^{ceil(m/2)-1} sum_{i=1}^{j}
             (1-t)^(2(j-i)) (1-t^2)^(i-1) * [Laplacian defect of C_{m-2j}](x).

    Returns a list indexed by m of per-vertex TPoly lists; m <= 2 rows are
    zero (empty outer sum).
    """
    if order < 3:
        return [[TPOLY_ZERO] * g.vertex_count for _ in range(order + 1)]
    if cms is None:
        cms = cm_sequence(g, order - 2)
    deltas = [delta_diag(g, cms[k]) for k in range(order - 1)]
    per_vertex = [_r_double_sum([row[x] for row in deltas], order)
                  for x in range(g.vertex_count)]
    return [list(row) for row in zip(*per_vertex)]


def _r_double_sum(delta, order):
    """R_0..R_order at one vertex x by the double sum of r_values, from its
    defect values delta[k] = [Laplacian defect of C_k](x), k <= order - 2."""
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


class RootedWalk(NamedTuple):
    """The walk data of one root x0 for every length m <= order, each a tuple
    indexed by m: diag[m] = C_m(x0, x0), delta[m] = [Laplacian defect of
    C_m](x0) and r[m] = R_m(x0)."""

    diag: tuple
    delta: tuple
    r: tuple


@lru_cache(maxsize=64)
def _rooted_walk(g, x0, order):
    """The RootedWalk of x0 through the given order, from the walk-matrix rows
    of x0 and its neighbours.

    The defect reads only diagonals: [DC_m](x0) = d C_m(x0, x0) - sum_{y ~ x0}
    C_m(y, y), summed packed and decoded once per length.  R_m comes from its
    generating recursion
    R_m = DC_{m-2} + ((1-t)^2 + (1-t^2)) R_{m-2} - (1-t)^2 (1-t^2) R_{m-4},
    which equals the double sum of r_values.
    """
    width = _packed_width(g.max_degree, order)
    diag = [row[x0] for row in _walk_row(g, x0, order)]
    delta = [c * g.degrees[x0] for c in diag]
    for y in g.neighbors(x0):
        delta = [acc - row[y] for acc, row in zip(delta, _walk_row(g, y, order))]
    diag = tuple(_unpack(c, width) for c in diag)
    delta = tuple(_unpack(c, width) for c in delta)
    one_minus_t_sq = ONE_MINUS_T * ONE_MINUS_T
    one_minus_t2 = TPoly((1, 0, -1))
    mix = one_minus_t_sq + one_minus_t2
    prod = one_minus_t_sq * one_minus_t2
    r = [TPOLY_ZERO] * min(order + 1, 3)
    for m in range(3, order + 1):
        older = r[m - 4] if m >= 4 else TPOLY_ZERO
        r.append(delta[m - 2] + mix * r[m - 2] - prod * older)
    return RootedWalk(diag=diag, delta=delta, r=tuple(r))


def cbc_terms(c, deg, r=None):
    """Cyclic-bump entries (x0, x) for every length m < len(c), from the
    walk-matrix entries c[m] = C_m(x0, x) and the degree of x0.

    Lengths 0 and 1 keep C_m, length 2 is t C_2, and for m >= 3
    C_m - (deg - 2 + 2t) s_m with s_m = sum_{1 <= j < m/2} (1-t)^(2j-1) C_{m-2j}.
    Given the defect values r[m] = R_m(x0), the entries are rooted (x = x0)
    and also get (1-t) R_m and, at even m, -(1-t)^(m-1) t deg; both terms
    are diagonal, so off-diagonal entries pass r=None.  This is the entry
    view of the dense test reference cm_cbc in tests/_oracles.py, with s_m by
    its two-step recursion.
    """
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


def alpha(g, t_abs):
    """Growth base bounding the walk-matrix operator norms: norm of the
    length-m matrix at |t| is at most alpha^m."""
    if t_abs < 0:
        raise ValueError("t_abs must be >= 0")
    big_m = g.max_degree
    return (big_m + math.sqrt(big_m * big_m + 4.0 * (t_abs + 1.0) * big_m)) / 2.0


# ---------------------------------------------------------------------------
# identity checks


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


def _report(identity, g, root, order, failures):
    return IdentityReport(
        identity=identity,
        graph=g.label,
        root=root,
        order=order,
        passed=not failures,
        first_failure=failures[0] if failures else None,
    )


# The closed-walk tallies take polynomial time at any length, but they stop
# where the enumeration oracle paths.rooted_closed_tallies stops, so every
# tally in default output has an independent reference.
TALLY_CAP = 12


@lru_cache(maxsize=8)
def _closed_tallies(g, x0, order):
    """(cbc_all, no_tail) of edgewalk.edge_closed_tallies(g, x0, order) as
    tuples, so the no-tail and cyclic-bump checks and the Euler route of one
    root share a single tally and no caller can change a cached one.  An
    order past TALLY_CAP raises ValueError."""
    if order > TALLY_CAP:
        raise ValueError(f"length {order} exceeds cap {TALLY_CAP}")
    return tuple(tuple(tally) for tally in edge_closed_tallies(g, x0, order))


def check_no_tail_identity(g, x0, order):
    """Verify the closed-form identities tying the tail-free closed-walk
    series to the walk-matrix series at one root.

    Display one: (1-(1-t)^2 u^2) N(u) equals
    (1-(deg-(1-t^2)) u^2) C(u) - deg t u^2 + u^2 (1-(1-t^2)u^2)^(-1) DC(u)
    where N is the tail-free cyclic-bump tally series, C the diagonal
    walk-matrix series, DC the Laplacian-defect series.  Display two is the
    per-length expansion for m >= 3.  Both compared exactly.
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    _check_vertex(g, x0)
    _, notail = _closed_tallies(g, x0, order)
    walk = _rooted_walk(g, x0, order)
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
    return _report("no-tail-series", g, x0, order, failures)


def check_cyclic_bump_identity(g, x0, order):
    """Verify the closed-form identities tying the cyclic-bump closed-walk
    series to the walk-matrix series at one root.

    The series display multiplies out to polynomial coefficients; the
    per-length display checks every m >= 3 against the closed-walk tally.  The
    final valency term is read as -(1-(1-t^2)u^2) t deg (1-t) u^2, which is
    what the summed per-length identities produce.
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    _check_vertex(g, x0)
    cbc_all, _ = _closed_tallies(g, x0, order)
    deg = g.degrees[x0]
    walk = _rooted_walk(g, x0, order)
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

    terms = cbc_terms(walk.diag, deg, walk.r)
    for m in range(3, order + 1):
        if cbc_all[m] != terms[m]:
            failures.append({"display": "per-length", "u_power": m,
                             "difference": str(cbc_all[m] - terms[m])})
            break
    return _report("cyclic-bump-series", g, x0, order, failures)


def _inverse_weight(d):
    """B's u^2 weight (1-t)(d - 1 + t) at degree d, as raw t-coefficients,
    kept apart from _walk_row's weights so that the two cannot err together."""
    return (d - 1, 2 - d, -1)


def check_series_inverse_identity(g, order):
    """Verify that the walk-matrix series is a one-sided inverse of
    B = I - u A + (1-t)(D - (1-t)I) u^2, exactly as operator series.

    The check is (sum C_m u^m) B = (1-(1-t)^2 u^2) I.  Entry (y, x) of its
    u^m coefficient is the neighbour sum
    C_m(y, x) - sum_{z ~ x} C_(m-1)(y, z) + (1-t)(d_x - 1 + t) C_(m-2)(y, x),
    taken on the packed rows of _walk_row, with nothing decoded, and compared
    packed with the right side's entry.  A zero packed difference is a zero
    polynomial: by _packed_width's l1 bound |C_m|_1 <= (3D)^m, the difference
    has l1 norm at most 2 (3D)^m + 4 <= P < 2^(width-1), and packing is
    one-to-one on polynomials whose coefficients are below 2^(width-1) in
    absolute value.  The report names the smallest failing u-power.

    The folded series F_m = C_m + (1-t)^2 F_{m-2}, whose product with B is
    exactly I, needs no check of its own: F = C S with the scalar unit series
    S = (1-(1-t)^2 u^2)^(-1), so F B - I = S (C B - (1-(1-t)^2 u^2) I) fails
    exactly where the plain form does, at the same first u-power.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    n = g.vertex_count
    width = _packed_width(g.max_degree, order)
    nbrs = [g.neighbors(x) for x in range(n)]
    weights = [_pack(_inverse_weight(d), width) for d in g.degrees]
    zero = (0,) * n
    # row[m + 2] is C_m(y, .), behind two zero rows for C_(-2) and C_(-1)
    rows = [(zero, zero) + _walk_row(g, y, order) for y in range(n)]
    failures = []
    for m in range(order + 1):
        # the diagonal of (1-(1-t)^2 u^2) I at u^m
        unit = 1 if m == 0 else _pack((-1, 2, -1), width) if m == 2 else 0
        if any(c - sum(map(row[m + 1].__getitem__, nbrs[x])) + weights[x] * row[m][x]
               != (unit if x == y else 0)
               for y, row in enumerate(rows) for x, c in enumerate(row[m + 2])):
            failures.append({"display": "plain", "u_power": m})
            break
    return _report("walk-series-inverse", g, None, order, failures)


def check_r_generating_identity(g, x0, order):
    """Verify the closed form of the defect generating function:
    sum_m R_m(x0) u^m = u^2 / ((1-(1-t)^2 u^2)(1-(1-t^2)u^2)) * DC(u)."""
    if order < 3:
        raise ValueError("order must be >= 3")
    _check_vertex(g, x0)
    delta = _rooted_walk(g, x0, order).delta
    # the double sum, not the record's recursion, so the check stays independent
    r_series = _series_from(order, _r_double_sum(delta, order))
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
    return _report("defect-generating-function", g, x0, order, failures)
