"""Operator calculus on the bump-weighted walk matrices.

Builds the walk-matrix rows by recursion, each root's walk data and defect
values, the cyclic-bump operators, and machine-checks the generating-function
identities coefficient by coefficient in exact arithmetic.  The checks run on
packed ints (series._pack), so none forms a dense matrix or a USeries.  One
recursion, _walk_rows, streams the rows of a tuple of roots in one pass, each
root a balanced base-2^R digit of every packed entry (series._digit_width),
and keeps only the last two rows; every caller reads the rows as they come,
and the series-inverse check takes neighbour sums on them.  On a regular
graph C_m is a polynomial in A, so the root walks and entries come from
integer adjacency counts (_adjacency_rows, _regular_walk) instead.
A per-root check holds each side of a display as a list of packed ints
indexed by u-power: multiplying by 1 - a u^2 is one product and one sum per
power, dividing by it is out[m] = s[m] + a out[m-2], and a shift by u^2 is
an index offset.  cbc_terms and _r_double_sum run packed too.

A per-root check takes its width from the inputs it reads.  Its combination
is written with sums and products by fixed weights only, each sign folded
into a weight, so run on the inputs' l1 norms with each weight replaced by
its l1 norm (_lift and _weight with width None) it bounds the l1 norm of
every compared side: the norm is subadditive and submultiplicative.  At
_norm_width of the largest sum of two compared sides' bounds, a zero packed
difference is a zero polynomial, and a nonzero one decodes.  _rooted_walk's
defect recursion takes its width the same way.  cm_sequence, r_values and
delta_diag are dense.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .edgewalk import edge_closed_tallies
from .graphs import _bfs_distances, _check_vertex
from .records import Record
from .series import (ONE_MINUS_T, TPOLY_ZERO, OperatorPoly, TPoly, _digit, _digit_width,
                     _digits, _pack, _packed_width, _unpack)


class IdentityReport(Record):
    __slots__ = ("identity", "graph", "root", "order", "passed", "first_failure")

    def __init__(self, identity, graph, root, order, passed, first_failure=None):
        self.identity = identity
        self.graph = graph
        self.root = root
        self.order = order
        self.passed = passed
        self.first_failure = first_failure

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
    """Walk matrices C_0..C_order, decoded from one pass of _walk_rows over
    every vertex as its rows stream: entry (y, x) of C_m is root digit y of
    entry x of row m."""
    if order < 0:
        raise ValueError("order must be >= 0")
    n = g.vertex_count
    width = _packed_width(g.max_degree, order)
    shift = _digit_width(width, order)
    out = []
    for row in _walk_rows(g, tuple(range(n)), order):
        columns = [_digits(v, shift) for v in row]
        out.append(OperatorPoly([[_unpack(col[y], width) if y < len(col) else TPOLY_ZERO
                                  for col in columns] for y in range(n)]))
    return out


def _cone(nbrs, roots, targets, order):
    """The live vertices of each step m = 0..order of a pass from roots on
    the neighbour lists nbrs that is read only at targets: the y with
    dist(roots, y) <= m and dist(y, targets) <= order - m, or None at a step
    where every vertex is live, and at every step when targets is None.

    A step computes its live entries only and leaves the others 0, and the
    entries at targets stay exact.  An entry at y of step m is a sum over
    walks of length m from a root to y, so it is 0 when y lies further than
    m from every root, and it reaches a target entry of step m' only through
    a walk of length m' - m <= order - m from y.  A live y at step m reads
    its neighbours at step m - 1 and itself at step m - 2, each either live
    there or too far from the roots to be nonzero, since its distance to the
    targets is at most one more than y's."""
    if targets is None:
        return [None] * (order + 1)
    n = len(nbrs)
    last = [order - d for d in _bfs_distances(nbrs, targets, n)]
    enter = [[] for _ in range(order + 1)]
    for y, d in enumerate(_bfs_distances(nbrs, roots, n)):
        if d <= last[y]:
            enter[d].append(y)
    live, cone = [], []
    for m in range(order + 1):
        live = [y for y in live if last[y] >= m] + enter[m]
        cone.append(None if len(live) == n else live)
    return cone


def _pick(live, column):
    """A per-vertex column at the live vertices of a step of _cone, in their
    order; the column itself when every vertex is live."""
    return column if live is None else list(map(column.__getitem__, live))


def _placed(live, n, values):
    """The row of n entries that holds values, computed in the order of the
    live vertices of a step of _cone, and 0 elsewhere; values itself when
    every vertex is live."""
    if live is None:
        return values
    row = [0] * n
    for y, v in zip(live, values):
        row[y] = v
    return row


def _walk_rows(g, roots, order, targets=None):
    """Yield the rows of the walk matrices C_0..C_order at a tuple of roots,
    in one pass: row m is the list whose entry x is
    sum_r C_m(roots[r], x) 2^(r R), where C_m(y, x) is the int of
    series._pack at W = _packed_width(max degree, order) and
    R = _digit_width(W, order) = (order + 1) W.  With one root, entry x is
    the packed C_m(root, x) itself.  The pass keeps only the last two rows,
    which the recursion reads; a caller that stops early builds no more.
    Given targets, a step computes only the entries of its light cone
    (_cone), and only the entries at targets are exact.

    C_0 = I, C_1 = adjacency, C_2 = C_1^2 - (1-t) (Q + I), and for m >= 3
    C_m = C_{m-1} C_1 - (1-t) C_{m-2} (D - (1-t) I).  Each product is taken
    as a neighbour sum and a scaling,
    C_m(y, x) = sum_{z ~ x} C_{m-1}(y, z) - (1-t)(d_x - 1 + t) C_{m-2}(y, x),
    which packed is one big-int sum and one product by the packed weight.
    Both are linear, so each acts on every root's digit at once: a pass
    costs one neighbour sum and one product per (m, x), whatever the number
    of roots.

    Each root's digit decodes exactly: C_m has t-degree at most m <= order
    and, by _packed_width's bound, coefficients below 2^(W-1), so it is the
    balanced base-2^R digit r of its entry (series._digit_width), which
    series._digit and series._digits read.  A zero entry is a zero digit.
    """
    n = g.vertex_count
    width = _packed_width(g.max_degree, order)
    shift = _digit_width(width, order)
    nbrs = [g.neighbors(x) for x in range(n)]
    cone = _cone(nbrs, roots, targets, order)
    # the scalings -(1-t) d_x for C_1 (of C_(-1) = 0) and C_2, and
    # -(1-t)(d_x - 1 + t) after them
    first_weights = [_pack((-d, d), width) for d in g.degrees]
    step_weights = [_pack((1 - d, d - 2, 1), width) for d in g.degrees]
    last = [0] * n
    for r, y in enumerate(roots):
        last[y] += 1 << (r * shift)
    older = [0] * n
    yield last
    for m in range(1, order + 1):
        live = cone[m]
        weights = first_weights if m <= 2 else step_weights
        get = last.__getitem__
        older, last = last, _placed(live, n, [
            sum(map(get, nb)) + w * c
            for nb, w, c in zip(_pick(live, nbrs), _pick(live, weights), _pick(live, older))])
        yield last


def _count_width(degree, order):
    """Bits B per root digit of _adjacency_rows through order: A^0 = I, and
    A^i(y, x) = sum_{z ~ x} A^(i-1)(y, z) is at most the row sum
    degree^(i-1), so every count is below 2^(B-1), a balanced digit."""
    return max((degree ** (order - 1)).bit_length(), 1) + 1 if order else 2


def _adjacency_rows(g, roots, order, targets=None):
    """Yield the rows of A^0..A^order at a tuple of roots on a regular graph
    in one pass, keeping only the last: entry x of row i is
    sum_r A^i(roots[r], x) 2^(r B), B = _count_width(degree, order), whose
    balanced base-2^B digit r (series._digit) is the count A^i(roots[r], x);
    with one root an entry is the count.  A step is a neighbour sum, no t.
    Given targets, a step computes only its light cone (_cone), as in
    _walk_rows."""
    n = g.vertex_count
    shift = _count_width(g.regular_degree(), order)
    nbrs = [g.neighbors(x) for x in range(n)]
    cone = _cone(nbrs, roots, targets, order)
    row = [0] * n
    for r, y in enumerate(roots):
        row[y] += 1 << (r * shift)
    yield row
    for m in range(1, order + 1):
        live = cone[m]
        get = row.__getitem__
        row = _placed(live, n, [sum(map(get, nb)) for nb in _pick(live, nbrs)])
        yield row


def _f_weight(d):
    """d - 1 + t, f's u^2 weight at degree d over -s, s = (1-t) u^2, as raw coefficients."""
    return (d - 1, 1)


def _f_digits(counts):
    """The binomial expansion of (u A - w u^2)^k, k = 0..order, for a scalar
    weight w, which commutes with A: its term p, at u^(k+p), has entry
    (y, x) C(k, p) A^(k-p)(y, x) (-w)^p.  From counts[i] = A^i(y, x),
    order = len(counts) - 1, row k lists the factors C(k, p) A^(k-p)(y, x)
    of the terms at u^(k+p) <= u^order, p <= min(k, order - k).  At
    w = d - 1 + t (_f_weight) term p is digit p of the formula route's f^k;
    at (1-t)(d - 1 + t), f^k's term."""
    order = len(counts) - 1
    return [[math.comb(k, p) * counts[k - p] for p in range(min(k, order - k) + 1)]
            for k in range(order + 1)]


def _regular_walk(counts, degree, width):
    """The packed C_0(y, x)..C_order(y, x) on a degree-regular graph from
    counts[i] = A^i(y, x), or a fixed combination of such counts.  The walk
    series is (1 - (1-t)^2 u^2) (I - f)^(-1) (check_series_inverse_identity),
    so C_m = S_m - (1-t)^2 S_(m-2), S_m the u^m coefficient of sum_k f^k
    (_f_digits).  Only C_m decodes, within series._packed_width's bound."""
    minus_weight = -_pack(_f_weight(degree), width) * _pack((1, -1), width)
    weights = [1]
    for _ in range((len(counts) - 1) // 2):
        weights.append(weights[-1] * minus_weight)
    sums = [0] * len(counts)
    for k, factors in enumerate(_f_digits(counts)):
        for p, s in enumerate(factors):
            sums[k + p] += s * weights[p]
    one_minus_t_sq = _pack((1, -2, 1), width)
    return [s - one_minus_t_sq * sums[m - 2] if m >= 2 else s for m, s in enumerate(sums)]


def _weight(coeffs, width):
    """A fixed polynomial, as raw coefficients lowest t-power first, packed
    at width (series._pack), or with width None its l1 norm sum |c_i|."""
    return sum(map(abs, coeffs)) if width is None else _pack(coeffs, width)


def _lift(polys, width):
    """A list of TPoly, each packed at width or, with width None, replaced
    by its l1 norm; None stays None."""
    if polys is None:
        return None
    return [_weight(p.c, width) for p in polys]


def _norm_width(bound):
    """The smallest width with 2^(width-1) > bound: packing is one-to-one on
    polynomials of l1 norm at most bound, and _unpack recovers them."""
    return bound.bit_length() + 1


def _decoded(combine, *polys):
    """combine(width, *inputs) for TPoly lists (or None), decoded to TPoly.
    combine first runs with width None on the l1 norms of the inputs, and
    the largest of its outputs gives the width; then it runs packed."""
    bound = max(combine(None, *(_lift(p, None) for p in polys)), default=0)
    width = _norm_width(bound)
    return [_unpack(v, width) for v in combine(width, *(_lift(p, width) for p in polys))]


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
    per_vertex = [_decoded(lambda width, delta: _r_double_sum(delta, order, width),
                           [row[x] for row in deltas])
                  for x in range(g.vertex_count)]
    return [list(row) for row in zip(*per_vertex)]


def _r_double_sum(delta, order, width):
    """R_0..R_order at one vertex x by the double sum of r_values, from its
    defect values delta[k] = [Laplacian defect of C_k](x), k <= order - 2,
    packed at width, or their l1 norms with width None (see _lift)."""
    one_minus_t_sq = _weight((1, -2, 1), width)
    one_minus_t2 = _weight((1, 0, -1), width)
    # a_j = sum_{i=1}^{j} (1-t)^(2(j-i)) (1-t^2)^(i-1)
    a = [0, 1]
    power = 1  # (1-t^2)^(j-1)
    for _ in range(2, (order + 1) // 2 + 1):
        power *= one_minus_t2
        a.append(a[-1] * one_minus_t_sq + power)
    out = [0] * min(order + 1, 3)
    for m in range(3, order + 1):
        out.append(sum(a[j] * delta[m - 2 * j] for j in range(1, (m + 1) // 2)))
    return out


RootedWalk = namedtuple("RootedWalk", ("diag", "delta", "r"))
RootedWalk.__doc__ = """The walk data of one root x0 for every length m <= order, each a tuple
indexed by m: diag[m] = C_m(x0, x0), delta[m] = [Laplacian defect of
C_m](x0) and r[m] = R_m(x0)."""


@lru_cache(maxsize=64)
def _rooted_walk(g, x0, order):
    """The RootedWalk of x0 through the given order, from one pass of
    _walk_rows over x0 and its neighbours, or of _adjacency_rows on a
    regular graph, read only at those roots, so that it steps their light
    cone (_cone).

    The defect reads only diagonals: [DC_m](x0) = d C_m(x0, x0) - sum_{y ~ x0}
    C_m(y, y), each diagonal a root digit of the pass, summed packed and
    decoded once per length.  On a regular graph the digits are counts
    A^i(y, y), and _regular_walk maps the root's and its defect's to C_m.
    R_m comes from its generating recursion (_r_recursion), run on packed
    ints at the width of its l1 majorant (_decoded) and decoded once.
    """
    width = _packed_width(g.max_degree, order)
    roots = (x0, *g.neighbors(x0))
    deg = g.degrees[x0]
    regular = g.regular_degree() is not None
    if regular:
        rows, shift = _adjacency_rows(g, roots, order, roots), _count_width(deg, order)
    else:
        rows, shift = _walk_rows(g, roots, order, roots), _digit_width(width, order)
    own, defect = [], []
    for row in rows:
        digits = [_digit(row[y], r, shift) for r, y in enumerate(roots)]
        own.append(digits[0])
        defect.append(deg * digits[0] - sum(digits[1:]))
    if regular:
        own, defect = (_regular_walk(c, deg, width) for c in (own, defect))
    diag, delta = ([_unpack(v, width) for v in c] for c in (own, defect))
    r = _decoded(lambda width, delta: _r_recursion(delta, order, width), delta)
    return RootedWalk(diag=tuple(diag), delta=tuple(delta), r=tuple(r))


def _r_recursion(delta, order, width):
    """R_0..R_order at one vertex by the generating recursion
    R_m = DC_{m-2} + ((1-t)^2 + (1-t^2)) R_{m-2} - (1-t)^2 (1-t^2) R_{m-4},
    which equals the double sum of r_values (_r_double_sum), from the defect
    values delta[k], packed at width, or their l1 norms with width None (see
    _lift)."""
    mix = _weight((2, -2), width)
    minus_prod = _weight((-1, 2, 0, -2, 1), width)
    r = [0] * min(order + 1, 3)
    for m in range(3, order + 1):
        r.append(delta[m - 2] + mix * r[m - 2] + (minus_prod * r[m - 4] if m >= 4 else 0))
    return r


def cbc_terms(c, deg, width, r=None):
    """Cyclic-bump entries (x0, x) for every length m < len(c), from the
    walk-matrix entries c[m] = C_m(x0, x) and the degree of x0, packed at
    width, or their l1 norms with width None (see _lift); the entries come
    out the same way, so with width None each bounds its entry's l1 norm.

    Lengths 0 and 1 keep C_m, length 2 is t C_2, and for m >= 3
    C_m - (deg - 2 + 2t) s_m with s_m = sum_{1 <= j < m/2} (1-t)^(2j-1) C_{m-2j}.
    Given the defect values r[m] = R_m(x0), the entries are rooted (x = x0)
    and also get (1-t) R_m and, at even m, -(1-t)^(m-1) t deg; both terms
    are diagonal, so off-diagonal entries pass r=None.  This is the entry
    view of the dense test reference cm_cbc in tests/_oracles.py, with s_m by
    its two-step recursion.
    """
    order = len(c) - 1
    one_minus_t = _weight((1, -1), width)
    one_minus_t_sq = _weight((1, -2, 1), width)
    minus_dfac = _weight((2 - deg, -2), width)
    entries = list(c)
    if order >= 2:
        entries[2] = c[2] * _weight((0, 1), width)
    s_prev2 = s_prev1 = 0  # s[1], s[2]
    # -(1-t)^(m-1) t deg at the last even m
    minus_valency = _weight((0, -deg, deg), width)
    for m in range(3, order + 1):
        s_m = one_minus_t * c[m - 2] + one_minus_t_sq * s_prev2
        ent = c[m] + minus_dfac * s_m
        if r is not None:
            ent += one_minus_t * r[m]
            if m % 2 == 0:
                minus_valency *= one_minus_t_sq
                ent += minus_valency
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


def _times_even(s, *weights):
    """The series s (1 + w_1 u^2 + w_2 u^4 + ...), truncated at its order,
    by u-power, for the weights w_k packed (or l1 norms with s)."""
    out = list(s)
    for k, w in enumerate(weights, start=1):
        for m in range(2 * k, len(s)):
            out[m] += w * s[m - 2 * k]
    return out


def _over_quadratic(s, a):
    """The series s / (1 - a u^2), truncated at its order, by u-power:
    out[m] = s[m] + a out[m-2]."""
    out = list(s)
    for m in range(2, len(s)):
        out[m] += a * out[m - 2]
    return out


def _shifted(terms, k=0):
    """The series sum_{m >= 1} terms[m] u^(m+k), truncated at the order
    len(terms) - 1, by u-power: the u^0 term is dropped, and k shifts."""
    return [0] * (k + 1) + list(terms[1:len(terms) - k])


def _check_sides(identity, g, x0, order, sides):
    """The report of a per-root check whose displays sides(g, x0, order,
    width) gives as (display, lhs, rhs), each side a list of packed ints by
    u-power; the first display that differs fails at its smallest u-power.

    sides runs twice.  With width None it gives l1 majorants of every side
    (see the module docstring), and the largest sum of two compared bounds
    gives the width through _sides_width.  At that width a zero packed
    difference is a zero polynomial, so sides compare as ints and only a
    failing difference is decoded."""
    width = _sides_width(sides(g, x0, order, None))
    for display, lhs, rhs in sides(g, x0, order, width):
        m = next((m for m, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
        if m is not None:
            return _report(identity, g, x0, order, [{
                "display": display, "u_power": m,
                "difference": str(_unpack(lhs[m] - rhs[m], width))}])
    return _report(identity, g, x0, order, [])


def _sides_width(bounds):
    """The width for displays whose sides are the l1 majorants bounds, as
    sides(..., None) gives them: every difference of two compared sides has
    norm at most their sum."""
    return _norm_width(max(a + b for _, lhs, rhs in bounds for a, b in zip(lhs, rhs)))


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


def _no_tail_sides(g, x0, order, width):
    """The two displays of check_no_tail_identity at width; see
    _check_sides."""
    _, notail = _closed_tallies(g, x0, order)
    walk = _rooted_walk(g, x0, order)
    deg = g.degrees[x0]
    tally, c, delta, r = (_lift(p, width) for p in (notail, walk.diag, walk.delta, walk.r))
    one_minus_t_sq = _weight((1, -2, 1), width)
    lhs = _times_even(_shifted(tally), _weight((-1, 2, -1), width))
    rhs = [a + b for a, b in zip(
        _times_even(_shifted(c), _weight((1 - deg, 0, -1), width)),
        _over_quadratic(_shifted(delta, 2), _weight((1, 0, -1), width)))]
    rhs[2] += _weight((0, -deg), width)
    # per length: C_m - (deg-2+2t) acc_m + R_m, less (1-t)^(m-2) deg t at
    # even m, with acc_m = sum_{1 <= j < m/2} (1-t)^(2(j-1)) C_(m-2j)
    minus_dfac = _weight((2 - deg, -2), width)
    minus_valency = _weight((0, -deg), width)
    per_length = [0, 0, 0]
    acc_prev2 = acc_prev1 = 0  # acc[1], acc[2]
    for m in range(3, order + 1):
        acc = c[m - 2] + one_minus_t_sq * acc_prev2
        value = c[m] + minus_dfac * acc + r[m]
        if m % 2 == 0:
            minus_valency *= one_minus_t_sq
            value += minus_valency
        per_length.append(value)
        acc_prev2, acc_prev1 = acc_prev1, acc
    return [("series", lhs, rhs), ("per-length", [0, 0, 0] + tally[3:], per_length)]


def check_no_tail_identity(g, x0, order):
    """Verify the closed-form identities tying the tail-free closed-walk
    series to the walk-matrix series at one root.

    Display one: (1-(1-t)^2 u^2) N(u) equals
    (1-(deg-(1-t^2)) u^2) C(u) - deg t u^2 + u^2 (1-(1-t^2)u^2)^(-1) DC(u)
    where N is the tail-free cyclic-bump tally series, C the diagonal
    walk-matrix series, DC the Laplacian-defect series.  Display two is the
    per-length expansion for m >= 3.  Both compared exactly, on packed ints
    (see _check_sides).
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    _check_vertex(g, x0)
    return _check_sides("no-tail-series", g, x0, order, _no_tail_sides)


def _cyclic_bump_sides(g, x0, order, width):
    """The two displays of check_cyclic_bump_identity at width; see
    _check_sides."""
    cbc_all, _ = _closed_tallies(g, x0, order)
    walk = _rooted_walk(g, x0, order)
    deg = g.degrees[x0]
    tally, c, delta, r = (_lift(p, width) for p in (cbc_all, walk.diag, walk.delta, walk.r))
    one_minus_t2 = TPoly((1, 0, -1))
    minus_one_minus_t2 = _weight((-1, 0, 1), width)
    lhs = _times_even(_times_even(_shifted(tally), _weight((-1, 2, -1), width)),
                      minus_one_minus_t2)
    # the bracket 1 - (1-t)(deg+2t) u^2 + (1-t^2)(1-t)(deg-1+t) u^4 times C
    bracket = _times_even(_shifted(c), _weight((-ONE_MINUS_T * TPoly((deg, 2))).c, width),
                          _weight((one_minus_t2 * ONE_MINUS_T * TPoly((deg - 1, 1))).c, width))
    # -(1-(1-t^2)u^2) t deg (1-t) u^2
    valency = [0] * (order + 1)
    valency[2] = _weight((0, -deg, deg), width)
    valency = _times_even(valency, minus_one_minus_t2)
    one_minus_t = _weight((1, -1), width)
    rhs = [a + one_minus_t * b + v
           for a, b, v in zip(bracket, _shifted(delta, 2), valency)]
    terms = cbc_terms(c, deg, width, r)
    return [("series", lhs, rhs), ("per-length", [0, 0, 0] + tally[3:], [0, 0, 0] + terms[3:])]


def check_cyclic_bump_identity(g, x0, order):
    """Verify the closed-form identities tying the cyclic-bump closed-walk
    series to the walk-matrix series at one root.

    The series display multiplies out to polynomial coefficients; the
    per-length display checks every m >= 3 against the closed-walk tally.  The
    final valency term is read as -(1-(1-t^2)u^2) t deg (1-t) u^2, which is
    what the summed per-length identities produce.  Both compared on packed
    ints (see _check_sides).
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    _check_vertex(g, x0)
    return _check_sides("cyclic-bump-series", g, x0, order, _cyclic_bump_sides)


def _inverse_weight(d):
    """B's u^2 weight (1-t)(d - 1 + t) at degree d, as raw t-coefficients,
    kept apart from _walk_rows' weights so that the two cannot err together."""
    return (d - 1, 2 - d, -1)


def check_series_inverse_identity(g, order):
    """Verify that the walk-matrix series is a one-sided inverse of
    B = I - u A + (1-t)(D - (1-t)I) u^2, exactly as operator series.

    The check is (sum C_m u^m) B = (1-(1-t)^2 u^2) I.  Entry (y, x) of its
    u^m coefficient is the neighbour sum
    C_m(y, x) - sum_{z ~ x} C_(m-1)(y, z) + (1-t)(d_x - 1 + t) C_(m-2)(y, x).
    The roots y run in groups of max degree + 1, one pass of _walk_rows
    each, and for every (m, x) the sum is taken on the pass's packed rows as
    they stream, the row at C_m and the two before it, with nothing decoded,
    and compared with the group's packed unit: the right side's entry at
    root digit r of x when x is the group's r-th root, zero elsewhere.  A
    zero packed difference is a zero polynomial at every root: each root's
    difference has t-degree at most m and l1 norm at most
    N_m + D N_(m-1) + 2D N_(m-2) + 4 <= P < 2^(W-1), one of the bounds that
    _packed_width takes its width from, so it is a balanced base-2^R digit
    (see _walk_rows), and packing is one-to-one on such digits.  A pass
    stops below the smallest failing u-power found so far, and the report
    names the smallest over all groups.

    The folded series F_m = C_m + (1-t)^2 F_{m-2}, whose product with B is
    exactly I, needs no check of its own: F = C S with the scalar unit series
    S = (1-(1-t)^2 u^2)^(-1), so F B - I = S (C B - (1-(1-t)^2 u^2) I) fails
    exactly where the plain form does, at the same first u-power.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    n = g.vertex_count
    width = _packed_width(g.max_degree, order)
    shift = _digit_width(width, order)
    nbrs = [g.neighbors(x) for x in range(n)]
    weights = [_pack(_inverse_weight(d), width) for d in g.degrees]
    # the diagonal of (1-(1-t)^2 u^2) I at u^0 and u^2
    units = {0: 1, 2: _pack((-1, 2, -1), width)}
    size = g.max_degree + 1
    first = order + 1
    for start in range(0, n, size):
        stop = min(start + size, n)
        # the rows at C_(m-2) and C_(m-1), zero before C_0; the pass runs at
        # order, so its root digits are shift apart, and stops below the
        # smallest failing u-power found so far
        older = last = (0,) * n
        for m, row in zip(range(first), _walk_rows(g, tuple(range(start, stop)), order)):
            unit = units.get(m, 0)
            if any(c - sum(map(last.__getitem__, nbrs[x])) + weights[x] * older[x]
                   != (unit << ((x - start) * shift) if start <= x < stop else 0)
                   for x, c in enumerate(row)):
                first = m
                break
            older, last = last, row
    failures = [{"display": "plain", "u_power": first}] if first <= order else []
    return _report("walk-series-inverse", g, None, order, failures)


def _r_generating_sides(g, x0, order, width):
    """The display of check_r_generating_identity at width; see
    _check_sides."""
    delta = _lift(_rooted_walk(g, x0, order).delta, width)
    # the double sum, not the record's recursion, so the check stays independent
    lhs = _r_double_sum(delta, order, width)
    rhs = _over_quadratic(_over_quadratic(_shifted(delta, 2), _weight((1, -2, 1), width)),
                          _weight((1, 0, -1), width))
    return [("series", lhs, rhs)]


def check_r_generating_identity(g, x0, order):
    """Verify the closed form of the defect generating function:
    sum_m R_m(x0) u^m = u^2 / ((1-(1-t)^2 u^2)(1-(1-t^2)u^2)) * DC(u),
    on packed ints (see _check_sides)."""
    if order < 3:
        raise ValueError("order must be >= 3")
    _check_vertex(g, x0)
    return _check_sides("defect-generating-function", g, x0, order, _r_generating_sides)
