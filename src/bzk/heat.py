"""Heat kernels on regular graphs: the Bessel-series route, the spectral
route, the weighted Laplace transform linking them to the zeta function, and
the numeric consistency pipeline across all three.  Like the spectral route
in zeta.py, each function that needs numpy imports it on its first call.
"""

import itertools
import math
from functools import lru_cache

from .graphs import _check_vertex
from .operators import alpha
from .records import Record
from .zeta import (DomainError, NotRegular, _dense_operators, _eigh_cached,
                   _require_regular, local_spectrum)


class ParameterDomain(DomainError):
    """t outside the region where the Bessel expansion is defined."""


class NonconvergentTail(DomainError):
    """The supplied growth bound exceeds the transform's decay rate."""


class BesselEval(Record):
    __slots__ = ("order", "argument", "value", "terms_used", "tail_bound")

    def __init__(self, order, argument, value, terms_used, tail_bound):
        self.order = order
        self.argument = argument
        self.value = value
        self.terms_used = terms_used
        self.tail_bound = tail_bound


class HeatKernelValue(Record):
    __slots__ = ("tau", "x0", "x", "value", "route", "truncation", "tail_bound")

    def __init__(self, tau, x0, x, value, route, truncation=None, tail_bound=0.0):
        self.tau = tau
        self.x0 = x0
        self.x = x
        self.value = value
        self.route = route
        self.truncation = truncation
        self.tail_bound = tail_bound


# I_n(tau) <= e^tau, and e^700 is about 1e304: up to this argument no partial
# sum of bessel_i's series overflows, past about 713 they can reach inf, and
# an infinite sum never meets the series' stopping rule
BESSEL_TAU_MAX = 700.0


def _bessel_sum(n, half, first, tol):
    """(value, terms_used, tail_bound) of I_n(2 half) from its first term
    half^n / n!: a monotone sum of positive terms, stopped once the geometric
    majorant of the rest, by the term ratio half^2 / ((m+1)(m+n+1)), is < tol."""
    total = term = first
    for m in itertools.count():
        ratio = half * half / ((m + 1) * (m + n + 1))
        nxt = term * ratio
        if ratio < 1.0:
            bound = nxt / (1.0 - ratio)
            if bound < tol or nxt == 0.0:
                return total, m + 1, bound
        total += nxt
        term = nxt


def bessel_i(n, tau, tol=1e-12):
    """Modified Bessel function of the first kind by its power series.

    Symmetric in the order (I_{-n} = I_n).  The first term (tau/2)^n / n!
    takes n products; the series is _bessel_sum's, as in _bessel_column.
    """
    n = abs(int(n))
    if not 0.0 <= tau <= BESSEL_TAU_MAX:
        raise ValueError(f"tau must be in [0, {BESSEL_TAU_MAX}]")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if tau == 0.0:
        return BesselEval(n, 0.0, 1.0 if n == 0 else 0.0, 1, 0.0)
    half = tau / 2.0
    term = 1.0
    for k in range(1, n + 1):
        term *= half / k
    return BesselEval(n, tau, *_bessel_sum(n, half, term, tol))


def _bessel_grid(n, taus, tol=1e-14):
    """Vectorized power-series evaluation of I_n over a numpy tau grid.

    Sums until every grid point's last term is at most tol times its own
    partial sum, or 500 terms: a relative stop, so a small I_n keeps its
    digits."""
    import numpy as np

    n = abs(int(n))
    taus = np.asarray(taus, dtype=float)
    half = taus / 2.0
    term = np.ones_like(taus)
    for k in range(1, n + 1):
        term = term * half / k
    total = term.copy()
    m = 0
    sq = half * half
    while True:
        term = term * sq / ((m + 1) * (m + n + 1))
        total += term
        m += 1
        if bool(np.all(term <= tol * total)) or m > 500:
            return total


def _exp_tails(x, n_from):
    """Upper bounds on sum_{k >= n} x^k / k! for n = n_from, n_from + 1, ...,
    n_from >= 1: one float product per step, with the same operations, in
    the same order, as recomputing x^n / n! from 1 at every n."""
    term = 1.0
    for k in range(1, n_from):
        term *= x / k
    n = n_from
    while True:
        term *= x / n
        if x < n + 1:
            yield term / (1.0 - x / (n + 1))
        else:
            yield term * math.exp(x)
        n += 1


def _even_tails(x, j_from):
    """Upper bounds on sum_{j' >= j} x^(2j') / (2j')! for j = j_from,
    j_from + 1, ..., j_from >= 1, by the same one-step products as
    _exp_tails."""
    term = 1.0
    for k in range(1, 2 * j_from - 1):
        term *= x / k
    j = j_from
    while True:
        term *= x / (2 * j - 1)
        term *= x / (2 * j)
        ratio = x * x / ((2 * j + 1) * (2 * j + 2))
        if ratio < 1.0:
            yield term / (1.0 - ratio)
        else:
            yield term * math.cosh(x)
        j += 1


# the most terms of each sum in the Bessel double series
MAX_BESSEL_CUTOFF = 600


def _bessel_cutoffs(g, tau, t, tol):
    """(n_max, j_max, tail) of the Bessel double series at one (graph,
    tau > 0, t, tol): the truncation in n and in j, from the factorial
    majorant, and the bound on what the two truncations drop.  term(n, j) is
    at most m_t pref (a tau)^n / n! (b tau)^(2j) / (2j)!, and each cutoff is
    the first that puts its sum's tail under half of tol - tol 1e-2; the
    other 1e-2 of tol is left to the Bessel remainders of _bessel_column.
    At large tau the majorant overflows before MAX_BESSEL_CUTOFF is
    reached; either way ParameterDomain is raised.  Each cutoff costs one
    float product per term, so a grid's work is bounded before any of it
    is done."""
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
        n_tails = _exp_tails(a * tau, 2)
        n_tail = m_t * pref * math.cosh(b * tau) * next(n_tails)
        while n_tail > budget:
            n_max += 1
            if n_max > MAX_BESSEL_CUTOFF:
                raise ParameterDomain("truncation bound did not converge")
            n_tail = m_t * pref * math.cosh(b * tau) * next(n_tails)
        j_max = 1
        j_tails = _even_tails(b * tau, 2)
        j_tail = m_t * pref * math.exp(a * tau) * next(j_tails)
        while j_tail > budget:
            j_max += 1
            if j_max > MAX_BESSEL_CUTOFF:
                raise ParameterDomain("truncation bound did not converge")
            j_tail = m_t * pref * math.exp(a * tau) * next(j_tails)
    except OverflowError as exc:
        raise ParameterDomain("truncation bound did not converge") from exc
    return n_max, j_max, n_tail + j_tail


class _WalkTable:
    """Row x0 of the float walk matrices C_0, C_1, ... at one numeric t, by
    the recursion C_m = C_{m-1} A - w_m C_{m-2}, with w_2 = (1-t)(q+1) and
    w_m = (1-t)(q+t) after it, run on the row alone, and each row's peak
    max_x |C_m(t)[x0, x]|.

    grown is one tuple (rows, peaks), rows read-only.  A growth continues
    the recursion from the last two rows and binds a new tuple, so a tuple
    once read never changes, and the rows up to any count are bit for bit
    those of one pass to that count."""

    def __init__(self, g, t, x0):
        import numpy as np

        self._a, _ = _dense_operators(g)
        q = g.regular_degree() - 1
        self._w2, self._w = (1.0 - t) * (q + 1), (1.0 - t) * (q + t)
        first = np.zeros(g.vertex_count)
        first[x0] = 1.0
        second = self._a[x0].copy()
        for row in (first, second):
            row.flags.writeable = False
        self.grown = ((first, second), (1.0, float(abs(second).max())))

    def upto(self, count):
        """(rows, peaks) of C_0..C_count, growing the table if it is
        shorter."""
        import numpy as np

        grown = self.grown
        if len(grown[0]) <= count:
            rows, peaks = map(list, grown)
            # a row past the float range turns inf or nan, which
            # _bessel_column refuses with one error rather than numpy's
            # warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for m in range(len(rows), count + 1):
                    weight = self._w2 if m == 2 else self._w
                    row = rows[-1] @ self._a - weight * rows[-2]
                    row.flags.writeable = False
                    rows.append(row)
                    peaks.append(float(abs(row).max()))
            grown = self.grown = (tuple(rows), tuple(peaks))
        return grown[0][: count + 1], grown[1][: count + 1]


@lru_cache(maxsize=64)
def _walk_matrix_table(g, t, x0):
    """The _WalkTable of root x0 at numeric t, shared by every count and
    tau that reads it."""
    return _WalkTable(g, t, x0)


def _check_bessel_domain(g, t):
    q = _require_regular(g)
    if not -1.0 < t < 1.0:
        raise ParameterDomain("need |t| < 1")
    if (1.0 - t) * (q + t) <= 0.0:
        raise ParameterDomain("need (1-t)(q+t) > 0")
    return q


def series_weight(j, q, t):
    """Coefficient d_j of the Bessel expansion: 1 at j = 0 and
    -(q-1+2t)/(1-t) for j >= 1; undefined at t = 1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if t == 1.0:
        raise ParameterDomain("weights are undefined at t = 1")
    if j == 0:
        return 1.0
    return -(q - 1.0 + 2.0 * t) / (1.0 - t)


@lru_cache(maxsize=64)
def _bessel_column(g, x0, tau, t, tol):
    """heat_kernel_bessel at every target of root x0, at one
    (graph, root, tau > 0, t, tol): (n_max, j_max, tail, values), where
    values[x] = sum_n C_n(t)[x0, x] inner[n], from the root's rows of the
    walk matrices, with inner[n] = scaled[n] + d_1 sum_j (1-t)^(2j)
    scaled[n+2j] and scaled[k] =
    ((1-t)(q+t))^(-k/2) e^{-(q+1)tau} I_k(2 sqrt((1-t)(q+t)) tau).

    tail bounds the error at every target of root x0: the two truncation
    majorants take (tol - bessel_share) and the Bessel remainders the rest.
    I_k is multiplied by at most s_k mult_k, with s_k = ((1-t)(q+t))^(-k/2)
    e^{-(q+1)tau} and mult_k = sum_{n+2j=k} peak_n w_j, where peak_n is the
    largest |C_n(t)[x0, x]| over targets x, w_0 = 1 and w_j = |d_1| (1-t)^(2j);
    so I_k is requested to share / (s_k mult_k) and s_k mult_k times its
    remainder bound is added to tail.

    One pass over k carries I_k's first term (arg/2)^k / k! as a running
    product of bessel_i's factors; inner is one vector, summed j by j.
    """
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
    w = np.zeros(2 * j_max + 1)  # w_j at index 2j
    w[0] = 1.0
    w[2::2] = abs(d1) * one_minus_t_sq ** np.arange(1, j_max + 1)
    mult = np.convolve(peaks, w).tolist()
    top = n_max + 2 * j_max
    share = bessel_share / (top + 1)
    scaled = np.zeros(top + 1)  # zero where no (n, j) reads I_k
    damp = math.exp(-(q + 1.0) * tau)
    if not arg <= BESSEL_TAU_MAX:
        raise ValueError(f"tau must be in [0, {BESSEL_TAU_MAX}]")
    half, first = arg / 2.0, 1.0
    # past the float range the rows or the multipliers carry no digits
    try:
        for k in range(top + 1):
            if mult[k] != 0.0:
                scale = root_c ** (-k)
                weight = scale * damp * mult[k]
                k_tol = share / weight if weight > 0.0 else 0.0
                if not 0.0 < k_tol < math.inf:
                    raise ParameterDomain("Bessel multiplier outside the float range")
                value, _, bound = _bessel_sum(k, half, first, k_tol)
                scaled[k] = scale * value * damp
                tail += weight * bound
            first *= half / (k + 1)
    except OverflowError as exc:
        raise ParameterDomain("Bessel multiplier outside the float range") from exc
    inner = scaled[: n_max + 1].copy()
    power = 1.0
    for j in range(1, j_max + 1):
        power *= one_minus_t_sq
        inner += d1 * power * scaled[2 * j : 2 * j + n_max + 1]
    # elementwise and in n order, so that each target sees the float
    # operations of a scalar sum: a zero C_n(t)[x0, x] adds a zero, which
    # leaves the sum unchanged, since every accepted row is finite
    values = np.zeros(g.vertex_count)
    for row, c_n in zip(rows, inner.tolist()):
        values = values + row * c_n
    return n_max, j_max, tail, values


def heat_kernel_bessel(g, x0, x, tau, t=0.0, tol=1e-8):
    """Heat kernel value from the Bessel double series.

    K(tau, x0, x) = sum_n C_n(t)[x0,x] sum_j d_j(t) e^{-(q+1)tau}
    (1-t)^(2j) ((1-t)(q+t))^(-(n+2j)/2) I_{n+2j}(2 sqrt((1-t)(q+t)) tau),
    truncated in n and j, with each I_k summed only as far as its
    multiplier needs.  The reported tail bound covers both the truncation
    majorant and the Bessel remainders, and is below tol.  The left side
    does not depend on t; t only reparametrizes the expansion.  The value
    is read from one cached column per (graph, root, tau, t, tol), which
    holds the kernel at every target of the root.
    """
    _check_bessel_domain(g, t)
    _check_vertex(g, x0)
    _check_vertex(g, x)
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a finite number > 0")
    if tau == 0.0:
        return HeatKernelValue(0.0, x0, x, 1.0 if x == x0 else 0.0, "bessel", (0, 0), 0.0)

    n_max, j_max, tail, values = _bessel_column(g, x0, tau, t, tol)
    return HeatKernelValue(tau, x0, x, values[x], "bessel", (n_max, j_max), tail)


def heat_kernel_spectral(g, x0, x, tau):
    """Heat kernel from the Laplacian eigendecomposition:
    sum_i e^{-tau lambda_i} <E_i delta_x0, delta_x>."""
    import numpy as np

    _check_vertex(g, x0)
    _check_vertex(g, x)
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    w, v = _eigh_cached(g)
    value = float(np.sum(np.exp(-tau * w) * v[x0] * v[x]))
    return HeatKernelValue(tau, x0, x, value, "spectral")


def resolvent_transform(f, u, t, q, *, step=1e-3, cutoff=None, tol=1e-9,
                        growth_rate=0.0, growth_scale=1.0):
    """Weighted Laplace transform mapping heat kernels to the resolvent-type
    generating function:

    (u^-2 - (q+t)(1-t)) * integral_0^inf e^{-((q+t)(1-t)u + 1/u - (q+1)) tau}
    f(tau) dtau

    by composite Simpson quadrature.  f must accept a numpy array of tau
    values and satisfy |f(tau)| <= growth_scale * e^(growth_rate tau); the
    cutoff is chosen so the discarded tail is below tol.
    """
    import numpy as np

    c = (q + t) * (1.0 - t)
    if not -1.0 < t < 1.0 or c <= 0.0:
        raise DomainError("need |t| < 1 and (q+t)(1-t) > 0")
    if not 0.0 < u < 1.0 / math.sqrt(c):
        raise DomainError("need 0 < u < 1/sqrt((q+t)(1-t))")
    s0 = c * u + 1.0 / u - (q + 1.0)
    net = s0 - growth_rate
    if net <= 0.0:
        raise NonconvergentTail(
            f"growth rate {growth_rate} is not beaten by decay rate {s0}"
        )
    pref = 1.0 / (u * u) - c
    if cutoff is None:
        spare = math.log(max(1.0, growth_scale * abs(pref) / (net * tol)))
        cutoff = (40.0 + spare) / net
    count = max(2, int(math.ceil(cutoff / step)))
    if count % 2:
        count += 1
    taus = np.linspace(0.0, cutoff, count + 1)
    values = np.exp(-s0 * taus) * np.asarray(f(taus), dtype=float)
    h = cutoff / count
    simpson = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2])
    return float(pref * simpson * h / 3.0)


def bessel_heat_package(k, q, t):
    """The closed-form transform eigenfunction: tau ->
    e^{-(q+1)tau} ((q+t)(1-t))^{-k/2} I_k(2 sqrt((q+t)(1-t)) tau).

    Its transform is exactly u^(k-1).  Returns (f, growth_rate,
    growth_scale) ready for resolvent_transform.
    """
    c = (q + t) * (1.0 - t)
    if c <= 0.0:
        raise DomainError("need (q+t)(1-t) > 0")
    root_c = math.sqrt(c)

    def f(taus):
        import numpy as np

        return np.exp(-(q + 1.0) * taus) * root_c ** (-k) * _bessel_grid(k, 2.0 * root_c * taus)

    # tau^k / k! <= e^tau turns the Bessel bound into a clean exponential
    return f, 2.0 * root_c - q, 1.0


class PipelineReport(Record):
    __slots__ = ("graph", "x0", "x", "u", "t", "quadrature", "series", "spectral_sum",
                 "max_deviation")

    def __init__(self, graph, x0, x, u, t, quadrature, series, spectral_sum, max_deviation):
        self.graph = graph
        self.x0 = x0
        self.x = x
        self.u = u
        self.t = t
        self.quadrature = quadrature
        self.series = series
        self.spectral_sum = spectral_sum
        self.max_deviation = max_deviation

    def to_json(self):
        return {
            "graph": self.graph,
            "root": self.x0,
            "target": self.x,
            "u": self.u,
            "t": self.t,
            "quadrature": self.quadrature,
            "series": self.series,
            "spectral_sum": self.spectral_sum,
            "max_deviation": self.max_deviation,
        }


def check_transform_consistency(g, x0, x, u, t, *, tol=1e-9):
    """Evaluate the transform of the heat kernel three ways and report the
    maximum pairwise deviation.

    (a) quadrature of the spectral heat kernel, (b) the termwise-transformed
    Bessel double series sum_n C_n[x0,x] sum_j d_j (1-t)^(2j) u^(n+2j-1),
    (c) the closed spectral sum of resolvent terms.
    """
    import numpy as np

    q = _check_bessel_domain(g, t)
    _check_vertex(g, x0)
    _check_vertex(g, x)
    a = alpha(g, abs(t))
    if not 0.0 < u < 1.0 / a:
        raise DomainError(f"need 0 < u < 1/alpha = {1.0 / a:.6g}")

    spd = local_spectrum(g, x0, x)
    lams = np.array(spd.eigenvalues)
    mus = np.array(spd.weights)

    def kernel(taus):
        return np.exp(-np.outer(taus, lams)) @ mus

    quadrature = resolvent_transform(
        kernel, u, t, q,
        tol=tol, growth_rate=0.0, growth_scale=float(np.sum(np.abs(mus))) + 1e-12,
    )

    c = (q + t) * (1.0 - t)
    s0 = c * u + 1.0 / u - (q + 1.0)
    spectral_sum = float(np.sum((1.0 / (u * u) - c) / (s0 + lams) * mus))

    d1 = series_weight(1, q, t)
    m_t = max(1.0, abs(d1))
    au = a * u
    r = ((1.0 - t) * u) ** 2
    geom = 1.0 / (1.0 - r)
    n_max = 2
    while m_t * geom / u * au ** (n_max + 1) / (1.0 - au) > tol * 1e-2:
        n_max += 1
        if n_max > 2000:
            raise DomainError("series truncation did not converge")
    rows, _ = _walk_matrix_table(g, t, x0).upto(n_max)
    # sum_j d_j r^j with d_0 = 1 and d_j = d_1 after it
    inner = 1.0 + d1 * r * geom
    series = 0.0
    for n in range(n_max + 1):
        cn = rows[n][x]
        if cn == 0.0:
            continue
        series += cn * inner * u ** (n - 1)

    values = [quadrature, series, spectral_sum]
    deviation = max(abs(p - r2) for p in values for r2 in values)
    return PipelineReport(
        graph=g.label, x0=x0, x=x, u=u, t=t,
        quadrature=quadrature, series=series, spectral_sum=spectral_sum,
        max_deviation=deviation,
    )
