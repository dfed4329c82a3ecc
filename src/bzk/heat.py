"""Heat kernels on regular graphs: the Bessel-series route, the spectral
route, the weighted Laplace transform linking them to the zeta function, and
the numeric consistency pipeline across all three.  Like the spectral route
in zeta.py, each function that needs numpy imports it on its first call.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .graphs import operators
from .operators import alpha
from .zeta import (DomainError, EigensolverFailure, NotRegular, _eigh_cached,
                   _require_regular, local_spectrum)


class ParameterDomain(DomainError):
    """t outside the region where the Bessel expansion is defined."""


class NonconvergentTail(DomainError):
    """The supplied growth bound exceeds the transform's decay rate."""


@dataclass
class BesselEval:
    order: int
    argument: float
    value: float
    terms_used: int
    tail_bound: float


@dataclass
class HeatKernelValue:
    tau: float
    x0: int
    x: int
    value: float
    route: str
    truncation: tuple | None = None
    tail_bound: float = 0.0


# I_n(tau) <= e^tau, and e^700 is about 1e304: up to this argument no partial
# sum of bessel_i's series overflows, past about 713 they can reach inf, and
# an infinite sum never meets the series' stopping rule
BESSEL_TAU_MAX = 700.0


def bessel_i(n, tau, tol=1e-12):
    """Modified Bessel function of the first kind by its power series.

    Symmetric in the order (I_{-n} = I_n).  Terms are all positive, so the
    partial sum is monotone; the reported tail bound is the geometric
    majorant from the term ratio (tau/2)^2 / ((m+1)(m+n+1)).
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
    total = term
    m = 0
    while True:
        ratio = half * half / ((m + 1) * (m + n + 1))
        nxt = term * ratio
        if ratio < 1.0:
            bound = nxt / (1.0 - ratio)
            if bound < tol or nxt == 0.0:
                return BesselEval(n, tau, total, m + 1, bound)
        total += nxt
        term = nxt
        m += 1


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


def _exp_tail(x, n_from):
    """Upper bound on sum_{k >= n_from} x^k / k!."""
    if n_from <= 0:
        return math.exp(x)
    term = 1.0
    for k in range(1, n_from + 1):
        term *= x / k
    if x < n_from + 1:
        return term / (1.0 - x / (n_from + 1))
    return term * math.exp(x)


def _even_tail(x, j_from):
    """Upper bound on sum_{j >= j_from} x^(2j) / (2j)!."""
    if j_from <= 0:
        return math.cosh(x)
    term = 1.0
    for k in range(1, 2 * j_from + 1):
        term *= x / k
    ratio = x * x / ((2 * j_from + 1) * (2 * j_from + 2))
    if ratio < 1.0:
        return term / (1.0 - ratio)
    return term * math.cosh(x)


@lru_cache(maxsize=64)
def _walk_matrix_table(g, t, count):
    """Float walk matrices C_0..C_count at numeric t, by the recursion."""
    import numpy as np

    adjacency, _, _ = operators(g)
    n = g.vertex_count
    a = np.array(adjacency, dtype=float)
    q = g.regular_degree() - 1
    mats = [np.eye(n), a.copy()]
    if count >= 2:
        mats.append(a @ a - (1.0 - t) * (q + 1) * np.eye(n))
    for _ in range(3, count + 1):
        mats.append(mats[-1] @ a - (1.0 - t) * (q + t) * mats[-2])
    return mats[: count + 1]


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
def _bessel_column(g, tau, t, tol):
    """The target-independent part of heat_kernel_bessel at one
    (graph, tau > 0, t, tol): (n_max, j_max, tail, inner), where inner[n] =
    scaled[n] + d_1 sum_j (1-t)^(2j) scaled[n+2j] and scaled[k] =
    ((1-t)(q+t))^(-k/2) e^{-(q+1)tau} I_k(2 sqrt((1-t)(q+t)) tau).

    tail bounds the error at every root and target: the two truncation
    majorants take (tol - bessel_share) and the Bessel remainders the rest.
    I_k is multiplied by at most s_k mult_k, with s_k = ((1-t)(q+t))^(-k/2)
    e^{-(q+1)tau} and mult_k = sum_{n+2j=k} peak_n w_j, where peak_n is the
    largest |C_n(t)| entry, w_0 = 1 and w_j = |d_1| (1-t)^(2j); so I_k is
    requested to share / (s_k mult_k) and s_k mult_k times its remainder
    bound is added to tail.
    """
    import numpy as np

    q = g.regular_degree() - 1
    c = (1.0 - t) * (q + t)
    root_c = math.sqrt(c)
    arg = 2.0 * root_c * tau
    a = alpha(g, abs(t))
    b = abs(1.0 - t)
    d1 = series_weight(1, q, t)
    m_t = max(1.0, abs(d1))
    pref = math.exp(arg - (q + 1.0) * tau)
    bessel_share = tol * 1e-2
    budget = (tol - bessel_share) / 2.0

    # truncation from the factorial majorant: term(n, j) is at most
    # m_t * pref * (a tau)^n / n! * (b tau)^(2j) / (2j)!; at large tau the
    # majorant overflows before the 600-term cap is reached
    try:
        n_max = 1
        while m_t * pref * math.cosh(b * tau) * _exp_tail(a * tau, n_max + 1) > budget:
            n_max += 1
            if n_max > 600:
                raise ParameterDomain("truncation bound did not converge")
        j_max = 1
        while m_t * pref * math.exp(a * tau) * _even_tail(b * tau, j_max + 1) > budget:
            j_max += 1
            if j_max > 600:
                raise ParameterDomain("truncation bound did not converge")
        tail = (
            m_t * pref * math.cosh(b * tau) * _exp_tail(a * tau, n_max + 1)
            + m_t * pref * math.exp(a * tau) * _even_tail(b * tau, j_max + 1)
        )
    except OverflowError as exc:
        raise ParameterDomain("truncation bound did not converge") from exc

    peak = [float(abs(m).max()) for m in _walk_matrix_table(g, t, n_max)]
    one_minus_t_sq = (1.0 - t) ** 2
    w = np.zeros(2 * j_max + 1)  # w_j at index 2j
    w[0] = 1.0
    w[2::2] = abs(d1) * one_minus_t_sq ** np.arange(1, j_max + 1)
    mult = np.convolve(peak, w).tolist()
    top = n_max + 2 * j_max
    share = bessel_share / (top + 1)
    scaled = []
    damp = math.exp(-(q + 1.0) * tau)
    # past the float range the walk matrices, or the multipliers, carry no
    # digits of the answer
    try:
        for k in range(top + 1):
            if mult[k] == 0.0:
                scaled.append(0.0)  # no (n, j) reads I_k
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
    inner = []
    for n in range(n_max + 1):
        total = scaled[n]
        power = 1.0
        for j in range(1, j_max + 1):
            power *= one_minus_t_sq
            total += d1 * power * scaled[n + 2 * j]
        inner.append(total)
    return n_max, j_max, tail, tuple(inner)


def _check_vertex(g, v):
    if v not in range(g.vertex_count):
        raise ValueError(f"vertex {v!r} is not in range({g.vertex_count})")


def heat_kernel_bessel(g, x0, x, tau, t=0.0, tol=1e-8):
    """Heat kernel value from the Bessel double series.

    K(tau, x0, x) = sum_n C_n(t)[x0,x] sum_j d_j(t) e^{-(q+1)tau}
    (1-t)^(2j) ((1-t)(q+t))^(-(n+2j)/2) I_{n+2j}(2 sqrt((1-t)(q+t)) tau),
    truncated in n and j, with each I_k summed only as far as its
    multiplier needs.  The reported tail bound covers both the truncation
    majorant and the Bessel remainders, and is below tol.  The left side
    does not depend on t; t only reparametrizes the expansion.  Everything
    but C_n(t)[x0,x] is one cached column per (graph, tau, t, tol), shared
    by every root and target.
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

    n_max, j_max, tail, inner = _bessel_column(g, tau, t, tol)
    mats = _walk_matrix_table(g, t, n_max)
    value = 0.0
    for n in range(n_max + 1):
        cn = mats[n][x0, x]
        if cn == 0.0:
            continue
        value += cn * inner[n]
    return HeatKernelValue(tau, x0, x, value, "bessel", (n_max, j_max), tail)


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


@dataclass
class PipelineReport:
    graph: str
    x0: int
    x: int
    u: float
    t: float
    quadrature: float
    series: float
    spectral_sum: float
    max_deviation: float

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
    j_max = 2
    while m_t / (u * (1.0 - au)) * r ** (j_max + 1) / (1.0 - r) > tol * 1e-2:
        j_max += 1
        if j_max > 2000:
            raise DomainError("series truncation did not converge")
    mats = _walk_matrix_table(g, t, n_max)
    inner = 1.0
    weight = 1.0
    for j in range(1, j_max + 1):
        weight *= r
        inner += d1 * weight
    series = 0.0
    for n in range(n_max + 1):
        cn = mats[n][x0, x]
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
