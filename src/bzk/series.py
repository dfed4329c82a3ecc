"""Exact arithmetic kernel: polynomials in t, truncated power series in u,
and square matrices over both.

Coefficients are Python ints wherever possible and fractions.Fraction as soon
as a division appears; both are exact.  The walk recursions and the exp
recurrence run on packed ints, a t-polynomial held as its value at
t = 2^width (_pack, _digits, _unpack).  The exact routes build their exponent
series already scaled to integers, scale k a_k as raw int lists, and hand it
to _exp_from_scaled, so the only Fraction of a route is exp's one division
per output coefficient; USeries.exp scales a Fraction series and runs the
same entry.  Floating point enters only through the evaluate methods of
TPoly, USeries and OperatorPoly, which the numeric routes call.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm


class SeriesError(ValueError):
    """Base class for exact-arithmetic contract violations."""


class OrderMismatch(SeriesError):
    """Two truncated series of different truncation orders were combined."""


class DimensionMismatch(SeriesError):
    """Two operator values of different dimensions were combined."""


class BadConstantTerm(SeriesError):
    """log/exp/inverse applied to a series with the wrong constant term."""


def _canon(x):
    # integral Fractions collapse to int so the common case stays on the
    # fast integer path
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"exact scalar required, got {type(x).__name__!r}")


def _mul_into(acc, a, b):
    """acc += a * b for raw coefficient sequences, growing acc as needed."""
    need = len(a) + len(b) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    acc[i + j] += x * y


@lru_cache(maxsize=256)
def _packed_width(max_degree, order):
    """Bits per t-coefficient in the packed form of the walk recursions.

    The walk-matrix rows, the formula route's f-power and commutator rows,
    and the edge tallies run on packed integers: the t-polynomial
    c_0 + c_1 t + ... + c_d t^d becomes the single int sum_i c_i 2^(i width).
    Packing evaluates at t = 2^width, a ring homomorphism from Z[t] to Z, so
    sums and products of packed ints are exact whatever their size, and
    _unpack recovers a polynomial whenever every coefficient has
    |c| < 2^(width-1).

    width = P.bit_length() + 1 gives 2^(width-1) > P, where P is the largest
    of the bounds below on the l1 norm |p|_1 = sum |c_i| of every value that
    a recursion through length `order` decodes, compares, or holds as a digit
    of a larger packed int, with D = max(max_degree, 2).  The norm bounds
    every |c_i| and is subadditive and submultiplicative, so each bound is
    its recursion run on norms:
    - walk rows, C_m(y, x) = sum_{z ~ x} C_(m-1)(y, z) + w_x C_(m-2)(y, x),
      with at most D neighbours and a weight w = (-d, d) or (1-d, d-2, 1) of
      norm at most 2D: |C_m|_1 <= N_m, with N_0 = N_1 = 1 and
      N_m = D N_(m-1) + 2D N_(m-2);
    - the defect d C_m(x0, x0) - sum_{y ~ x0} C_m(y, y) of a rooted walk:
      2D N_m;
    - the series-inverse difference C_m(y, x) - sum_{z ~ x} C_(m-1)(y, z)
      + w_x C_(m-2)(y, x) - unit, the unit of norm at most 4:
      N_m + D N_(m-1) + 2D N_(m-2) + 4, with N_(-1) = N_(-2) = 0;
    - f-power digits: with s = (1-t) u^2, f = u A - s (D - 1 + t), so the
      u^(k+p) coefficient of f^k(x0, j) is (1-t)^p Q_p(j), and a step is
      Q_p(j) <- sum_{i ~ j} Q_p(i) - (d_j - 1 + t) Q_(p-1)(j), with
      |d - 1 + t|_1 <= D: |Q_p|_1 <= D^k binom(k, p), for the digits
      p <= min(k, order - k) that the route keeps;
    - commutator digits: M_T = M_(T-1) f + f^T D from M_0 = D has the same
      digits, stepped the same way plus d_j times those of f^T, so by
      induction digit p of M_T is at most (T+1) D^(T+1) binom(T, p), and
      the decoded M_T - (T+1) d_x0 f^T at most twice that, for
      T <= order - 2 and the kept p <= min(T, order - 2 - T);
    - edge tallies: a tally at length k sums t^cbc over at most D^k walks:
      D^order.
    Each width is computed once per (max_degree, order).  For D <= 16 and
    order <= 64 it is never wider than the closed form
    D^2 (order+2) (3D)^order that it replaced (tests/test_packing.py).

    A pass of operators._walk_rows packs each root's C_m, of t-degree at
    most order, as one digit of _digit_width(width, order) bits, and the
    formula route each u-power digit, of t-degree at most order // 2, as one
    of _digit_width(width, order // 2) bits.
    """
    big_d = max(max_degree, 2)
    walk = [1, 1]
    while len(walk) <= order:
        walk.append(big_d * walk[-1] + 2 * big_d * walk[-2])
    walk = walk[:order + 1]
    bounds = [2 * big_d * n for n in walk]
    padded = [0, 0] + walk
    bounds += [n + big_d * a + 2 * big_d * b + 4 for n, a, b in zip(walk, padded[1:], padded)]
    bounds += [big_d ** k * comb(k, min(k // 2, order - k)) for k in range(order + 1)]
    bounds += [2 * (T + 1) * big_d ** (T + 1) * comb(T, min(T // 2, order - 2 - T))
               for T in range(order - 1)]
    bounds.append(big_d ** order)
    return max(bounds).bit_length() + 1


def _pack(coeffs, width):
    """The int sum_i coeffs[i] 2^(i width) of a raw integer coefficient
    sequence, lowest t-power first; see _packed_width."""
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def _scaled_exp(a, scale):
    """B_0, ..., B_M for ints a[1..M] (a[0] is not read): B_0 = 1 and
    B_n = sum_{k=1}^{n} a[k] scale^(k-1) (n-1)!/(n-k)! B_(n-k), the scaled
    exp recurrence of USeries.exp.  The weights are folded in by Horner's
    rule, from k = n down to 1: acc = acc (n-k) scale + a[k] B_(n-k)."""
    out = [1]
    for n in range(1, len(a)):
        acc = 0
        for k in range(n, 0, -1):
            acc *= (n - k) * scale
            if a[k]:
                acc += a[k] * out[n - k]
        out.append(acc)
    return out


def _digit_width(width, degree):
    """U = (degree + 1) width: a t-polynomial of t-degree at most degree,
    each coefficient below 2^(width-1) in absolute value, packs to at most
    (2^(width-1) - 1)(2^U - 1)/(2^width - 1) < 2^(U-1), so it is one
    balanced base-2^U digit, which _digit and _digits read exactly."""
    return (degree + 1) * width


def _balanced(v, bits):
    """The residue of v mod 2^bits taken in [-2^(bits-1), 2^(bits-1)): the
    lowest balanced base-2^bits digit of v, as _digits takes it."""
    half = 1 << (bits - 1)
    return ((v + half) & ((1 << bits) - 1)) - half


def _digit(v, r, width):
    """Balanced base-2^width digit r of v, as _digits takes it: the digits
    below r sum to a value in [-2^(r width - 1), 2^(r width - 1)), so
    adding half of 2^(r width) and shifting drops them exactly."""
    low = r * width
    return _balanced((v + ((1 << low) >> 1)) >> low, width)


def _digits(v, width):
    """The raw coefficient list, lowest t-power first, whose packed form is
    v, by balanced base-2^width digits: each digit is taken in
    [-2^(width-1), 2^(width-1)), so negative coefficients come back with
    their sign.  Exact when every coefficient is below 2^(width-1) in
    absolute value; see _packed_width.  A nonzero leading digit c_d puts |v|
    above 2^(d width - 1), so v has at most v.bit_length() // width + 1
    digits; the list may end in zeros, and is empty for v = 0."""
    coeffs = []
    if v:
        for _ in range(v.bit_length() // width + 1):
            c = _balanced(v, width)
            coeffs.append(c)
            v = (v - c) >> width
    return coeffs


def _unpack(v, width):
    """The TPoly whose packed form is v; see _digits."""
    return TPoly(_digits(v, width)) if v else TPOLY_ZERO


def _exp_from_scaled(order, scaled, scale):
    """exp of the series sum_k a_k u^k, truncated at order, given as the raw
    int coefficient lists scaled[k] = scale k a_k, lowest t-power first, for
    k = 0..order (scaled[0] = 0 a_0 is empty); terms past order change
    nothing.

    The scale is first reduced to the smallest L for which every L k a_k is
    integral: L = scale / gcd(scale, every coefficient), which is the lcm of
    the denominators of the coefficients of the k a_k.  The rest is
    USeries.exp's scaled recurrence on A_k = L k a_k.  A larger scale gives
    the same series but puts n times log2 of the excess into every
    coefficient of B_n: unreduced, the formula route's lcm(1, ..., 64) takes
    Petersen's order-64 exp from about 0.14 s to 3 s in-process.

    The reduced exponent, without trailing zero coefficients, keys
    _exp_reduced, so the log, formula and Euler routes, which agree wherever
    the paper's formula holds, exponentiate each distinct exponent once.
    """
    common = gcd(scale, *(c for p in scaled for c in p))
    exponent = []
    for p in scaled:
        p = [c // common for c in p]
        while p and not p[-1]:
            p.pop()
        exponent.append(tuple(p))
    return _exp_reduced(order, tuple(exponent), scale // common)


@lru_cache(maxsize=32)
def _exp_reduced(order, scaled, scale):
    """_exp_from_scaled's recurrence and decode on a reduced exponent, a
    tuple of int tuples.  Equal exponents share one USeries, whose
    coefficients are a tuple, so no caller can change a cached one."""
    width = max(_scaled_exp([sum(map(abs, p)) for p in scaled], scale)).bit_length() + 2
    packed = _scaled_exp([_pack(p, width) for p in scaled], scale)
    out, denominator = [TPOLY_ONE], 1
    for n in range(1, order + 1):
        denominator *= n * scale
        out.append(TPoly([Fraction(c, denominator) for c in _digits(packed[n], width)]))
    return USeries(order, out)


class TPoly:
    """Univariate polynomial in t with exact rational coefficients.

    Stored dense, lowest degree first, no trailing zeros.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [_canon(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @property
    def degree(self):
        return len(self.c) - 1

    def is_zero(self):
        return not self.c

    def coefficient(self, k):
        return Fraction(self.c[k]) if k < len(self.c) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            other = _canon(other)
            if other == 0:
                return not self.c
            return len(self.c) == 1 and self.c[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TPoly((other,))
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return TPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, TPoly) else TPoly((-other,)))

    def __rsub__(self, other):
        return TPoly((other,)) + (-self)

    def __neg__(self):
        return TPoly([-x for x in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return TPOLY_ZERO
            return TPoly([x * other for x in self.c])
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self.c or not other.c:
            return TPOLY_ZERO
        acc = []
        _mul_into(acc, self.c, other.c)
        return TPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = TPOLY_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        """(quotient, remainder) by long division; the remainder's degree is
        below the divisor's."""
        if not isinstance(other, TPoly):
            return NotImplemented
        b = other.c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        lead = Fraction(b[-1])
        rem = list(self.c)
        quo = [0] * max(len(rem) - len(b) + 1, 0)
        for shift in range(len(quo) - 1, -1, -1):
            factor = rem[shift + len(b) - 1] / lead
            if factor:
                quo[shift] = factor
                for i, y in enumerate(b):
                    rem[shift + i] -= factor * y
        return TPoly(quo), TPoly(rem)

    def derivative(self):
        return TPoly([k * x for k, x in enumerate(self.c)][1:])

    def monic(self):
        """This polynomial divided by its leading coefficient."""
        if not self.c:
            raise ZeroDivisionError("the zero polynomial has no leading coefficient")
        return self * (1 / Fraction(self.c[-1]))

    def evaluate(self, t):
        """Horner evaluation; exact when t is int/Fraction, float otherwise."""
        acc = 0 if not isinstance(t, float) else 0.0
        for x in reversed(self.c):
            acc = acc * t + x
        return acc

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for k in range(len(self.c) - 1, -1, -1):
            x = self.c[k]
            if not x:
                continue
            sign = "-" if x < 0 else "+"
            mag = -x if x < 0 else x
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}{var}" if isinstance(mag, int) else f"{mag} {var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"TPoly({list(self.c)!r})"


TPOLY_ZERO = TPoly()
TPOLY_ONE = TPoly((1,))
TPOLY_T = TPoly((0, 1))
ONE_MINUS_T = TPoly((1, -1))


class USeries:
    """Power series in u truncated at a fixed order, TPoly coefficients.

    All arithmetic is exact modulo u^(order+1).
    """

    __slots__ = ("order", "c")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise ValueError("order must be >= 0")
        c = []
        for x in coeffs:
            if not isinstance(x, TPoly):
                x = TPoly((x,))
            c.append(x)
        if len(c) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        c.extend([TPOLY_ZERO] * (order + 1 - len(c)))
        self.order = order
        self.c = tuple(c)

    @staticmethod
    def zero(order):
        return USeries(order)

    @staticmethod
    def one(order):
        return USeries(order, (TPOLY_ONE,))

    def is_zero(self):
        return all(p.is_zero() for p in self.c)

    def coefficient(self, m):
        return self.c[m]

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order}")

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.order == other.order and self.c == other.c

    def __hash__(self):
        return hash((self.order, self.c))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, TPoly)):
            out = list(self.c)
            out[0] = out[0] + other
            return USeries(self.order, out)
        self._check(other)
        return USeries(self.order, [a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, TPoly)):
            out = list(self.c)
            out[0] = out[0] - other
            return USeries(self.order, out)
        self._check(other)
        return USeries(self.order, [a - b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return USeries(self.order, [-a for a in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, TPoly)):
            return USeries(self.order, [a * other for a in self.c])
        self._check(other)
        M = self.order
        out = [TPOLY_ZERO] * (M + 1)
        for i, a in enumerate(self.c):
            if a.is_zero():
                continue
            for j in range(M + 1 - i):
                b = other.c[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return USeries(M, out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by u^k (coefficients above the order fall off)."""
        if k < 0:
            raise ValueError("negative shift")
        return USeries(self.order, [TPOLY_ZERO] * k + list(self.c[: self.order + 1 - k]))

    def truncate(self, order):
        if order > self.order:
            raise OrderMismatch("cannot extend a truncated series")
        return USeries(order, self.c[: order + 1])

    def inverse(self):
        """Reciprocal series; constant term must be 1."""
        if self.c[0] != TPOLY_ONE:
            raise BadConstantTerm("inverse needs constant term 1")
        M = self.order
        out = [TPOLY_ONE] + [TPOLY_ZERO] * M
        for m in range(1, M + 1):
            acc = TPOLY_ZERO
            for k in range(1, m + 1):
                a = self.c[k]
                if not a.is_zero():
                    acc = acc + a * out[m - k]
            out[m] = -acc
        return USeries(M, out)

    def log(self):
        """log of a series with constant term 1, by the derivative
        recurrence n b_n = n a_n - sum_{k=1}^{n-1} k b_k a_(n-k), from
        b' a = a'; O(order^2) coefficient products."""
        if self.c[0] != TPOLY_ONE:
            raise BadConstantTerm("log needs constant term 1")
        da = self.derivative().c  # da[n-1] = n a_n
        out = [TPOLY_ZERO]
        neg_kb = [()]  # neg_kb[k] = -k b_k as a raw coefficient list
        for n in range(1, self.order + 1):
            acc = list(da[n - 1].c)
            for k in range(1, n):
                a = self.c[n - k].c
                if a and neg_kb[k]:
                    _mul_into(acc, neg_kb[k], a)
            neg_kb.append([-x for x in acc])
            out.append(TPoly(acc) * Fraction(1, n))
        return USeries(self.order, out)

    def exp(self):
        """exp of a series with constant term 0, on packed integers, with one
        division per coefficient.

        From b' = a' b, n b_n = sum_{k=1}^{n} k a_k b_(n-k) (Brent and Kung).
        Let L be the lcm of the denominators of the coefficients of the
        k a_k, so that A_k = L k a_k has integer coefficients.  Then
        B_n = n! L^n b_n satisfies B_0 = 1 and
        B_n = sum_{k=1}^{n} A_k L^(k-1) (n-1)!/(n-k)! B_(n-k) in Z[t], which
        _scaled_exp runs on the A_k packed at t = 2^width: each term is one
        big-int product.  Each B_n is decoded once and divided by n! L^n.
        This method computes L and the A_k from the Fractions of the series
        and runs _exp_from_scaled; the exact routes build their A_k as ints
        and call _exp_from_scaled directly.

        The width is computed, not assumed.  Packing is a ring homomorphism,
        so the packed B_n are exact whatever their size, and only the decode
        needs every coefficient of B_n below 2^(width-1) in absolute value.
        The l1 norm |p|_1 = sum |c_i| is subadditive and submultiplicative
        and the weights L^(k-1) (n-1)!/(n-k)! are positive, so the same
        recurrence on norms, N_0 = 1 and
        N_n = sum_{k=1}^{n} |A_k|_1 L^(k-1) (n-1)!/(n-k)! N_(n-k),
        run in exact ints, gives |c| <= |B_n|_1 <= N_n; the width
        max_n N_n.bit_length() + 2 puts 2^(width-1) above every N_n.
        O(order^2) products of packed ints.
        """
        if not self.c[0].is_zero():
            raise BadConstantTerm("exp needs constant term 0")
        # k x has denominator x.denominator / gcd(k, x.denominator)
        scale = lcm(*(x.denominator // gcd(k, x.denominator)
                      for k, p in enumerate(self.c) for x in p.c))
        scaled = [[k * x.numerator * scale // x.denominator for x in p.c]
                  for k, p in enumerate(self.c)]
        return _exp_from_scaled(self.order, scaled, scale)

    def derivative(self):
        out = [self.c[k + 1] * (k + 1) for k in range(self.order)]
        return USeries(self.order, out)

    def evaluate(self, t, u):
        """Double-precision Horner evaluation at numeric (t, u)."""
        acc = 0.0
        for p in reversed(self.c):
            acc = acc * u + p.evaluate(float(t))
        return acc

    def __str__(self):
        parts = [f"({p})u^{m}" for m, p in enumerate(self.c) if not p.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"USeries(order={self.order}, c={[repr(p) for p in self.c]})"

    def to_json(self):
        """u-major array of t-coefficient arrays, rationals as "p/q" strings."""
        out = []
        for p in self.c:
            row = []
            for k in range(len(p.c)):
                q = Fraction(p.c[k])
                row.append(f"{q.numerator}/{q.denominator}")
            out.append(row)
        return out

    @staticmethod
    def from_json(data):
        coeffs = [TPoly([Fraction(s) for s in row]) for row in data]
        return USeries(len(coeffs) - 1, coeffs)


def _matrix_acc(n):
    """An n x n accumulator of raw coefficient lists, None where untouched."""
    return [[None] * n for _ in range(n)]


def _matmul_into(acc, a_rows, b_rows):
    """acc += A * B for the rows of two TPoly matrices, entry by entry on raw
    coefficient lists."""
    for ra, out in zip(a_rows, acc):
        for a, rb in zip(ra, b_rows):
            if not a.c:
                continue
            for j, b in enumerate(rb):
                if b.c:
                    col = out[j]
                    if col is None:
                        col = out[j] = []
                    _mul_into(col, a.c, b.c)


def _matrix_from_acc(acc):
    return OperatorPoly([[TPOLY_ZERO if col is None else TPoly(col) for col in row]
                         for row in acc])


class OperatorPoly:
    """Square matrix with TPoly entries, indexed by vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(p if isinstance(p, TPoly) else TPoly((p,)) for p in r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("matrix must be square")
        self.n = n
        self.rows = rows

    @staticmethod
    def identity(n):
        return OperatorPoly([[TPOLY_ONE if i == j else TPOLY_ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n):
        return OperatorPoly([[TPOLY_ZERO] * n for _ in range(n)])

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return OperatorPoly([[entries[i] if i == j else TPOLY_ZERO for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.rows[i][j]

    def diag(self):
        return [self.rows[i][i] for i in range(self.n)]

    def is_zero(self):
        return all(p.is_zero() for r in self.rows for p in r)

    def is_symmetric(self):
        return all(self.rows[i][j] == self.rows[j][i] for i in range(self.n) for j in range(i))

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __add__(self, other):
        self._check(other)
        return OperatorPoly([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return OperatorPoly([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return OperatorPoly([[-a for a in r] for r in self.rows])

    def scale(self, s):
        return OperatorPoly([[a * s for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, TPoly)):
            return self.scale(other)
        self._check(other)
        acc = _matrix_acc(self.n)
        _matmul_into(acc, self.rows, other.rows)
        return _matrix_from_acc(acc)

    __rmul__ = scale

    def evaluate(self, t):
        """Entrywise evaluation; returns a plain list-of-lists."""
        return [[p.evaluate(t) for p in row] for row in self.rows]

    def __repr__(self):
        return f"OperatorPoly(n={self.n})"


class OperatorSeries:
    """Truncated power series in u whose coefficients are OperatorPoly."""

    __slots__ = ("n", "order", "c")

    def __init__(self, n, order, coeffs=()):
        c = list(coeffs)
        for m in c:
            if m.n != n:
                raise DimensionMismatch("coefficient dimension mismatch")
        if len(c) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        c.extend([OperatorPoly.zero(n)] * (order + 1 - len(c)))
        self.n = n
        self.order = order
        self.c = tuple(c)

    @staticmethod
    def identity(n, order):
        return OperatorSeries(n, order, (OperatorPoly.identity(n),))

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order}")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def coefficient(self, m):
        return self.c[m]

    def entry(self, i, j):
        return USeries(self.order, [mat.rows[i][j] for mat in self.c])

    def is_zero(self):
        return all(m.is_zero() for m in self.c)

    def __eq__(self, other):
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        return self.n == other.n and self.order == other.order and self.c == other.c

    def __add__(self, other):
        self._check(other)
        return OperatorSeries(self.n, self.order, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        self._check(other)
        return OperatorSeries(self.n, self.order, [a - b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return OperatorSeries(self.n, self.order, [-a for a in self.c])

    def scale(self, s):
        return OperatorSeries(self.n, self.order, [a.scale(s) for a in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, TPoly)):
            return self.scale(other)
        self._check(other)
        M = self.order
        acc = [_matrix_acc(self.n) for _ in range(M + 1)]
        for i, a in enumerate(self.c):
            for j in range(M + 1 - i):
                _matmul_into(acc[i + j], a.rows, other.c[j].rows)
        return OperatorSeries(self.n, M, [_matrix_from_acc(grid) for grid in acc])

    def __repr__(self):
        return f"OperatorSeries(n={self.n}, order={self.order})"
