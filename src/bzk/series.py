"""Exact arithmetic kernel: polynomials in t, truncated power series in u,
and square matrices over both.

Coefficients are Python ints wherever possible and fractions.Fraction as soon
as a division appears; both are exact.  Floating point enters only through the
evaluate methods of TPoly, USeries and OperatorPoly, which the numeric routes
call.
"""

from fractions import Fraction


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


def _add_into(acc, b):
    """acc += b for raw coefficient sequences, growing acc as needed."""
    if len(acc) < len(b):
        acc.extend([0] * (len(b) - len(acc)))
    for i, y in enumerate(b):
        acc[i] += y


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
        """exp of a series with constant term 0, by the derivative
        recurrence n b_n = sum_{k=1}^{n} k a_k b_(n-k), from b' = a' b;
        O(order^2) coefficient products."""
        if not self.c[0].is_zero():
            raise BadConstantTerm("exp needs constant term 0")
        da = self.derivative().c  # da[k-1] = k a_k
        out = [TPOLY_ONE]
        for n in range(1, self.order + 1):
            acc = []
            for k in range(1, n + 1):
                a, b = da[k - 1].c, out[n - k].c
                if a and b:
                    _mul_into(acc, a, b)
            out.append(TPoly(acc) * Fraction(1, n))
        return USeries(self.order, out)

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

    @staticmethod
    def scalar(s, n):
        """Embed a scalar USeries as s * I."""
        ident = OperatorPoly.identity(n)
        return OperatorSeries(n, s.order, [ident.scale(p) for p in s.c])

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
