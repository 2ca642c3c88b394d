"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

An element is stored in integer normal form as three ints (p, q, c)
meaning (p + q*sqrt(D))/c, with c > 0 and gcd(p, q, c) = 1, so every
ring operation, comparison, norm, sign and floor runs on Python ints and
no floating point enters any predicate.  A :class:`FieldContext` fixes
D, the integral basis {1, alpha}, and the fundamental unit eps > 1 of
the maximal order, and is shared by all elements derived from it.

The fundamental unit comes from the continued fraction of the basis
element alpha: sqrt(D) when D = 2,3 mod 4 and (1+sqrt(D))/2 when
D = 1 mod 4 (the maximal order then contains half-integral units such as
(1+sqrt(5))/2 which the plain Pell equation misses).  The first
convergent p/q whose element p - q*conj(alpha) has norm +-1 is eps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt, lcm


def _is_square_free(n: int) -> bool:
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


def _fundamental_unit(D: int) -> tuple[int, int, int]:
    """eps > 1 generating the units of the maximal order, as (p, q, c)
    meaning (p + q*sqrt(D))/c, not necessarily in normal form.

    Walks the continued fraction of alpha = (P + sqrt(D))/Q, with
    (P, Q) = (1, 2) or (0, 1), keeping the complete quotients in the same
    form.  For every unit eps > 1 the pair (p, q) with eps = p - q*conj(alpha)
    has q >= 1 and |alpha - p/q| = 1/(eps*q), below 1/(2q^2) because
    eps > 2q (apart from D = 5, where eps = 1 - conj(alpha) comes from the
    first convergent 1/1), so p/q is a convergent.  Units grow with q, so
    the first convergent of unit norm gives the least unit.
    """
    P0, Q0 = (1, 2) if D % 4 == 1 else (0, 1)
    trace, norm_num = 2 * P0 // Q0, (P0 * P0 - D) // (Q0 * Q0)  # of alpha; exact
    P, Q = P0, Q0
    s = isqrt(D)
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    while True:
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1  # floor((P+sqrt D)/Q)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        # Nm(p - q*alpha) = p^2 - trace*p*q + Nm(alpha)*q^2
        if p * p - trace * p * q + norm_num * q * q in (1, -1):
            # p - q*conj(alpha) = (Q0*p - P0*q + q*sqrt D)/Q0
            return Q0 * p - P0 * q, q, Q0
        P = a * Q - P
        Q = (D - P * P) // Q


def _elem(ctx: "FieldContext", p: int, q: int, c: int) -> "QElem":
    """The element (p + q*sqrt(D))/c; (p, q, c) must be in normal form."""
    z = object.__new__(QElem)
    z.ctx, z.p, z.q, z.c = ctx, p, q, c
    return z


def _reduced(ctx: "FieldContext", p: int, q: int, c: int) -> "QElem":
    """The element (p + q*sqrt(D))/c for any c != 0, brought to normal form."""
    if c == 1:
        return _elem(ctx, p, q, 1)
    g = gcd(p, q, c)
    if c < 0:
        g = -g
    if g != 1:
        p, q, c = p // g, q // g, c // g
    return _elem(ctx, p, q, c)


def _sign(a: int, b: int, D: int) -> int:
    """Sign of a + b*sqrt(D); exact (a^2 = D*b^2 only when a = b = 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    return -sb if a * a > D * b * b else sb


class QElem:
    """An element (p + q*sqrt(D))/c of the field fixed by a FieldContext.

    ``QElem(ctx, a, b)`` builds a + b*sqrt(D) from ints or Fractions;
    ``a`` and ``b`` read back as Fractions.
    """

    __slots__ = ("ctx", "p", "q", "c")

    def __init__(self, ctx: "FieldContext", a, b=0):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        # a and b are in lowest terms, so over their least common
        # denominator gcd(p, q, c) = 1 already
        c = lcm(a.denominator, b.denominator)
        self.ctx = ctx
        self.p = a.numerator * (c // a.denominator)
        self.q = b.numerator * (c // b.denominator)
        self.c = c

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.c)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.c)

    # -- ring structure -------------------------------------------------

    def _triple(self, other):
        """(p, q, c) of a field element, int or Fraction; None otherwise."""
        if type(other) is QElem:
            if other.ctx is not self.ctx and other.ctx.D != self.ctx.D:
                raise ValueError("elements from different fields")
            return other.p, other.q, other.c
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        p, q, c = t
        if c == self.c:
            return _reduced(self.ctx, self.p + p, self.q + q, c)
        return _reduced(self.ctx, self.p * c + p * self.c, self.q * c + q * self.c, self.c * c)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        p, q, c = t
        if c == self.c:
            return _reduced(self.ctx, self.p - p, self.q - q, c)
        return _reduced(self.ctx, self.p * c - p * self.c, self.q * c - q * self.c, self.c * c)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _elem(self.ctx, -self.p, -self.q, self.c)

    def __mul__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        p, q, c = t
        sp, sq = self.p, self.q
        return _reduced(
            self.ctx, sp * p + self.ctx.D * sq * q, sp * q + sq * p, self.c * c
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        p, q, c = t
        nm = p * p - self.ctx.D * q * q
        if nm == 0:
            raise ZeroDivisionError("division by zero field element")
        # z/w = z * conj(w) / Nm(w), with conj(w) = (p - q*sqrt D)/c and
        # Nm(w) = nm/c^2
        sp, sq = self.p, self.q
        return _reduced(
            self.ctx,
            (sp * p - self.ctx.D * sq * q) * c,
            (sq * p - sp * q) * c,
            self.c * nm,
        )

    def __rtruediv__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return _elem(self.ctx, *t) / self

    def __pow__(self, k: int):
        if k < 0:
            return (1 / self) ** (-k)
        result = _elem(self.ctx, 1, 0, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- field-specific operations --------------------------------------

    def conj(self) -> "QElem":
        return _elem(self.ctx, self.p, -self.q, self.c)

    def norm(self) -> Fraction:
        """Field norm (p^2 - D*q^2)/c^2 (signed)."""
        return Fraction(self.p * self.p - self.ctx.D * self.q * self.q, self.c * self.c)

    def abs_norm(self) -> Fraction:
        return abs(self.norm())

    def sign(self) -> int:
        return _sign(self.p, self.q, self.ctx.D)

    def is_rational(self) -> bool:
        return self.q == 0

    def to_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.p, self.c)

    def floor(self) -> int:
        # floor(q*sqrt D) is isqrt(D*q^2) for q > 0 and -isqrt(D*q^2) - 1
        # for q < 0 (q*sqrt D is irrational); the fractional part left over
        # is below 1, so it cannot carry p + floor(q*sqrt D) past a
        # multiple of c
        p, q = self.p, self.q
        if q > 0:
            p += isqrt(self.ctx.D * q * q)
        elif q < 0:
            p -= isqrt(self.ctx.D * q * q) + 1
        return p // self.c

    def ceil(self) -> int:
        return -(-self).floor()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order and equality ----------------------------------------------

    def _cmp(self, other):
        """Sign of self - other, None for an unsupported operand."""
        t = self._triple(other)
        if t is None:
            return None
        p, q, c = t
        if c == self.c:
            return _sign(self.p - p, self.q - q, self.ctx.D)
        return _sign(self.p * c - p * self.c, self.q * c - q * self.c, self.ctx.D)

    def __eq__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return self.p == t[0] and self.q == t[1] and self.c == t[2]

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.c == 1 else hash(Fraction(self.p, self.c))
        return hash((self.ctx.D, self.p, self.q, self.c))

    def __float__(self):
        return self.p / self.c + self.q / self.c * math.sqrt(self.ctx.D)

    def __repr__(self):
        if self.q == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt{self.ctx.D})"


class FieldContext:
    """Fixed data for K = Q(sqrt(D)): basis, fundamental unit, search box.

    Attributes are set once at construction and treated as immutable;
    contexts are safe to share between threads.

    ``m1_bound`` is a rational upper bound for the inhomogeneous minimum
    of the field, used only to size the representative search box; any
    valid upper bound is safe, larger values just enlarge searches.  The
    default is ceil(sqrt(D)).
    """

    def __init__(self, D: int, m1_bound=None):
        if not isinstance(D, int) or D <= 1:
            raise ValueError(f"D must be an integer > 1, got {D!r}")
        if not _is_square_free(D):
            raise ValueError(f"D must be square-free, got {D}")
        self.D = D

        # alpha = (P + sqrt D)/Q
        P, Q = (1, 2) if D % 4 == 1 else (0, 1)
        self._alpha_pq = P, Q
        self.alpha = _elem(self, P, 1, Q)
        self.alpha_conj = self.alpha.conj()
        self.alpha_trace = 2 * P // Q  # alpha + conj(alpha)
        self.alpha_norm = (P * P - D) // (Q * Q)  # alpha * conj(alpha)
        self.covolume = self.alpha - self.alpha_conj  # positive

        self.eps = _reduced(self, *_fundamental_unit(D))
        nm = self.eps.norm()
        if nm not in (1, -1):
            raise AssertionError(f"unit computation failed for D={D}: norm {nm}")
        self.nm_eps = int(nm)
        self.eps_conj = self.eps.conj()
        self.eps_conj_sign = self.nm_eps  # sign of conj(eps) = Nm(eps)/eps
        self.eps_inv = self.eps_conj * self.nm_eps  # 1/eps, always positive

        # integer coordinates of eps in the basis {1, alpha}
        e0, e1 = self.xy_of(self.eps)
        if e0.denominator != 1 or e1.denominator != 1:
            raise AssertionError(f"unit not integral in basis for D={D}")
        self.unit_xy = (int(e0), int(e1))

        # matrix of multiplication by eps on (x, y) basis coordinates,
        # using alpha^2 = T*alpha - N
        T, N = self.alpha_trace, self.alpha_norm
        m00, m10 = self.unit_xy
        m01 = -m10 * N
        m11 = m00 + m10 * T
        self.phi_matrix = ((m00, m01), (m10, m11))
        det = m00 * m11 - m01 * m10  # equals Nm(eps)
        self.phi_inv_matrix = ((m11 * det, -m01 * det), (-m10 * det, m00 * det))

        if m1_bound is None:
            self.m1_bound = Fraction(isqrt(D) + 1)
        else:
            self.m1_bound = Fraction(m1_bound)
            if self.m1_bound <= 0:
                raise ValueError("m1_bound must be positive")
        # rational outer bound W >= sqrt(eps*(m1_bound+1)); used only to
        # bound searches, never to decide trapping
        self.box_halfwidth = rational_sqrt_upper(self.eps * (self.m1_bound + 1))

    # -- element constructors --------------------------------------------

    def elem(self, a, b=0) -> QElem:
        return QElem(self, a, b)

    def from_xy(self, x, y) -> QElem:
        """Element with coordinates (x, y) in the basis {1, alpha}."""
        if isinstance(x, int) and isinstance(y, int):
            P, Q = self._alpha_pq
            return _reduced(self, Q * x + P * y, y, Q)
        return self.alpha * y + x

    def xy_of(self, z: QElem) -> tuple[Fraction, Fraction]:
        """Coordinates of z in the basis {1, alpha}."""
        P, Q = self._alpha_pq
        return Fraction(z.p - P * z.q, z.c), Fraction(Q * z.q, z.c)

    def __repr__(self):
        return f"FieldContext(D={self.D})"


def make_context(D: int, m1_bound=None) -> FieldContext:
    """Validated context for Q(sqrt(D)) with exact fundamental unit eps > 1."""
    return FieldContext(D, m1_bound=m1_bound)


def abs_norm(x: QElem) -> Fraction:
    """|Nm(x)| = |a^2 - D*b^2|."""
    return x.abs_norm()


def compare(x: QElem, y: QElem) -> int:
    """-1, 0 or +1, under the embedding sqrt(D) > 0; exact."""
    if isinstance(x, QElem):
        return (x - y).sign()
    return (-(y - x)).sign()


def rational_sqrt_upper(z, denominator: int = 10**8) -> Fraction:
    """The least W = c/denominator with W^2 >= z; exact.

    ``z`` may be a Fraction or a (non-negative) QElem.  The bound is
    tight to 1/denominator; it only ever enlarges search boxes.  With
    v = ceil(z*denominator^2), c^2 >= z*denominator^2 holds for an
    integer c exactly when c^2 >= v, so c = isqrt(v - 1) + 1.
    """
    if z < 0:
        raise ValueError("negative argument")
    scaled = z * denominator**2
    v = scaled.ceil() if isinstance(scaled, QElem) else math.ceil(scaled)
    return Fraction(isqrt(v - 1) + 1 if v > 0 else 0, denominator)
