"""Exact axis-parallel rectangle geometry in the stable/unstable plane.

Intervals and rectangles carry field-element endpoints, so emptiness
and containment questions are decided exactly.  The lattice is
the ring of integers embedded as q -> (conj(q), q); all torus operations
reduce to enumerating the finitely many lattice translates that can meet
a bounded region, which needs only exact floors of field elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qfield import FieldContext, QElem


@dataclass(frozen=True, slots=True)
class Iv:
    """Closed interval [lo, hi] with exact endpoints; used openly where noted."""

    lo: QElem
    hi: QElem

    def length(self) -> QElem:
        return self.hi - self.lo

    def shift(self, delta) -> "Iv":
        return Iv(self.lo + delta, self.hi + delta)

    def scale(self, factor: QElem) -> "Iv":
        a, b = self.lo * factor, self.hi * factor
        return Iv(a, b) if factor.sign() >= 0 else Iv(b, a)

    def intersect_open(self, other: "Iv") -> "Iv | None":
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return Iv(lo, hi) if lo < hi else None

    def __eq__(self, other):
        return self.lo == other.lo and self.hi == other.hi


@dataclass(frozen=True, slots=True)
class Rect:
    """Plane rectangle s x u; ``word`` is its coordinate word when it
    belongs to a partition (a tuple of generator symbol indices)."""

    s: Iv
    u: Iv
    word: tuple[int, ...] = field(default=())

    def area(self) -> QElem:
        return self.s.length() * self.u.length()

    def corners(self):
        for cs in (self.s.lo, self.s.hi):
            for cu in (self.u.lo, self.u.hi):
                yield cs, cu

    def translate(self, q: QElem) -> "Rect":
        """This rectangle shifted by the lattice point q: subtract (conj q, q)."""
        return Rect(self.s.shift(-q.conj()), self.u.shift(-q), self.word)


def phi_inv_rect(ctx: FieldContext, r: Rect) -> Rect:
    return Rect(r.s.scale(ctx.eps * ctx.nm_eps), r.u.scale(ctx.eps_inv), r.word)


def lattice_in_box(ctx: FieldContext, s_iv: Iv, u_iv: Iv, open_box: bool = True):
    """All lattice elements q with conj(q) in s_iv and q in u_iv.

    Yields the integer coordinates (m, n) of q = m + n*alpha, in
    deterministic (n, m) order; ``ctx.from_xy(m, n)`` gives q.  With
    ``open_box`` the interval endpoints are excluded.
    """
    alpha, alpha_conj = ctx.alpha, ctx.alpha_conj
    covol = ctx.covolume

    def int_range(lo_e: QElem, hi_e: QElem) -> range:
        # integers in the open (resp. closed) interval [lo_e, hi_e]
        if open_box:
            return range(lo_e.floor() + 1, hi_e.ceil())
        return range(lo_e.ceil(), hi_e.floor() + 1)

    # q - conj(q) = n * (alpha - conj(alpha)) constrains n
    for n in int_range((u_iv.lo - s_iv.hi) / covol, (u_iv.hi - s_iv.lo) / covol):
        m_lo_1 = s_iv.lo - alpha_conj * n
        m_hi_1 = s_iv.hi - alpha_conj * n
        m_lo_2 = u_iv.lo - alpha * n
        m_hi_2 = u_iv.hi - alpha * n
        m_lo_e = m_lo_1 if m_lo_1 >= m_lo_2 else m_lo_2
        m_hi_e = m_hi_1 if m_hi_1 <= m_hi_2 else m_hi_2
        for m in int_range(m_lo_e, m_hi_e):
            yield m, n


def torus_components(ctx: FieldContext, moving: Rect, fixed: Rect):
    """Components of (moving - q) meet fixed over all lattice translates q.

    Open-rectangle semantics: touching boundaries do not count.  Returns
    a list of (q, piece) with piece an open sub-rectangle of ``fixed``.
    """
    s_box = Iv(moving.s.lo - fixed.s.hi, moving.s.hi - fixed.s.lo)
    u_box = Iv(moving.u.lo - fixed.u.hi, moving.u.hi - fixed.u.lo)
    out = []
    for m, n in lattice_in_box(ctx, s_box, u_box, open_box=True):
        q = ctx.from_xy(m, n)
        shifted = moving.translate(q)
        s_iv = shifted.s.intersect_open(fixed.s)
        if s_iv is None:
            continue
        u_iv = shifted.u.intersect_open(fixed.u)
        if u_iv is None:
            continue
        out.append((q, Rect(s_iv, u_iv)))
    return out


def point_translates(ctx: FieldContext, s: QElem, u: QElem, rect: Rect):
    """Lattice q such that (s, u) - (conj q, q) lies in the closed rect."""
    s_box = Iv(s - rect.s.hi, s - rect.s.lo)
    u_box = Iv(u - rect.u.hi, u - rect.u.lo)
    return [ctx.from_xy(m, n) for m, n in lattice_in_box(ctx, s_box, u_box, open_box=False)]
