"""Points on the torus of a real quadratic field and the unit map.

The torus is the plane (in stable/unstable coordinates) modulo the ring
of integers; rational points in the basis {1, alpha} are exactly the
periodic points of the unit-multiplication automorphism.  The distance
function ``euclidean_min_qpoint`` computes, for such points, the exact
infimum of |Nm| over all lattice translates, by a complete search over
representatives in a box whose side is derived from the configured
inhomogeneous-minimum bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .geometry import Iv, lattice_in_box
from .qfield import FieldContext, QElem


@dataclass(frozen=True)
class PointXY:
    """Torus/plane point in coordinates over the basis {1, alpha}."""

    x: Fraction
    y: Fraction

    def reduced(self) -> "PointXY":
        return PointXY(self.x % 1, self.y % 1)


@dataclass(frozen=True)
class PointSU:
    """Plane point in stable/unstable coordinates."""

    s: QElem
    u: QElem


def xy_to_su(ctx: FieldContext, p: PointXY) -> PointSU:
    """(x, y) -> (x + y*conj(alpha), x + y*alpha); exact."""
    return PointSU(
        ctx.alpha_conj * p.y + p.x,
        ctx.alpha * p.y + p.x,
    )


def su_to_xy(ctx: FieldContext, q: PointSU):
    """Inverse of xy_to_su.

    Returns a PointXY when both solved coordinates are rational, else the
    pair (x, y) of field elements.
    """
    x, y = su_to_xy_k(ctx, q)
    if x.is_rational() and y.is_rational():
        return PointXY(x.to_fraction(), y.to_fraction())
    return x, y


def su_to_xy_k(ctx: FieldContext, q: PointSU) -> tuple[QElem, QElem]:
    covol = ctx.covolume
    x = (ctx.alpha * q.s - ctx.alpha_conj * q.u) / covol
    y = (q.u - q.s) / covol
    return x, y


def phi_su(ctx: FieldContext, q: PointSU, k: int = 1) -> PointSU:
    """Plane action of the k-th power of the unit map on (s, u)."""
    f_s = (ctx.eps_conj if k >= 0 else ctx.eps_conj ** -1) ** abs(k)
    f_u = (ctx.eps if k >= 0 else ctx.eps_inv) ** abs(k)
    return PointSU(q.s * f_s, q.u * f_u)


def torus_eq(ctx: FieldContext, a: PointSU, b: PointSU) -> bool:
    """True iff the plane points differ by a lattice element; exact."""
    ds, du = a.s - b.s, a.u - b.u
    n = (du - ds) / ctx.covolume
    if not n.is_rational() or n.to_fraction().denominator != 1:
        return False
    m = du - ctx.alpha * n.to_fraction()
    return m.is_rational() and m.to_fraction().denominator == 1


def phi_apply(ctx: FieldContext, p: PointXY, k: int = 1) -> PointXY:
    """Coordinates of eps^k * p reduced mod Z^2; exact."""
    mat = ctx.phi_matrix if k >= 0 else ctx.phi_inv_matrix
    x, y = Fraction(p.x), Fraction(p.y)
    for _ in range(abs(k)):
        x, y = mat[0][0] * x + mat[0][1] * y, mat[1][0] * x + mat[1][1] * y
    return PointXY(x % 1, y % 1)


def _require_rational(p: PointXY):
    if not isinstance(p.x, (int, Fraction)) or not isinstance(p.y, (int, Fraction)):
        raise ValueError(f"rational point required, got {p!r}")


def orbit(ctx: FieldContext, p: PointXY) -> list[PointXY]:
    """The full finite orbit of a rational point under the unit map."""
    _require_rational(p)
    start = p.reduced()
    out = [start]
    cur = phi_apply(ctx, start)
    while cur != start:
        out.append(cur)
        cur = phi_apply(ctx, cur)
        if len(out) > 10**7:
            raise RuntimeError("orbit did not close; non-periodic input?")
    return out


class SearchBoundError(ValueError):
    """The configured inhomogeneous-minimum bound is too small: the M(P)
    search box it sizes cannot certify the minimum."""


def euclidean_min_qpoint(ctx: FieldContext, p: PointXY) -> Fraction:
    """Exact M(p) for a rational point: min over orbit representatives in
    the search box of |Nm(rep - q)| over lattice points q.

    With d the common denominator of an orbit point (x, y), the norm of
    its translate by q = m + n*alpha is |X^2 + T*X*Y + N*Y^2| / d^2 at the
    integers X = d*x - d*m, Y = d*y - d*n (T, N the trace and norm of
    alpha), so the whole search runs on ints.

    Completeness: any value below the configured bound is witnessed by a
    representative with both coordinates below sqrt(eps*(m1_bound+1)).
    Raises SearchBoundError if the result is above ``ctx.m1_bound`` (the
    configured bound would then be wrong and searches incomplete).
    """
    _require_rational(p)
    W = ctx.box_halfwidth
    T, N = ctx.alpha_trace, ctx.alpha_norm
    alpha, alpha_conj = ctx.alpha, ctx.alpha_conj
    best, best_den = None, 1  # best value is best / best_den
    for pt in orbit(ctx, p):
        x, y = Fraction(pt.x), Fraction(pt.y)
        d = lcm(x.denominator, y.denominator)
        dx, dy = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
        d2 = d * d
        s0 = alpha_conj * y + x
        u0 = alpha * y + x
        s_iv = Iv(s0 - W, s0 + W)
        u_iv = Iv(u0 - W, u0 + W)
        for m, n in lattice_in_box(ctx, s_iv, u_iv, open_box=False):
            X, Y = dx - d * m, dy - d * n
            val = abs(X * X + T * X * Y + N * Y * Y)
            if best is None or val * best_den < best * d2:
                best, best_den = val, d2
                if val == 0:
                    return Fraction(0)
    # the search is complete for all values up to the configured bound
    # (equality allowed: the supremum may be attained); a value above it
    # means the bound was wrong and the box too small
    result = None if best is None else Fraction(best, best_den)
    if result is None or result > ctx.m1_bound:
        raise SearchBoundError(
            f"search for M(P) at ({p.x}, {p.y}) returned {result}, above the configured "
            f"bound {ctx.m1_bound}; the bound is too small for this field"
        )
    return result


@dataclass(frozen=True)
class CollapseInfo:
    """Denominator-clearing data of a field point: N*P has integral
    stable/unstable coordinates, hence representants on each axis, and
    its far orbit accumulates on two torsion orbits."""

    n: int
    stable_zero_rep: PointSU
    unstable_zero_rep: PointSU
    forward_torsion: PointXY
    backward_torsion: PointXY
    forward_delta: QElem  # pure stable offset: P - forward_torsion
    backward_delta: QElem  # pure unstable offset


def kpoint_collapse_order(ctx: FieldContext, p: PointSU) -> CollapseInfo:
    """Least N >= 1 with N*p integral in both coordinates, with witnesses."""
    dens = []
    for z in (p.s, p.u):
        zx, zy = ctx.xy_of(z)
        dens.append(lcm(zx.denominator, zy.denominator))
    n = lcm(*dens)
    S, U = p.s * n, p.u * n
    # lattice elements are (conj(a), a); subtracting the one matching a
    # coordinate of N*p zeroes that coordinate
    stable_zero = PointSU(ctx.elem(0), U - S.conj())
    unstable_zero = PointSU(S - U.conj(), ctx.elem(0))
    fwd = PointSU(U.conj() / n, U / n)  # torsion part as k -> +infinity
    bwd = PointSU(S / n, S.conj() / n)
    fx, fy = su_to_xy_k(ctx, fwd)
    bx, by = su_to_xy_k(ctx, bwd)
    return CollapseInfo(
        n=n,
        stable_zero_rep=stable_zero,
        unstable_zero_rep=unstable_zero,
        forward_torsion=PointXY(fx.to_fraction() % 1, fy.to_fraction() % 1),
        backward_torsion=PointXY(bx.to_fraction() % 1, by.to_fraction() % 1),
        forward_delta=(p.s - fwd.s),
        backward_delta=(p.u - bwd.u),
    )
