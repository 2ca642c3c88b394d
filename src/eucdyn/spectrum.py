"""Dimension-bound curves, plateau detection, and spectrum certification.

The trapped-set stage is exact: for each refined cell the least over
lattice points of the largest corner value of |s*u| is an element of the
field, and a cell is trapped at threshold t exactly when that element is
below t.  Entropy of the surviving subshift is the only floating-point
stage.  Davenport's classical sequence of minima for D = 5 and its limit
are provided exactly for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import sft
from .coding import SymbolicPoint, pi_eval
from .geometry import Iv, Rect, point_translates
from .partition import Partition
from .qfield import FieldContext, QElem
from .torus import (
    PointXY,
    euclidean_min_qpoint,
    kpoint_collapse_order,
    orbit,
    phi_apply,
    phi_su,
    su_to_xy,
    xy_to_su,
)
from .trapping import big_rectangle, trap_thresholds, trapped


@dataclass(frozen=True)
class SpectrumSample:
    t: Fraction
    n: int
    trapped_count: int
    alphabet_size: int
    entropy: float
    dim_upper: float
    empty_flag: bool


def dim_curve(
    ctx: FieldContext,
    t_grid,
    n: int,
    points,
    partition: Partition,
) -> list[SpectrumSample]:
    """One SpectrumSample per grid threshold, at refinement level n.

    The per-cell trapping thresholds are computed once, exactly, level by
    level down the refinement chain; each grid value then reduces to
    exact comparisons plus one eigenvalue computation.  Grid values run
    one after another in grid order, in the calling thread.
    """
    if partition.level != n:
        raise ValueError(f"partition level {partition.level} != n={n}")
    thresholds = trap_thresholds(partition, points)

    def sample(t: Fraction) -> SpectrumSample:
        banned = trapped(thresholds, ctx.elem(t))  # convert t once, not per cell
        shift = sft.avoid(partition, banned)
        ent = sft.entropy(shift)
        dim = sft.dimension(ent.value, ctx)
        return SpectrumSample(
            t=Fraction(t),
            n=n,
            trapped_count=len(banned),
            alphabet_size=shift.alphabet_size,
            entropy=ent.value,
            dim_upper=dim,
            empty_flag=shift.empty,
        )

    return [sample(Fraction(t)) for t in t_grid]


@dataclass(frozen=True)
class Plateau:
    t_lo: Fraction
    t_hi: Fraction
    dim: float
    n: int
    alphabet_size: int
    trapped_count: int


def plateau_detect(samples, flat_tol: float = 1e-9) -> list[Plateau]:
    """Maximal grid intervals (more than one grid point) on which
    successive dimension bounds differ by less than flat_tol, reported
    with the subshift description at the left endpoint."""
    if not samples:
        return []
    if any(s.n != samples[0].n for s in samples):
        raise ValueError("samples must share one refinement level")
    if any(b.t <= a.t for a, b in zip(samples, samples[1:])):
        raise ValueError("samples must be sorted by t")
    out = []
    start = 0
    for i in range(1, len(samples) + 1):
        flat = (
            i < len(samples)
            and abs(samples[i].dim_upper - samples[i - 1].dim_upper) < flat_tol
        )
        if not flat:
            if i - start >= 2:
                left = samples[start]
                out.append(
                    Plateau(
                        t_lo=left.t,
                        t_hi=samples[i - 1].t,
                        dim=left.dim_upper,
                        n=left.n,
                        alphabet_size=left.alphabet_size,
                        trapped_count=left.trapped_count,
                    )
                )
            start = i
    return out


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def davenport_minima(i: int) -> Fraction:
    """The i-th isolated minimum of the D = 5 field: 1/4, then the
    classical Fibonacci quotients, strictly decreasing to (sqrt(5)-1)/8."""
    if i < 1:
        raise ValueError("index must be >= 1")
    if i == 1:
        return Fraction(1, 4)
    k = i - 1
    num = _fib(6 * k - 2) + _fib(6 * k - 4)
    den = 4 * (_fib(6 * k - 1) + _fib(6 * k - 3) - 2)
    return Fraction(num, den)


def t_infinity(ctx: FieldContext) -> QElem:
    """Exact limit (-1+sqrt(5))/8 of the minima sequence; D = 5 only."""
    if ctx.D != 5:
        raise ValueError("the minima sequence is specific to D=5")
    return ctx.elem(Fraction(-1, 8), Fraction(1, 8))


def certify_spectrum_point(ctx: FieldContext, partition: Partition, sp: SymbolicPoint) -> QElem:
    """Exact M at the point coded by an eventually-periodic string.

    Rational points are handled by the complete orbit search.  A proper
    field point has an infinite orbit accumulating on two torsion orbits;
    its M value is the least of the torsion values and of the norm values
    of box representatives along the orbit, where the far tails are
    resolved exactly by monotonicity of each representative family.
    """
    su = pi_eval(sp, partition)
    xy = su_to_xy(ctx, su)
    if isinstance(xy, PointXY):
        return ctx.elem(euclidean_min_qpoint(ctx, xy))

    info = kpoint_collapse_order(ctx, su)
    b_fwd = euclidean_min_qpoint(ctx, info.forward_torsion)
    b_bwd = euclidean_min_qpoint(ctx, info.backward_torsion)
    best = ctx.elem(min(b_fwd, b_bwd))
    if best == 0:
        return best

    fwd = _tail_start(ctx, info.forward_delta, ctx.eps_conj)
    bwd = _tail_start(ctx, info.backward_delta, ctx.eps_inv)
    for k in range(-(bwd - 1), fwd):
        v = _box_min(ctx, phi_su(ctx, su, k))
        if v is not None and v < best:
            best = v

    best = _tail_min(ctx, info, forward=True, start=fwd, best=best)
    best = _tail_min(ctx, info, forward=False, start=bwd, best=best)
    return best


def _tail_start(ctx, delta, f) -> int:
    """First orbit step k >= 7 from which the offset delta * f^k is within
    the box half-width; the near orbit before it is searched box by box."""
    k, x = 7, delta * f**7
    while abs(x) > ctx.box_halfwidth:
        k, x = k + 1, x * f
    return k


def _box_min(ctx, su):
    """Least |s*u| over lattice representatives of the point inside the
    search box; None when no representative meets the box."""
    best = None
    for q in point_translates(ctx, su.s, su.u, big_rectangle(ctx)):
        v = abs((su.s - q.conj()) * (su.u - q))
        if best is None or v < best:
            best = v
    return best


def _tail_min(ctx, info, forward: bool, start: int, best):
    """Exact minimum over the far orbit in one direction (all |k| >= start).

    There the point is a torsion point plus a one-axis offset shrinking
    geometrically with constant sign along each residue class, so each
    lattice representative contributes a norm family |a + x|*|b| in the
    offset x.  The family is walked until |x| drops below |a|; from that
    point on it is monotone: increasing families cannot beat the value
    just recorded, decreasing ones stay above the torsion value |a*b|,
    which is itself at least the torsion minimum already in ``best``.
    Every omitted value is therefore >= best, and every recorded value is
    a genuine representative norm, so the final minimum is exact.
    """
    if forward:
        torsion, delta = info.forward_torsion, info.forward_delta
        flips = ctx.eps_conj_sign < 0
    else:
        torsion, delta = info.backward_torsion, info.backward_delta
        flips = False
    if delta == 0:
        return best  # the orbit already is the torsion orbit
    period = len(orbit(ctx, torsion))
    classes = lcm(period, 2) if flips else period
    f = ctx.eps_conj if forward else ctx.eps_inv
    shrink = f**classes  # sign-fixed
    # a box representative at step k >= start sits within |delta * f^start|
    # of a torsion representative on the moving axis
    margin = ctx.box_halfwidth + abs(delta * f**start)

    for r in range(classes):
        k = start + r
        t_su = xy_to_su(ctx, phi_apply(ctx, torsion, k if forward else -k))
        x0 = delta * f**k
        for fixed_abs, moving in _torsion_reps(ctx, t_su, margin, forward):
            if moving == 0:
                continue  # would force the torsion minimum to zero, handled above
            x = x0
            while True:
                v = abs(moving + x) * fixed_abs
                if v < best:
                    best = v
                if abs(x) < abs(moving):
                    break  # monotone from here on, see docstring
                x = x * shrink
    return best


def _torsion_reps(ctx, t_su, margin, forward: bool):
    """Lattice representatives of a torsion point, the perturbed axis
    widened by the offset margin; yields (|fixed coord|, moving coord)."""
    W = ctx.box_halfwidth
    wide, narrow = Iv(-margin, margin), Iv(-W, W)
    box = Rect(wide, narrow) if forward else Rect(narrow, wide)
    out = []
    for q in point_translates(ctx, t_su.s, t_su.u, box):
        s_rep, u_rep = t_su.s - q.conj(), t_su.u - q
        out.append((abs(u_rep), s_rep) if forward else (abs(s_rep), u_rep))
    return out
