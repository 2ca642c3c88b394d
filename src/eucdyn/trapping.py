"""Trapped rectangles: cells whose closure lies in a norm neighborhood.

A cell is trapped below threshold t for a lattice point q when the
largest value of |s - conj(q)| * |u - q| over the closed cell is
strictly below t.  The two factors are non-negative and vary
independently, so that largest value is the product of the per-axis
maxima, each attained at an interval end.  Only single-point
trapping is tested (a cell jointly covered by several neighborhoods but
by no single one is not counted); that under-approximation keeps every
derived bound sound and does not disturb the limit, and ``straddling``
reports where it could bite.

Thresholds are computed down the refinement chain.  A point whose least
value over the parent cell P (the product of the per-axis gaps) is
>= th(P) is >= every child's threshold, as children lie in P, and is
dropped; the point attaining th(P) stays, since on a box with sides of
positive length the least value is below the largest.  So pruning is exact.
"""

from __future__ import annotations

from .geometry import Iv, Rect, lattice_in_box
from .partition import Partition
from .qfield import FieldContext, QElem


def big_rectangle(ctx: FieldContext) -> Rect:
    """The origin-symmetric search box; its half-width is a certified
    rational outer bound for sqrt(eps*(m1_bound+1)), so it is only ever
    used to bound enumerations, never to decide trapping."""
    w = ctx.elem(ctx.box_halfwidth)
    return Rect(Iv(-w, w), Iv(-w, w))


def i_k_set(ctx: FieldContext, p0: Partition, extra: int = 0) -> list[QElem]:
    """All lattice points q such that some level-0 cell translated by q
    meets the search box; contains 0.  ``extra`` widens the search box by
    that many units on every side, which can only enlarge the set."""
    if p0.level != 0:
        raise ValueError("level-0 partition required")
    w = ctx.elem(ctx.box_halfwidth)
    pad = ctx.elem(extra * 1)
    seen = set()
    for r in p0.rects:
        s_iv = Iv(r.s.lo - w - pad, r.s.hi + w + pad)
        u_iv = Iv(r.u.lo - w - pad, r.u.hi + w + pad)
        seen.update(lattice_in_box(ctx, s_iv, u_iv, open_box=True))
    return [ctx.from_xy(m, n) for m, n in sorted(seen, key=lambda mn: (mn[1], mn[0]))]


def corner_sup(a: Rect, q: QElem) -> QElem:
    """Largest |s - conj(q)| * |u - q| over the closed cell."""
    qs = q.conj()
    return max(abs(a.s.lo - qs), abs(a.s.hi - qs)) * max(abs(a.u.lo - q), abs(a.u.hi - q))


def _gap(iv: Iv, z: QElem):
    """Least |z - c| over c in the closed interval: 0 inside it."""
    if z < iv.lo:
        return iv.lo - z
    if z > iv.hi:
        return z - iv.hi
    return 0


def trap_threshold(a: Rect, points) -> QElem | None:
    """Least corner supremum over the lattice points: the cell is trapped
    at threshold t exactly when this value is < t.  None without points."""
    best = None
    for q in points:
        v = corner_sup(a, q)
        if best is None or v < best:
            best = v
    return best


def trap_thresholds(partition: Partition, points) -> list[QElem | None]:
    """``trap_threshold`` of every cell of the partition over the points,
    computed level by level down the chain of ``parent`` partitions, each
    cell's candidates pruned on its parent (see the module docstring).  A
    partition without a parent takes every point for every cell."""
    chain = [partition]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    points = list(points)
    kept = None  # parent word -> the points its children still need
    for p in reversed(chain):
        thresholds, nxt = [], {}
        for r in p.rects:
            cands = points if kept is None else kept[r.word[1:-1]]
            th = trap_threshold(r, cands)
            thresholds.append(th)
            if p is not partition:
                nxt[r.word] = [
                    q for q in cands if _gap(r.s, q.conj()) * _gap(r.u, q) < th
                ]
        kept = nxt
    return thresholds


def trapped(thresholds, t) -> list[int]:
    """Indices of the cells trapped at threshold t: those whose threshold
    (from ``trap_thresholds``) is below t, ties excluded.  A cell with
    threshold None (no lattice points) is never trapped."""
    return [i for i, th in enumerate(thresholds) if th is not None and th < t]


def straddling(partition: Partition, points, t, thresholds) -> list[int]:
    """Diagnostic: indices of the cells not trapped at t by any single
    lattice point although each corner is below t for some point; these
    are the only candidates on which joint-neighborhood trapping could do
    better.  ``thresholds`` is ``trap_thresholds(partition, points)``."""
    pairs = [(q.conj(), q) for q in points]
    skip = set(trapped(thresholds, t))
    return [
        i
        for i, a in enumerate(partition.rects)
        if i not in skip
        and all(
            any(abs(cs - qs) * abs(cu - q) < t for qs, q in pairs)
            for cs, cu in a.corners()
        )
    ]
