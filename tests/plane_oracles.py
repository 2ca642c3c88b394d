"""Exact tiling oracles for the tests: a sweep cover check and the
lattice-translate tiling of a set of cells."""

from eucdyn.geometry import Iv, Rect


def covers_exactly(region: Rect, pieces: list[Rect]) -> bool:
    """True iff the closed pieces cover the closed region, decided exactly.

    Sweep over the s-axis: between consecutive breakpoints the active
    pieces' u-intervals must cover the region's u-interval.
    """
    breaks = {region.s.lo, region.s.hi}
    for p in pieces:
        for e in (p.s.lo, p.s.hi):
            if region.s.lo < e < region.s.hi:
                breaks.add(e)
    bs = sorted(breaks)
    for left, right in zip(bs, bs[1:]):
        active = [
            p for p in pieces if p.s.lo <= left and right <= p.s.hi
        ]
        active.sort(key=lambda p: p.u.lo)
        reach = region.u.lo
        for p in active:
            if p.u.lo > reach:
                return False
            if p.u.hi > reach:
                reach = p.u.hi
            if reach >= region.u.hi:
                break
        if reach < region.u.hi:
            return False
    return True


def tiles_plane(ctx, rects: list[Rect], span: int = 1) -> bool:
    """Exact check that lattice translates of the closed cells cover the
    block of translates around the origin (a (2*span+1)^2 block)."""
    zero = ctx.elem(0)
    s_all = Iv(min((r.s.lo for r in rects), default=zero), max((r.s.hi for r in rects), default=zero))
    u_all = Iv(min((r.u.lo for r in rects), default=zero), max((r.u.hi for r in rects), default=zero))
    region = Rect(s_all, u_all)
    pieces = []
    for m in range(-3 * span, 3 * span + 1):
        for n in range(-3 * span, 3 * span + 1):
            q = ctx.from_xy(m, n)
            for r in rects:
                pieces.append(r.translate(q))
    return covers_exactly(region, pieces)
