"""The coding map: exact evaluation of symbolic itineraries.

An eventually-periodic bi-infinite itinerary over a partition alphabet
determines a unique plane point: the unstable coordinate is the sum of
one transition-offset term per forward symbol, scaled down by the unit
each step, and the stable coordinate is the mirrored backward sum (with
orientation bookkeeping when the conjugate unit is negative).  For
eventually periodic strings each tail collapses to finitely many
geometric series summed in closed form inside the field, so the value is
exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geometry import point_translates
from .qfield import QElem
from .torus import PointSU, PointXY, orbit, torus_eq, xy_to_su


@dataclass(frozen=True)
class SymbolicPoint:
    """Eventually-periodic bi-infinite string over a partition alphabet.

    Index 0 is the first symbol of ``center``; going right the string
    reads center, right_pre, then right_loop repeated; going left from
    index 0 it reads (right-to-left) left_pre reversed, then left_loop
    repeated.  Loops must be nonempty.
    """

    level: int
    center: tuple[int, ...]
    right_pre: tuple[int, ...]
    right_loop: tuple[int, ...]
    left_pre: tuple[int, ...]
    left_loop: tuple[int, ...]

    def __post_init__(self):
        if not self.center or not self.right_loop or not self.left_loop:
            raise ValueError("center and both loops must be nonempty")

    def symbol(self, k: int) -> int:
        if k >= 0:
            head = self.center + self.right_pre
            if k < len(head):
                return head[k]
            return self.right_loop[(k - len(head)) % len(self.right_loop)]
        i = -k  # distance to the left of center[0]
        if i <= len(self.left_pre):
            return self.left_pre[len(self.left_pre) - i]
        j = i - len(self.left_pre) - 1
        return self.left_loop[len(self.left_loop) - 1 - (j % len(self.left_loop))]

    def shifted(self, k: int = 1) -> "SymbolicPoint":
        if k == 0:
            return self
        if k < 0:
            raise ValueError("only forward shifts are supported")
        sp = self
        for _ in range(k):
            sp = sp._shift_once()
        return sp

    def _shift_once(self) -> "SymbolicPoint":
        new_left_pre = self.left_pre + (self.center[0],)
        if len(self.center) > 1:
            center, right_pre, right_loop = self.center[1:], self.right_pre, self.right_loop
        elif self.right_pre:
            center, right_pre, right_loop = (self.right_pre[0],), self.right_pre[1:], self.right_loop
        else:
            center = (self.right_loop[0],)
            right_pre = ()
            right_loop = self.right_loop[1:] + self.right_loop[:1]
        return SymbolicPoint(
            self.level, center, right_pre, right_loop, new_left_pre, self.left_loop
        )

    @staticmethod
    def purely_periodic(level: int, w: tuple[int, ...]) -> "SymbolicPoint":
        w = tuple(w)
        return SymbolicPoint(level, (w[0],), w[1:], w, w, w)

    def to_text(self) -> str:
        parts = (self.left_pre, self.left_loop, self.center, self.right_loop, self.right_pre)
        return "|".join(",".join(str(s) for s in p) for p in parts)

    @staticmethod
    def from_text(text: str, level: int = 0) -> "SymbolicPoint":
        fields = text.split("|")
        if len(fields) != 5:
            raise ValueError("expected pre_left|loop_left|center|loop_right|pre_right")
        tup = [tuple(int(x) for x in f.split(",")) if f else () for f in fields]
        left_pre, left_loop, center, right_loop, right_pre = tup
        return SymbolicPoint(level, center, right_pre, right_loop, left_pre, left_loop)


def rho_u(partition, i: int, j: int) -> QElem:
    """Relative unstable offset in cell i of the sub-cell leading to cell j;
    exact, in [0, 1)."""
    if not partition.admissible(i, j):
        raise ValueError(f"pair ({i}, {j}) not admissible")
    a = partition.rects[i]
    comp = partition.component_following(i, j)
    return (comp.u.lo - a.u.lo) / a.u.length()


def rho_s(partition, i: int, j: int, orientation: int = 1) -> QElem:
    """Relative stable offset in cell i of the image of cell j (j precedes
    i in time), measured from the bottom (+1) or the top (-1) edge."""
    if not partition.admissible(j, i):
        raise ValueError(f"pair ({j}, {i}) not admissible")
    a = partition.rects[i]
    comp = partition.component_preceding(i, j)
    if orientation >= 0:
        return (comp.s.lo - a.s.lo) / a.s.length()
    return (a.s.hi - comp.s.hi) / a.s.length()


def _u_coordinate(sp: SymbolicPoint, partition) -> QElem:
    ctx = partition.ctx
    rects = partition.rects
    head = sp.center + sp.right_pre
    loop = sp.right_loop
    total = rects[head[0]].u.lo
    scale = ctx.elem(1)
    inv = ctx.eps_inv
    # explicit terms: pairs (sigma_i, sigma_{i+1}) for i < len(head)
    seq = head + (loop[0],)
    for i in range(len(head)):
        a, b = seq[i], seq[i + 1]
        total = total + rho_u(partition, a, b) * rects[a].u.length() * scale
        scale = scale * inv
    # periodic tail: one geometric series per loop position
    ratio = ctx.eps ** len(loop)
    factor = ratio / (ratio - 1)
    tail = ctx.elem(0)
    for j in range(len(loop)):
        a, b = loop[j], loop[(j + 1) % len(loop)]
        tail = tail + rho_u(partition, a, b) * rects[a].u.length() * scale
        scale = scale * inv
    return total + tail * factor


def _s_coordinate(sp: SymbolicPoint, partition) -> QElem:
    ctx = partition.ctx
    rects = partition.rects
    alternate = ctx.eps_conj_sign < 0
    # backward sequence sigma_0, sigma_{-1}, sigma_{-2}, ...
    head = (sp.center[0],) + tuple(reversed(sp.left_pre))
    loop = tuple(reversed(sp.left_loop))
    total = rects[head[0]].s.lo
    scale = ctx.elem(1)
    inv = ctx.eps_inv
    seq = head + (loop[0],)
    for i in range(len(head)):
        a, b = seq[i], seq[i + 1]
        orient = -1 if (alternate and i % 2 == 1) else 1
        total = total + rho_s(partition, a, b, orient) * rects[a].s.length() * scale
        scale = scale * inv
    # sign pattern must close up over the loop; double it when needed
    eff = loop
    if alternate and len(loop) % 2 == 1:
        eff = loop + loop
    ratio = ctx.eps ** len(eff)
    factor = ratio / (ratio - 1)
    tail = ctx.elem(0)
    for j in range(len(eff)):
        i = len(head) + j
        a, b = eff[j], eff[(j + 1) % len(eff)]
        orient = -1 if (alternate and i % 2 == 1) else 1
        tail = tail + rho_s(partition, a, b, orient) * rects[a].s.length() * scale
        scale = scale * inv
    return total + tail * factor


def pi_eval(sp: SymbolicPoint, partition) -> PointSU:
    """Exact plane point of an eventually-periodic itinerary, inside the
    closed footprint of its symbol at index 0."""
    if sp.level != partition.level:
        raise ValueError(f"string level {sp.level} != partition level {partition.level}")
    for k in (-1, 0, 1):  # cheap admissibility screen near the center
        if not partition.admissible(sp.symbol(k - 1), sp.symbol(k)):
            raise ValueError("itinerary not admissible")
    return PointSU(_s_coordinate(sp, partition), _u_coordinate(sp, partition))


def code_qpoint(partition, p: PointXY) -> list[SymbolicPoint]:
    """All periodic itineraries of a rational point through the partition.

    Interior orbits give exactly one; orbits touching cell boundaries are
    flagged by returning every compatible coding (membership taken in the
    closed cells, each candidate confirmed by exact evaluation).
    """
    ctx = partition.ctx
    orb_xy = orbit(ctx, p)
    candidates = []
    for pt in orb_xy:
        su = xy_to_su(ctx, pt)
        cands = [
            i
            for i, r in enumerate(partition.rects)
            if point_translates(ctx, su.s, su.u, r)
        ]
        if not cands:
            raise AssertionError(f"point {pt} not covered by closed cells")
        candidates.append(cands)

    target = xy_to_su(ctx, orb_xy[0])
    period = len(orb_xy)
    out = []
    for combo in itertools.product(*candidates):
        if all(
            partition.admissible(combo[k], combo[(k + 1) % period])
            for k in range(period)
        ):
            sp = SymbolicPoint.purely_periodic(partition.level, combo)
            if torus_eq(ctx, pi_eval(sp, partition), target):
                out.append(sp)
    if not out:
        raise AssertionError(f"no coding found for {p}")
    out.sort(key=lambda sp: (sp.center, sp.right_pre))
    return out
