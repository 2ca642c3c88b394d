"""The coding map: exact evaluation of symbolic itineraries.

An eventually-periodic bi-infinite itinerary over a partition alphabet
determines a unique plane point P_0 in the closed cell of its symbol at
index 0, with P_{k+1} = T(P_k) under the transition map
T_ab(P) = phi(P + (conj q_ab, q_ab)) of each pair (see
``Partition.transition_translate``).  Unrolling the maps gives one
series per axis,

    u = -sum_i q(s_i, s_{i+1}) eps^-i,
    s = conj(eps) * sum_i conj q(s_{-i-1}, s_{-i}) conj(eps)^i,

and for eventually periodic strings each periodic tail is a geometric
series summed in closed form inside the field, so the value is exact.
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


def _orbit_sum(ctx, path, loop, term, ratio: QElem) -> QElem:
    """sum_i term(x_i, x_{i+1}) * ratio^i along the sequence x that reads
    path, then loop repeated forever (|ratio| < 1); exact."""
    seq = path + loop[:1]
    total, scale = ctx.elem(0), ctx.elem(1)
    for a, b in zip(seq, seq[1:]):
        total = total + term(a, b) * scale
        scale = scale * ratio
    tail = ctx.elem(0)
    for a, b in zip(loop, loop[1:] + loop[:1]):
        tail = tail + term(a, b) * scale
        scale = scale * ratio
    return total + tail / (1 - ratio ** len(loop))


def pi_eval(sp: SymbolicPoint, partition) -> PointSU:
    """Exact plane point of an eventually-periodic itinerary, inside the
    closed footprint of its symbol at index 0."""
    if sp.level != partition.level:
        raise ValueError(f"string level {sp.level} != partition level {partition.level}")
    for k in (-1, 0, 1):  # cheap admissibility screen near the center
        if not partition.admissible(sp.symbol(k - 1), sp.symbol(k)):
            raise ValueError("itinerary not admissible")
    ctx, q = partition.ctx, partition.transition_translate
    u = -_orbit_sum(ctx, sp.center + sp.right_pre, sp.right_loop, q, ctx.eps_inv)
    # backward the string reads s_0, s_{-1}, ...; step i is s_{-i-1} -> s_{-i}
    s = _orbit_sum(
        ctx,
        (sp.center[0],) + sp.left_pre[::-1],
        sp.left_loop[::-1],
        lambda a, b: q(b, a).conj(),
        ctx.eps_conj,
    )
    return PointSU(ctx.eps_conj * s, u)


def _closed_cells(partition, su: PointSU) -> list[int]:
    """Sorted indices of the closed cells that contain the plane point
    modulo the lattice.  A refined partition tests only the cells inside
    its parent's hits: a child is a closed subset of its parent, so the
    translate that puts the point in the child puts it in the parent."""
    if partition.parent is None:
        pool = range(len(partition.rects))
    else:
        kids = partition.by_parent
        pool = sorted(i for j in _closed_cells(partition.parent, su) for i in kids[j])
    ctx, rects = partition.ctx, partition.rects
    return [i for i in pool if point_translates(ctx, su.s, su.u, rects[i])]


def code_qpoint(partition, p: PointXY) -> list[SymbolicPoint]:
    """All periodic itineraries of a rational point through the partition.

    Interior orbits give exactly one; orbits touching cell boundaries are
    flagged by returning every compatible coding (membership taken in the
    closed cells, found level by level down the refinement chain, each
    candidate confirmed by exact evaluation).
    """
    ctx = partition.ctx
    orb_xy = orbit(ctx, p)
    candidates = []
    for pt in orb_xy:
        cands = _closed_cells(partition, xy_to_su(ctx, pt))
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
