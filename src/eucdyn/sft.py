"""Subshifts of finite type over partition alphabets.

A Subshift is the set of bi-infinite paths through a 0-1 transition
matrix over a symbol set; symbols are coordinate words of a partition.
Entropy is the log of the spectral radius of the essential transition
matrix, computed per strongly connected component by shifted power
iteration with a two-sided Collatz-Wielandt certificate.  This is the
only place floating point enters the pipeline; everything upstream is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .coding import SymbolicPoint
from .qfield import FieldContext


@dataclass
class Subshift:
    """Vertex shift on ``symbols`` with 0-1 ``matrix``; pruned to its
    essential part (symbols lying on bi-infinite paths).

    ``source_ids`` maps each symbol back to the rectangle index in the
    partition the subshift was built from.
    """

    level: int
    symbols: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    source_ids: tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        return len(self.symbols) == 0

    @property
    def alphabet_size(self) -> int:
        return len(self.symbols)

    def successors(self, i: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.matrix[i]))

    @staticmethod
    def from_matrix(matrix, symbols=None) -> "Subshift":
        mat = np.asarray(matrix, dtype=bool)
        n = mat.shape[0]
        symbols = tuple(symbols) if symbols is not None else tuple((i,) for i in range(n))
        return _pruned(Subshift(0, symbols, mat, tuple(range(n))))


def _pruned(s: Subshift) -> Subshift:
    """Restrict to symbols with arbitrarily long forward and backward
    extensions (iterated removal of degree-zero symbols)."""
    keep = np.ones(len(s.symbols), dtype=bool)
    changed = True
    while changed:
        changed = False
        sub = s.matrix[np.ix_(keep, keep)]
        if sub.size == 0:
            break
        out_deg = sub.sum(axis=1)
        in_deg = sub.sum(axis=0)
        alive = (out_deg > 0) & (in_deg > 0)
        if not alive.all():
            idx = np.flatnonzero(keep)
            keep[idx[~alive]] = False
            changed = True
    idx = np.flatnonzero(keep)
    return Subshift(
        s.level,
        tuple(s.symbols[i] for i in idx),
        s.matrix[np.ix_(keep, keep)],
        tuple(s.source_ids[i] for i in idx),
    )


def avoid(partition, forbidden) -> Subshift:
    """The subshift of the partition's full shift avoiding the forbidden
    rectangles (given as Rects or coordinate words; coarser words are
    decomposed into the level-n words refining them)."""
    words = partition.words
    n = partition.level
    banned: set[tuple[int, ...]] = set()
    for item in forbidden:
        w = tuple(item.word) if hasattr(item, "word") else tuple(item)
        if len(w) == 2 * n + 1:
            if w not in partition.word_index:
                raise ValueError(f"forbidden word {w} not in the alphabet")
            banned.add(w)
        elif len(w) < 2 * n + 1 and len(w) % 2 == 1:
            m = (len(w) - 1) // 2
            off = n - m
            hits = [v for v in words if v[off : off + len(w)] == w]
            if not hits:
                raise ValueError(f"forbidden word {w} matches no cell")
            banned.update(hits)
        else:
            raise ValueError(f"forbidden word {w} incompatible with level {n}")
    keep_ids = [i for i, w in enumerate(words) if w not in banned]
    symbols = tuple(words[i] for i in keep_ids)
    pos = {rid: k for k, rid in enumerate(keep_ids)}
    mat = np.zeros((len(keep_ids), len(keep_ids)), dtype=bool)
    for k, rid in enumerate(keep_ids):
        for j in partition.successors(rid):
            if j in pos:
                mat[k, pos[j]] = True
    return _pruned(Subshift(n, symbols, mat, tuple(keep_ids)))


@dataclass(frozen=True)
class EntropyResult:
    value: float
    lower: float
    upper: float
    empty: bool
    iterations: int

    def __float__(self):
        return self.value


def _spectral_radius_cw(mat: np.ndarray, tol: float, max_iter: int):
    """Two-sided Collatz-Wielandt bracket for the Perron root of an
    irreducible 0-1 block, via power iteration on (A + I)."""
    a = mat.astype(float)
    n = a.shape[0]
    x = np.ones(n)
    best_lo, best_hi = 0.0, math.inf
    it = 0
    for it in range(1, max_iter + 1):
        ax = a @ x
        ratios = ax / x
        best_lo = max(best_lo, float(ratios.min()))
        best_hi = min(best_hi, float(ratios.max()))
        if best_hi - best_lo <= tol * max(1.0, best_hi):
            break
        x = ax + x
        x /= x.max()
    return best_lo, best_hi, it


def entropy(s: Subshift, tol: float = 1e-12, max_iter: int = 100000) -> EntropyResult:
    """log of the spectral radius of the essential transition matrix,
    with a certified two-sided bracket; empty subshift is flagged and
    reported as entropy 0."""
    if s.empty:
        return EntropyResult(0.0, 0.0, 0.0, True, 0)
    n_comp, labels = connected_components(
        csr_matrix(s.matrix), directed=True, connection="strong"
    )
    # spectral radius of the whole matrix = max over its cyclic components
    lo_all, hi_all, iters = 1.0, 1.0, 0
    for c in range(n_comp):
        idx = np.flatnonzero(labels == c)
        sub = s.matrix[np.ix_(idx, idx)]
        if len(idx) == 1 and not sub[0, 0]:
            continue  # transient single symbol
        lo, hi, it = _spectral_radius_cw(sub, tol, max_iter)
        iters = max(iters, it)
        lo_all = max(lo_all, lo)
        hi_all = max(hi_all, hi)
    value = 0.5 * (lo_all + hi_all)
    return EntropyResult(
        math.log(value), math.log(lo_all), math.log(hi_all), False, iters
    )


def dimension(h, ctx: FieldContext) -> float:
    """2h / log(eps), the dimension bound for entropy h; clamped to 2 when
    numerical noise exceeds it by less than 1e-9."""
    hv = float(h)
    if hv < 0:
        raise ValueError(f"entropy must be nonnegative, got {hv}")
    d = 2.0 * hv / math.log(float(ctx.eps))
    if d > 2.0:
        if d > 2.0 + 1e-9:
            raise ValueError(f"dimension bound {d} exceeds 2 beyond tolerance")
        d = 2.0
    return d


def periodize(s: Subshift, w, u=(), v=()) -> SymbolicPoint:
    """An eventually-periodic bi-infinite element of the subshift that
    contains ``w``, obtained by looping a repeated symbol found in each
    flank (extending the flanks through the graph when they carry no
    repeat yet); fails if ``w`` has no bi-infinite extension."""
    w, u, v = tuple(w), tuple(u), tuple(v)
    if not w:
        raise ValueError("empty word")
    ids = {rid: k for k, rid in enumerate(s.source_ids)}
    path = u + w + v
    for sym in path:
        if sym not in ids:
            raise ValueError(f"symbol {sym} not in the subshift")
    for a, b in zip(path, path[1:]):
        if not s.matrix[ids[a], ids[b]]:
            raise ValueError(f"word {path} is not admissible")

    def succs(sym):
        return [s.source_ids[int(j)] for j in np.flatnonzero(s.matrix[ids[sym]])]

    def preds(sym):
        return [s.source_ids[int(j)] for j in np.flatnonzero(s.matrix[:, ids[sym]])]

    def first_repeat(seq):
        seen = {}
        for i2, sym in enumerate(seq):
            if sym in seen:
                return seen[sym], i2
            seen[sym] = i2
        return None

    cap = len(s.symbols) + 1
    left = list(u)
    while first_repeat(left) is None:
        head = left[0] if left else w[0]
        p = preds(head)
        if not p:
            raise ValueError("word does not extend bi-infinitely (left)")
        left.insert(0, min(p))
        if len(left) > 2 * cap:
            raise AssertionError("pigeonhole failure")
    i1, i2 = first_repeat(left)
    left_loop, left_pre = tuple(left[i1:i2]), tuple(left[i2:])

    right = list(v)
    while first_repeat(right) is None:
        tail = right[-1] if right else w[-1]
        nxt = succs(tail)
        if not nxt:
            raise ValueError("word does not extend bi-infinitely (right)")
        right.append(min(nxt))
        if len(right) > 2 * cap:
            raise AssertionError("pigeonhole failure")
    i1, i2 = first_repeat(right)
    right_pre, right_loop = tuple(right[: i1 + 1]), tuple(right[i1 + 1 : i2 + 1])

    return SymbolicPoint(
        level=s.level,
        center=w,
        right_pre=right_pre,
        right_loop=right_loop,
        left_pre=left_pre,
        left_loop=left_loop,
    )


def random_itinerary(rng, partition) -> SymbolicPoint:
    """A random eventually-periodic itinerary through the partition's
    transition graph: two random cycles, looped on the left and on the
    right, joined by a random centre path that a shortest path bridges
    into the right cycle.  ``rng`` is a ``random.Random``."""

    def walk(path, steps):
        for _ in range(steps):
            path.append(rng.choice(partition.successors(path[-1])))
        return path

    def cycle():
        path = walk([rng.randrange(len(partition.rects))], rng.randint(0, 6))
        while True:  # ends within len(rects) steps by pigeonhole
            nxt = rng.choice(partition.successors(path[-1]))
            if nxt in path:
                return tuple(path[path.index(nxt) :])
            path.append(nxt)

    left, right = cycle(), cycle()
    center = walk([rng.choice(partition.successors(left[-1]))], rng.randint(0, 6))
    center += _bridge(partition, center[-1], right[0])
    return SymbolicPoint(partition.level, tuple(center), (), right, (), left)


def _bridge(partition, start: int, target: int) -> list[int]:
    """Shortest list of symbols leading from ``start`` (excluded) to a
    predecessor of ``target``, found breadth first."""
    back = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            if partition.admissible(x, target):
                path = []
                while x != start:
                    path.append(x)
                    x = back[x]
                return path[::-1]
            for y in partition.successors(x):
                if y not in back:
                    back[y] = x
                    nxt.append(y)
        frontier = nxt
    raise ValueError(f"symbol {target} cannot be reached from {start}")
