"""Subshifts of finite type over partition alphabets.

A Subshift is the set of bi-infinite paths through a 0-1 transition
graph over a symbol set; symbols are cell indices of a partition.  The
graph is one sparse float64 CSR matrix cut from the partition's
transition graph, so its size grows with the number of edges (alphabet
times the bounded out-degree), never with the alphabet squared.
Entropy is the log of the spectral radius of the essential graph,
computed per strongly connected component by shifted power
iteration with a two-sided Collatz-Wielandt certificate.  This is the
only place floating point enters the pipeline; everything upstream is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .coding import SymbolicPoint
from .qfield import FieldContext


@dataclass
class Subshift:
    """Vertex shift on ``symbols`` (an int array of cell indices, in
    increasing order) with 0-1 adjacency ``graph`` (a float64 CSR matrix);
    pruned to its essential part (symbols lying on bi-infinite paths)."""

    symbols: np.ndarray
    graph: csr_matrix

    @property
    def empty(self) -> bool:
        return len(self.symbols) == 0

    @property
    def alphabet_size(self) -> int:
        return len(self.symbols)

    @staticmethod
    def from_matrix(matrix) -> "Subshift":
        graph = csr_matrix(np.asarray(matrix, dtype=bool), dtype=float)
        return _pruned(graph, np.ones(graph.shape[0], dtype=bool))


def _pruned(graph: csr_matrix, keep: np.ndarray) -> Subshift:
    """The subshift on the kept symbols, restricted to those with
    arbitrarily long forward and backward extensions (iterated removal of
    symbols with no successor or no predecessor among the kept ones)."""
    gt = graph.T
    while True:
        mask = keep.astype(float)
        alive = keep & (graph @ mask > 0) & (gt @ mask > 0)
        if np.array_equal(alive, keep):
            break
        keep = alive
    idx = np.flatnonzero(keep)
    return Subshift(idx, graph[idx[:, None], idx])


def avoid(partition, banned=()) -> Subshift:
    """The subshift of the partition's full shift avoiding the banned
    cells, given by index."""
    n = len(partition.rects)
    ids = np.fromiter(banned, dtype=np.int64)
    if len(ids) and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"banned cell indices must lie in 0..{n - 1}")
    keep = np.ones(n, dtype=bool)
    keep[ids] = False
    return _pruned(partition.graph, keep)


@dataclass(frozen=True)
class EntropyResult:
    value: float
    lower: float
    upper: float
    empty: bool
    iterations: int

    def __float__(self):
        return self.value


def _spectral_radius_cw(a: csr_matrix, tol: float, max_iter: int):
    """Two-sided Collatz-Wielandt bracket for the Perron root of an
    irreducible 0-1 block, via power iteration on (A + I)."""
    x = np.ones(a.shape[0])
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
    """log of the spectral radius of the essential transition graph,
    with a certified two-sided bracket; empty subshift is flagged and
    reported as entropy 0."""
    if s.empty:
        return EntropyResult(0.0, 0.0, 0.0, True, 0)
    n_comp, labels = connected_components(s.graph, directed=True, connection="strong")
    # each component's symbols in increasing order, components one after another
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=n_comp))
    # spectral radius of the whole graph = max over its components; a
    # nonempty essential graph has a cycle, so the radius is at least 1
    lo_all, hi_all, iters = 1.0, 1.0, 0
    for start, end in zip(chain((0,), ends), ends):
        idx = order[start:end]
        if len(idx) == 1:
            continue  # radius 0 or 1 (a loop), never above the floor
        lo, hi, it = _spectral_radius_cw(s.graph[idx[:, None], idx], tol, max_iter)
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
