"""Two-rectangle Markov partitions and their refinements, verified exactly.

The seed partition follows Adler's uniform description in stable/unstable
coordinates: a tall rectangle left of the unstable axis and a short one
right of it,

    R1 = (-1, 0) x (0, alpha),      R0 = (0, -conj(alpha)) x (0, 1),

whose closed areas sum to the lattice covolume for every D.  For D = 5
the pair itself generates; otherwise the generator consists of the
connected components of A meet phi^{-1}(B) over seed pairs (A, B).  In
either case nothing is trusted: ``verify_markov`` re-derives every
level-0 transition geometrically and checks, with exact interval
arithmetic, that images stretch fully across target cells in the
expanding direction and stay inside them in the contracting one.  A
refined level is checked edge by edge from the level-0 translates: each
cell must lie in the level-0 cell of its central symbol, and each
transition is four endpoint comparisons at its central pair's translate.

Each admissible pair (a, b) has one lattice point q_ab: the single
component of A_a meet phi^{-1}(A_b) is (phi^{-1}(A_b) - (conj q_ab, q_ab))
meet A_a, so the transition map T_ab(P) = phi(P + (conj q_ab, q_ab))
carries it across A_b.  Level-n cells are labelled by admissible words of
generator symbols.  A cell is the product of a stable interval, which
depends only on its past (the symbols up to the central one), and an
unstable interval, which depends only on its future (the symbols from
the central one on); ``refine`` takes each new past and each new future
one transition map step from a cell of the level before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix

from .geometry import Iv, Rect, phi_inv_rect, torus_components
from .qfield import FieldContext, QElem


class MarkovError(Exception):
    """Raised when a constructed partition fails its exact verification."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


@dataclass
class MarkovReport:
    ok: bool
    counterexample: tuple | None = None  # (word_a, word_b, reason)

    def __str__(self):
        if self.ok:
            return "markov: ok"
        a, b, reason = self.counterexample
        return f"markov violation at pair ({a}, {b}): {reason}"


class Partition:
    """A level-n partition: rectangles labelled by coordinate words over
    the generator alphabet, plus the transition relation.

    ``base`` is the level-0 generator partition (self, at level 0).
    ``parent`` is the partition ``refine`` made this one from, whose cell
    with word ``w[1:-1]`` contains the cell with word ``w``; None at level
    0 and for hand-built partitions.  Instances are immutable after
    construction.
    """

    def __init__(self, ctx: FieldContext, level: int, rects: list[Rect], base=None, parent=None):
        self.ctx = ctx
        self.level = level
        self.rects = list(rects)
        self.base = base if base is not None else self
        self.parent = parent
        self.word_index = {r.word: i for i, r in enumerate(self.rects)}
        if len(self.word_index) != len(self.rects):
            raise ValueError("duplicate coordinate words")
        self._succ: list[tuple[int, ...]] | None = None
        self._translates: dict[tuple[int, int], QElem] = {}

    # -- transition structure ---------------------------------------------

    def successors(self, i: int) -> tuple[int, ...]:
        if self._succ is None:
            self._build_transitions()
        return self._succ[i]

    def admissible(self, i: int, j: int) -> bool:
        return j in self.successors(i)

    def transitions(self):
        for i in range(len(self.rects)):
            for j in self.successors(i):
                yield i, j

    @cached_property
    def graph(self) -> csr_matrix:
        """The 0-1 transition matrix as a float64 CSR matrix, built once."""
        succ = [self.successors(i) for i in range(len(self.rects))]
        indptr = np.cumsum([0] + [len(js) for js in succ])
        indices = np.fromiter(chain.from_iterable(succ), dtype=np.int64, count=indptr[-1])
        n = len(succ)
        return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))

    @cached_property
    def by_parent(self) -> list[list[int]]:
        """For each cell of ``parent``, the sorted indices of this
        partition's cells inside it (word w lies in parent word w[1:-1]);
        built once, on first use."""
        out = [[] for _ in self.parent.rects]
        for i, r in enumerate(self.rects):
            out[self.parent.word_index[r.word[1:-1]]].append(i)
        return out

    def _build_transitions(self):
        n = len(self.rects)
        if self.level == 0:
            succ = []
            for i in range(n):
                row = []
                for j in range(n):
                    pieces = torus_components(
                        self.ctx, phi_inv_rect(self.ctx, self.rects[j]), self.rects[i]
                    )
                    if pieces:
                        row.append(j)
                succ.append(tuple(row))
            self._succ = succ
        else:
            # words overlap-compatible under a one-step shift
            by_prefix: dict[tuple[int, ...], list[int]] = {}
            for j, r in enumerate(self.rects):
                by_prefix.setdefault(r.word[:-1], []).append(j)
            self._succ = [
                tuple(sorted(by_prefix.get(r.word[1:], ()))) for r in self.rects
            ]

    # -- transition maps ----------------------------------------------------

    def transition_translate(self, i: int, j: int) -> QElem:
        """The lattice point q of the transition i -> j: the single
        component of A_i meet phi^{-1}(A_j) is that of the translate by
        (conj q, q), so T_ij(P) = phi(P + (conj q, q)) maps it into A_j."""
        key = (i, j)
        if key not in self._translates:
            if not self.admissible(i, j):
                raise ValueError(f"pair ({i}, {j}) not admissible")
            pieces = torus_components(
                self.ctx, phi_inv_rect(self.ctx, self.rects[j]), self.rects[i]
            )
            if len(pieces) != 1:
                words = self.rects[i].word, self.rects[j].word
                raise MarkovError(_fail(*words, f"{len(pieces)} components, expected 1"))
            self._translates[key] = pieces[0][0]
        return self._translates[key]

    # -- bookkeeping ---------------------------------------------------------

    def total_area(self) -> QElem:
        total = self.ctx.elem(0)
        for r in self.rects:
            total = total + r.area()
        return total

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        def enc(z: QElem):
            return {
                "a": [z.a.numerator, z.a.denominator],
                "b": [z.b.numerator, z.b.denominator],
            }

        data = {
            "D": self.ctx.D,
            "level": self.level,
            "rectangles": [
                {
                    "word": list(r.word),
                    "s_lo": enc(r.s.lo),
                    "s_hi": enc(r.s.hi),
                    "u_lo": enc(r.u.lo),
                    "u_hi": enc(r.u.hi),
                }
                for r in self.rects
            ],
            "transitions": [[i, j] for i, j in self.transitions()],
        }
        return json.dumps(data, indent=1)


def base_rectangles(ctx: FieldContext) -> tuple[Rect, Rect]:
    """The Adler seed pair (R0, R1), anchored at (-1,0), (-conj(alpha),0),
    (0,1) and (0,alpha); closed areas sum to the covolume."""
    zero, one = ctx.elem(0), ctx.elem(1)
    r1 = Rect(Iv(-one, zero), Iv(zero, ctx.alpha), (1,))
    r0 = Rect(Iv(zero, -ctx.alpha_conj), Iv(zero, one), (0,))
    return r0, r1


def generator(ctx: FieldContext, base: tuple[Rect, Rect] | None = None) -> Partition:
    """The level-0 Markov generator.

    For D = 5 the seed pair is itself a generator; otherwise the
    generator consists of the components of A meet phi^{-1}(B) over seed
    pairs.  The result is verified exactly and the constructor fails with
    the violating pair if verification does not pass.
    """
    if base is None:
        base = base_rectangles(ctx)
    if ctx.D == 5:
        rects = [Rect(r.s, r.u, (i,)) for i, r in enumerate(base)]
    else:
        pieces = []
        for a_idx, A in enumerate(base):
            for b_idx, B in enumerate(base):
                comps = torus_components(ctx, phi_inv_rect(ctx, B), A)
                comps.sort(key=lambda item: _lattice_key(ctx, item[0]))
                for _, piece in comps:
                    pieces.append((a_idx, b_idx, piece))
        rects = [
            Rect(piece.s, piece.u, (k,)) for k, (_, _, piece) in enumerate(pieces)
        ]
    part = Partition(ctx, 0, rects)
    report = verify_markov(part)
    if not report.ok:
        raise MarkovError(report)
    return part


def _lattice_key(ctx: FieldContext, q: QElem):
    x, y = ctx.xy_of(q)
    return (y, x)


def refine(p: Partition) -> Partition:
    """Level n+1 from level n: extend every admissible word one symbol on
    each side.  The child with word w takes its stable interval one map
    step forward from the cell w[:-2] (the same past without its newest
    symbol) and its unstable interval one map step back from the cell
    w[2:]; both are computed once per past and per future word, so cells
    with a common past or future share the interval."""
    base, ctx = p.base, p.ctx
    preds: dict[int, list[int]] = {i: [] for i in range(len(base.rects))}
    for i, j in base.transitions():
        preds[j].append(i)
    new_words = []
    for r in p.rects:
        w = r.word
        for a in preds[w[0]]:
            for b in base.successors(w[-1]):
                new_words.append((a,) + w + (b,))
    new_words.sort()
    level = p.level + 1
    stable: dict[tuple[int, ...], Iv] = {}
    unstable: dict[tuple[int, ...], Iv] = {}
    rects = []
    for w in new_words:
        past, future = w[: level + 1], w[level:]
        s = stable.get(past)
        if s is None:
            q = base.transition_translate(w[level - 1], w[level])
            s = p.rects[p.word_index[w[:-2]]].s.shift(q.conj()).scale(ctx.eps_conj)
            stable[past] = s
        u = unstable.get(future)
        if u is None:
            q = base.transition_translate(w[level], w[level + 1])
            u = p.rects[p.word_index[w[2:]]].u.scale(ctx.eps_inv).shift(-q)
            unstable[future] = u
        rects.append(Rect(s, u, w))
    return Partition(ctx, level, rects, base=base, parent=p)


def verify_markov(p: Partition) -> MarkovReport:
    """Exact Markov verification.

    Cells must be nondegenerate and their areas must sum to the
    covolume.  For every admissible pair (A, B) the torus intersection
    A meet phi^{-1}(B) must be a single rectangle that spans the full
    stable extent of A and whose unstable footprint is the full image of
    B (images stretch fully across in the expanding direction, stay
    inside in the contracting one).

    Level 0 is checked geometrically in full (``_verify_geometric``):
    every pair of cells is intersected over all lattice translates, so
    the cells are disjoint open torus sets, inadmissible pairs do not
    meet, and each admissible pair (a, b) meets in exactly one
    component, at the translate q_ab of ``transition_translate``.

    A refined level n rests on that, with no lattice enumeration.  Each
    cell with word w must lie, as a closed plane rectangle, in the
    level-0 cell of its central symbol w[n]; this is checked once per
    cell.  For an edge A -> B the central pair is (w[n], w[n+1]), so
    A meet (phi^{-1}(B) - (conj q, q)) lies in
    A_{w[n]} meet (phi^{-1}(A_{w[n+1]}) - (conj q, q)), which is empty for
    every lattice point q but q_{w[n] w[n+1]}.  The one component is the
    one at that translate, and the edge costs four exact endpoint
    comparisons: A.s inside phi^{-1}(B).s - conj q, and phi^{-1}(B).u - q
    inside A.u.  Disjointness and the emptiness of inadmissible pairs
    rest on level 0 too: ``refine`` builds the cell with word w inside
    the pullbacks phi^{-k}(A_{w[n+k]}) of the level-0 cells of its
    symbols, so two distinct words, or a pair of words that do not
    overlap by one shift, lie in pullbacks of two distinct level-0
    cells, which level 0 has shown to be disjoint.
    """
    if p.level == 0:
        return _verify_geometric(p)
    report = _verify_cells(p)
    if not report.ok:
        return report
    ctx, base, n = p.ctx, p.base, p.level
    for r in p.rects:
        c = base.rects[r.word[n]]
        if not (c.s.lo <= r.s.lo and r.s.hi <= c.s.hi and c.u.lo <= r.u.lo and r.u.hi <= c.u.hi):
            return _fail(r.word, c.word, "cell outside its level-0 cell")
    # phi^{-1}(B) - (conj q, q) per cell B, with q the translate of B's
    # (w[n-1], w[n]), the central pair of every predecessor of B.  Cells
    # with a common past or future share one interval object, so each
    # image side is computed once per interval object and pair.
    s_of, u_of, s_img, u_img = {}, {}, [], []
    for b in p.rects:
        pair = b.word[n - 1], b.word[n]
        q = base.transition_translate(*pair)
        if (id(b.s), pair) not in s_of:
            s_of[id(b.s), pair] = b.s.scale(ctx.eps * ctx.nm_eps).shift(-q.conj())
        if (id(b.u), pair) not in u_of:
            u_of[id(b.u), pair] = b.u.scale(ctx.eps_inv).shift(-q)
        s_img.append(s_of[id(b.s), pair])
        u_img.append(u_of[id(b.u), pair])
    for i, a in enumerate(p.rects):
        for j in p.successors(i):
            s, u = s_img[j], u_img[j]
            if not (s.lo <= a.s.lo and a.s.hi <= s.hi):
                return _fail(a.word, p.rects[j].word, _NOT_SPANNED)
            if not (a.u.lo <= u.lo and u.hi <= a.u.hi):
                return _fail(a.word, p.rects[j].word, _CLIPPED)
    return MarkovReport(True)


_NOT_SPANNED = "intersection does not span the stable extent"
_CLIPPED = "image clipped in the expanding direction"


def _fail(a, b, reason) -> MarkovReport:
    return MarkovReport(False, (a, b, reason))


def _verify_cells(p: Partition) -> MarkovReport:
    """Every cell nondegenerate; the areas sum to the covolume."""
    for r in p.rects:
        if not (r.s.lo < r.s.hi and r.u.lo < r.u.hi):
            return _fail(r.word, r.word, "degenerate rectangle")
    if p.total_area() != p.ctx.covolume:
        return _fail(None, None, f"area sum {p.total_area()} != covolume {p.ctx.covolume}")
    return MarkovReport(True)


def _verify_geometric(p: Partition) -> MarkovReport:
    """The full geometric check, quadratic in the cells: every pair must
    be disjoint as open torus sets, every inadmissible pair must miss
    phi^{-1} of the other, and every admissible pair must meet it in one
    component with the Markov property.  ``verify_markov`` runs it at
    level 0; on refined levels it is the oracle of the tests."""
    report = _verify_cells(p)
    if not report.ok:
        return report
    ctx = p.ctx
    for i, a in enumerate(p.rects):
        for j in range(i, len(p.rects)):
            b = p.rects[j]
            for q, _ in torus_components(ctx, a, b):
                if not (i == j and q == ctx.elem(0)):  # the rectangle itself
                    return _fail(a.word, b.word, f"open overlap at translate {q!r}")
    images = [phi_inv_rect(ctx, b) for b in p.rects]
    for i, a in enumerate(p.rects):
        for j, b in enumerate(images):
            pieces = torus_components(ctx, b, a)
            if not p.admissible(i, j):
                if pieces:
                    return _fail(a.word, b.word, "inadmissible pair has nonempty intersection")
            elif len(pieces) != 1:
                return _fail(a.word, b.word, f"{len(pieces)} components, expected 1")
            elif pieces[0][1].s != a.s:
                return _fail(a.word, b.word, _NOT_SPANNED)
            elif pieces[0][1].u != b.u.shift(-pieces[0][0]):
                return _fail(a.word, b.word, _CLIPPED)
    return MarkovReport(True)


def perturbed(p: Partition, index: int = 0, amount=Fraction(1, 100)) -> Partition:
    """A copy with one cell nudged sideways (area preserved); a
    negative-control fixture that must fail verification with a named pair."""
    rects = list(p.rects)
    r = rects[index]
    d = p.ctx.elem(amount)
    rects[index] = Rect(Iv(r.s.lo + d, r.s.hi + d), r.u, r.word)
    q = Partition(p.ctx, p.level, rects, base=p.base if p.level else None)
    q._succ = [p.successors(i) for i in range(len(p.rects))]
    return q
