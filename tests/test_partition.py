import itertools
import json
from fractions import Fraction

import pytest

from eucdyn.geometry import Iv, Rect, phi_inv_rect, torus_components
from eucdyn.partition import (
    MarkovError,
    Partition,
    _verify_geometric,
    base_rectangles,
    generator,
    perturbed,
    refine,
    verify_markov,
)
from eucdyn.qfield import make_context
from plane_oracles import tiles_plane


def test_base_anchor_points(ctx5):
    r0, r1 = base_rectangles(ctx5)
    # anchors (-1,0), ((-1+sqrt5)/2, 0), (0,1), (0,(1+sqrt5)/2)
    assert r1.s.lo == ctx5.elem(-1) and r1.s.hi == ctx5.elem(0)
    assert r1.u.lo == ctx5.elem(0) and r1.u.hi == ctx5.alpha
    assert r0.s.lo == ctx5.elem(0)
    assert r0.s.hi == ctx5.elem(Fraction(-1, 2), Fraction(1, 2))
    assert r0.u.lo == ctx5.elem(0) and r0.u.hi == ctx5.elem(1)


def test_base_area_is_covolume(ctx5):
    r0, r1 = base_rectangles(ctx5)
    assert r0.area() + r1.area() == ctx5.elem(0, 1)  # sqrt5


@pytest.mark.parametrize("D", [2, 3, 5, 13])
def test_base_tiles_plane(D):
    ctx = make_context(D)
    assert tiles_plane(ctx, list(base_rectangles(ctx)))


def test_generator_d5_transitions(parts5):
    p0 = parts5[0]
    assert len(p0.rects) == 2
    # the short cell cannot follow itself; the other three transitions exist
    assert not p0.admissible(0, 0)
    assert p0.admissible(0, 1) and p0.admissible(1, 0) and p0.admissible(1, 1)
    # each admissible transition is a single nonempty cell
    for i, j in ((0, 1), (1, 0), (1, 1)):
        [(_, comp)] = torus_components(p0.ctx, phi_inv_rect(p0.ctx, p0.rects[j]), p0.rects[i])
        assert comp.s.lo < comp.s.hi and comp.u.lo < comp.u.hi


@pytest.mark.parametrize("fixture", ["parts2", "parts3", "parts5", "parts13"])
def test_generator_surjective_transitions(fixture, request):
    p0 = request.getfixturevalue(fixture)[0]
    n = len(p0.rects)
    for i in range(n):
        assert p0.successors(i)
    incoming = {j for i in range(n) for j in p0.successors(i)}
    assert incoming == set(range(n))


def test_refine_count_matches_path_oracle(parts5):
    # independent oracle: enumerate words of length 3 avoiding the
    # forbidden transition by brute force
    p0, p1 = parts5[0], parts5[1]
    ok = lambda a, b: p0.admissible(a, b)
    words = [
        w
        for w in itertools.product(range(2), repeat=3)
        if ok(w[0], w[1]) and ok(w[1], w[2])
    ]
    assert len(p1.rects) == len(words) == 5
    assert sorted(r.word for r in p1.rects) == sorted(words)


def test_refinement_nesting(parts5):
    for coarse, fine in zip(parts5, parts5[1:]):
        n = coarse.level
        for r in fine.rects:
            parent = coarse.rects[coarse.word_index[r.word[1 : 2 * n + 2]]]
            assert parent.s.lo <= r.s.lo and r.s.hi <= parent.s.hi
            assert parent.u.lo <= r.u.lo and r.u.hi <= parent.u.hi


def _fold_s(base, past):
    """Stable interval of a past word (oldest symbol first), pushed
    forward from level 0 through every transition map."""
    iv = base.rects[past[0]].s
    for a, b in zip(past, past[1:]):
        iv = iv.shift(base.transition_translate(a, b).conj()).scale(base.ctx.eps_conj)
    return iv


def _fold_u(base, future):
    """Unstable interval of a future word, pulled back from level 0
    through every transition map."""
    iv = base.rects[future[-1]].u
    for a, b in reversed(list(zip(future, future[1:]))):
        iv = iv.scale(base.ctx.eps_inv).shift(-base.transition_translate(a, b))
    return iv


@pytest.mark.parametrize("D, top", [(2, 2), (3, 2), (5, 6), (6, 2), (7, 2), (13, 2)])
def test_refine_matches_folds_from_level_0(D, top):
    # refine takes one map step per new past and future; folding the
    # whole word from level 0 must give the same exact endpoints
    p = base = generator(make_context(D))
    while p.level < top:
        p = refine(p)
        n = p.level
        pasts, futures = {}, {}
        for r in p.rects:
            past, future = r.word[: n + 1], r.word[n:]
            if past not in pasts:
                pasts[past] = _fold_s(base, past)
            if future not in futures:
                futures[future] = _fold_u(base, future)
            s, u = pasts[past], futures[future]
            assert (r.s.lo, r.s.hi, r.u.lo, r.u.hi) == (s.lo, s.hi, u.lo, u.hi), r.word


def test_unstable_length_shrinks(parts5, ctx5):
    base_max = max((r.u.length() for r in parts5[0].rects), key=float)
    for n, p in enumerate(parts5):
        bound = base_max * (ctx5.eps_inv ** n)
        for r in p.rects:
            assert r.u.length() <= bound


def test_words_restrict_by_truncation(parts5):
    for coarse, fine in zip(parts5, parts5[1:]):
        coarse_words = set(coarse.word_index)
        for r in fine.rects:
            assert r.word[1:-1] in coarse_words


def test_admissibility_coherence(parts5):
    # overlap rule matches the geometry: words admissible iff they overlap
    # by one shift (checked against the geometric components in verify)
    p1 = parts5[1]
    for i, a in enumerate(p1.rects):
        for j, b in enumerate(p1.rects):
            assert p1.admissible(i, j) == (a.word[1:] == b.word[:-1])


@pytest.mark.parametrize("level", [0, 1, 2])
def test_verify_markov_d5(parts5, level):
    assert verify_markov(parts5[level]).ok
    assert _verify_geometric(parts5[level]).ok


def test_total_area_every_level(parts5, ctx5):
    for p in parts5:
        assert p.total_area() == ctx5.covolume


def test_perturbed_fails_with_named_pair(parts5):
    bad = perturbed(parts5[0], index=0, amount=Fraction(1, 100))
    report = verify_markov(bad)
    assert not report.ok
    assert report.counterexample is not None
    a, b, reason = report.counterexample
    assert a is not None and reason


def test_generator_raises_on_unverifiable(ctx5):
    # feeding nonsense seed rectangles must surface a MarkovError
    zero, one = ctx5.elem(0), ctx5.elem(1)
    bad = (
        Rect(Iv(zero, one), Iv(zero, one), (0,)),
        Rect(Iv(-one, zero), Iv(zero, ctx5.alpha), (1,)),
    )
    with pytest.raises(MarkovError):
        generator(ctx5, bad)


@pytest.mark.parametrize("fixture, level, cells", [("parts5", 4, 89), ("parts2", 2, 169)])
def test_verify_markov_modes_agree(fixture, level, cells, request):
    # the edge-by-edge check of a refined level and the quadratic
    # geometric check (the oracle) accept the partition and reject
    # every perturbed fixture
    parts = request.getfixturevalue(fixture)
    p = parts[-1]
    while p.level < level:
        p = refine(p)
    assert len(p.rects) == cells
    assert verify_markov(p).ok and _verify_geometric(p).ok
    for index in (0, len(p.rects) // 2, len(p.rects) - 1):
        bad = perturbed(p, index=index)
        assert not verify_markov(bad).ok, index
        assert not _verify_geometric(bad).ok, index


@pytest.mark.parametrize("fixture", ["parts2", "parts3", "parts13"])
def test_verify_markov_other_fields(fixture, request):
    parts = request.getfixturevalue(fixture)
    for p in parts:
        assert verify_markov(p).ok
        assert _verify_geometric(p).ok, p.level
        assert p.total_area() == p.ctx.covolume


def _shifted(p, index, ds=0, du=0):
    """A copy of a refined partition with one cell moved by (ds, du)."""
    rects = list(p.rects)
    r = rects[index]
    rects[index] = Rect(r.s.shift(ds), r.u.shift(du), r.word)
    return Partition(p.ctx, p.level, rects, base=p.base, parent=p.parent)


def test_verify_markov_rejects_every_perturbed_cell(parts2):
    # every cell of D=2 level 2, moved 1/100 along either axis, must fail
    # with a named pair; interior cells are caught only by the edge
    # comparisons on their own axis
    p = parts2[2]
    d = p.ctx.elem(Fraction(1, 100))
    reasons = set()
    for index in range(len(p.rects)):
        for shift in ({"ds": d}, {"du": d}):
            report = verify_markov(_shifted(p, index, **shift))
            assert not report.ok, (index, shift)
            a, b, reason = report.counterexample
            assert a is not None and b is not None and reason, (index, shift)
            reasons.add(reason)
    assert reasons == {
        "cell outside its level-0 cell",
        "intersection does not span the stable extent",
        "image clipped in the expanding direction",
    }


@pytest.mark.parametrize("fixture", ["parts2", "parts5"])
def test_verify_markov_rejects_cell_outside_its_level_0_cell(fixture, request):
    # a cell moved by a lattice point is the same torus set, so the
    # geometric oracle still accepts it; the edge check reads plane
    # endpoints against the level-0 cell and must name the cell
    p = request.getfixturevalue(fixture)[2]
    index = len(p.rects) // 2
    moved = _shifted(p, index, ds=-p.ctx.elem(1), du=-p.ctx.elem(1))
    assert _verify_geometric(moved).ok
    report = verify_markov(moved)
    assert not report.ok
    assert report.counterexample == (
        p.rects[index].word,
        p.base.rects[p.rects[index].word[2]].word,
        "cell outside its level-0 cell",
    )


def test_d13_alpha_branch(ctx13):
    assert ctx13.alpha == ctx13.elem(Fraction(1, 2), Fraction(1, 2))
    assert ctx13.nm_eps == -1


def test_d3_positive_conjugate_unit(parts3):
    # Nm(2+sqrt3) = +1: the orientation-preserving stable branch
    assert parts3[0].ctx.eps_conj_sign == 1


def test_json_dump(parts5):
    doc = json.loads(parts5[1].to_json())
    assert doc["level"] == 1 and doc["D"] == 5
    assert len(doc["rectangles"]) == 5
    words = {tuple(r["word"]) for r in doc["rectangles"]}
    assert words == set(parts5[1].word_index)
    for r in doc["rectangles"]:
        for key in ("s_lo", "s_hi", "u_lo", "u_hi"):
            assert set(r[key]) == {"a", "b"}
            num, den = r[key]["a"]
            assert isinstance(num, int) and den >= 1
    trans = {tuple(t) for t in doc["transitions"]}
    assert trans == set(parts5[1].transitions())
