from fractions import Fraction

import pytest

from eucdyn.geometry import Iv, Rect
from eucdyn.partition import Partition, refine
from eucdyn.qfield import make_context
from eucdyn.sft import avoid, dimension, entropy
from eucdyn.trapping import (
    big_rectangle,
    corner_sup,
    i_k_set,
    straddling,
    trap_threshold,
    trap_thresholds,
    trapped,
)

FIELD_CHAINS = ("parts2", "parts3", "parts5", "parts13")


def _unit_rect(ctx, s_lo, s_hi, u_lo, u_hi):
    return Rect(Iv(ctx.elem(s_lo), ctx.elem(s_hi)), Iv(ctx.elem(u_lo), ctx.elem(u_hi)))


def test_big_rectangle(ctx5):
    r = big_rectangle(ctx5)
    w = r.s.hi
    assert r.s.lo == -w and r.u.lo == -w and r.u.hi == w  # symmetric
    assert w * w >= ctx5.eps * (ctx5.m1_bound + 1)  # certified outer bound


def test_big_rectangle_monotone():
    small = make_context(5, m1_bound=Fraction(1, 4))
    large = make_context(5, m1_bound=Fraction(3))
    assert big_rectangle(small).s.hi < big_rectangle(large).s.hi


def test_trapped_single_examples(ctx5):
    a = _unit_rect(ctx5, Fraction(1, 10), Fraction(2, 10), Fraction(1, 10), Fraction(2, 10))
    zero = ctx5.elem(0)
    assert corner_sup(a, zero) == ctx5.elem(Fraction(1, 25))
    assert trapped([corner_sup(a, zero)], Fraction(1, 20)) == [0]
    assert trapped([corner_sup(a, zero)], Fraction(1, 25)) == []  # tie excluded
    b = _unit_rect(ctx5, -1, 1, -1, 1)
    assert trapped([corner_sup(b, zero)], Fraction(1, 2)) == []
    assert trapped([None], Fraction(1, 2)) == []  # no lattice points


def test_i_k_set_basics(ctx5, parts5):
    points = i_k_set(ctx5, parts5[0])
    xs = {ctx5.xy_of(q) for q in points}
    assert (Fraction(0), Fraction(0)) in xs
    # deterministic across reruns
    again = i_k_set(ctx5, parts5[0])
    assert [str(q) for q in points] == [str(q) for q in again]
    # widening never shrinks
    wider = i_k_set(ctx5, parts5[0], extra=1)
    assert xs <= {ctx5.xy_of(q) for q in wider}


def test_i_k_monotone_in_bound(parts5):
    small = make_context(5, m1_bound=Fraction(1, 4))
    from eucdyn.partition import generator

    p_small = generator(small)
    pts_small = {small.xy_of(q) for q in i_k_set(small, p_small)}
    big = make_context(5, m1_bound=Fraction(3))
    p_big = generator(big)
    pts_big = {big.xy_of(q) for q in i_k_set(big, p_big)}
    assert pts_small <= pts_big


def test_trapped_set_monotone_in_t(ctx5, parts5):
    thresholds = trap_thresholds(parts5[2], i_k_set(ctx5, parts5[0]))
    t_small = trapped(thresholds, Fraction(3, 20))
    t_big = trapped(thresholds, Fraction(1, 4))
    assert set(t_small) <= set(t_big)


def test_trapped_set_monotone_in_points(ctx5, parts5):
    points = i_k_set(ctx5, parts5[0])
    p2 = parts5[2]
    t = Fraction(1, 5)
    small = trapped(trap_thresholds(p2, points[:3]), t)
    assert set(small) <= set(trapped(trap_thresholds(p2, points), t))


def test_trapped_empty_for_tiny_t(ctx5, parts5):
    points = tuple(i_k_set(ctx5, parts5[0]))
    for p in parts5[1:]:
        thresholds = [trap_threshold(r, points) for r in p.rects]
        floor = min(thresholds, key=float)
        assert floor > 0  # no cell straddles a norm-zero locus of a point
        t = floor.a / 2 if floor.is_rational() else Fraction(float(floor) / 2).limit_denominator(10**6)
        assert trapped(trap_thresholds(p, points), t) == []


def test_everything_trapped_for_huge_t(ctx5, parts5):
    points = tuple(i_k_set(ctx5, parts5[0]))
    p1 = parts5[1]
    hi = max((trap_threshold(r, points) for r in p1.rects), key=float)
    t = Fraction(int(float(hi)) + 2)
    assert trapped(trap_thresholds(p1, points), t) == list(range(len(p1.rects)))


def test_threshold_consistent_with_trapped_set(ctx5, parts5):
    points = tuple(i_k_set(ctx5, parts5[0]))
    p2 = parts5[2]
    thresholds = [trap_threshold(r, points) for r in p2.rects]
    for t in (Fraction(3, 20), Fraction(1, 5), Fraction(1, 4)):
        via_threshold = [i for i, v in enumerate(thresholds) if v < t]
        assert trapped(trap_thresholds(p2, points), t) == via_threshold


def test_dimension_bound_monotone_in_level(ctx5, parts5):
    points = tuple(i_k_set(ctx5, parts5[0]))
    grid = [Fraction(k, 40) for k in range(4, 11)]
    prev = None
    for n in (1, 2, 3):
        dims = []
        thresholds = trap_thresholds(parts5[n], points)
        for t in grid:
            s = avoid(parts5[n], trapped(thresholds, t))
            dims.append(dimension(entropy(s).value, ctx5))
        if prev is not None:
            assert all(b <= a + 1e-9 for a, b in zip(prev, dims))
        prev = dims


def _four_corner_sup(a, q):
    return max(abs(cs - q.conj()) * abs(cu - q) for cs, cu in a.corners())


def _flat_thresholds(p, points):
    return [min(_four_corner_sup(r, q) for q in points) for r in p.rects]


@pytest.mark.parametrize("chain", FIELD_CHAINS)
def test_corner_sup_matches_four_corners(request, chain):
    parts = request.getfixturevalue(chain)
    points = i_k_set(parts[0].ctx, parts[0])
    for r in parts[2].rects:
        for q in points:
            assert corner_sup(r, q) == _four_corner_sup(r, q)


@pytest.mark.parametrize("chain", FIELD_CHAINS)
def test_trap_thresholds_match_flat_minimum(request, chain):
    parts = request.getfixturevalue(chain)
    points = i_k_set(parts[0].ctx, parts[0])
    for p in parts[:3]:
        assert trap_thresholds(p, points) == _flat_thresholds(p, points)


def test_trap_thresholds_match_flat_minimum_deep(ctx5, parts5):
    points = i_k_set(ctx5, parts5[0])
    p = parts5[3]
    while True:
        assert trap_thresholds(p, points) == _flat_thresholds(p, points)
        if p.level == 6:
            break
        p = refine(p)


def test_trap_thresholds_without_parent(ctx5, parts5):
    points = i_k_set(ctx5, parts5[0])
    loose = Partition(ctx5, 2, parts5[2].rects, base=parts5[0])
    assert loose.parent is None
    assert trap_thresholds(loose, points) == _flat_thresholds(loose, points)


def test_refine_records_parent(parts5):
    assert parts5[0].parent is None
    assert refine(parts5[1]).parent is parts5[1]


@pytest.mark.parametrize("chain", FIELD_CHAINS)
def test_refined_cells_lie_in_parent(request, chain):
    for p in request.getfixturevalue(chain)[1:]:
        parent = p.parent
        for r in p.rects:
            a = parent.rects[parent.word_index[r.word[1:-1]]]
            assert a.s.lo <= r.s.lo and r.s.hi <= a.s.hi, r.word
            assert a.u.lo <= r.u.lo and r.u.hi <= a.u.hi, r.word


@pytest.mark.parametrize("chain", ("parts2", "parts5", "parts13"))
@pytest.mark.parametrize("t", (Fraction(3, 20), Fraction(1, 5)))
def test_straddling_matches_brute_force(request, chain, t):
    parts = request.getfixturevalue(chain)
    points = i_k_set(parts[0].ctx, parts[0])
    p = parts[2]
    expected = [
        i
        for i, (r, th) in enumerate(zip(p.rects, _flat_thresholds(p, points)))
        if th >= t
        and all(
            any(abs(cs - q.conj()) * abs(cu - q) < t for q in points)
            for cs, cu in r.corners()
        )
    ]
    assert straddling(p, points, t, trap_thresholds(p, points)) == expected
