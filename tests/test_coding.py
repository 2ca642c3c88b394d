import random
from fractions import Fraction

import pytest

from eucdyn.coding import SymbolicPoint, code_qpoint, pi_eval
from eucdyn.geometry import Rect, phi_inv_rect, torus_components
from eucdyn.partition import Partition
from eucdyn.sft import random_itinerary
from eucdyn.torus import PointXY, orbit, phi_su, su_to_xy, torus_eq, xy_to_su


def phi_rect(ctx, r):
    return Rect(r.s.scale(ctx.eps_conj), r.u.scale(ctx.eps))


@pytest.mark.parametrize("fixture", ["parts2", "parts3", "parts5", "parts13"])
def test_transition_maps_match_torus_components(fixture, request):
    # the translate q of (a, b) reproduces both one-step pieces exactly:
    # A_a meet phi^{-1}(A_b) (unstable pulled back) and A_b meet phi(A_a)
    # (stable pushed forward, at translate -eps*q)
    p0 = request.getfixturevalue(fixture)[0]
    ctx = p0.ctx
    for a, b in p0.transitions():
        A, B = p0.rects[a], p0.rects[b]
        q = p0.transition_translate(a, b)
        [(q_f, follow)] = torus_components(ctx, phi_inv_rect(ctx, B), A)
        assert q_f == q
        assert follow.s == A.s
        assert follow.u == B.u.scale(ctx.eps_inv).shift(-q)
        [(q_p, precede)] = torus_components(ctx, phi_rect(ctx, A), B)
        assert q_p == -ctx.eps * q
        assert precede.s == A.s.shift(q.conj()).scale(ctx.eps_conj)
        assert precede.u == B.u
    n = len(p0.rects)
    bad = next((a, b) for a in range(n) for b in range(n) if not p0.admissible(a, b))
    with pytest.raises(ValueError):
        p0.transition_translate(*bad)


def test_unstable_footprints_tile(parts5, parts2):
    # the sub-cells by next symbol partition each cell's unstable extent
    for parts in (parts5, parts2):
        p0 = parts[0]
        for i, a in enumerate(p0.rects):
            total = p0.ctx.elem(0)
            for j in p0.successors(i):
                [(_, comp)] = torus_components(p0.ctx, phi_inv_rect(p0.ctx, p0.rects[j]), a)
                total = total + comp.u.length()
            assert total == a.u.length()


def test_rho_levels_consistent(parts5):
    # evaluating through the refined alphabet gives the same point
    rng = random.Random(2)
    p0, p1 = parts5[0], parts5[1]
    for _ in range(20):
        sp0 = SymbolicPoint.purely_periodic(0, random_itinerary(rng, p0).right_loop)
        su0 = pi_eval(sp0, p0)
        cycle = sp0.right_loop
        # the level-1 itinerary of the same point: sliding windows
        ext = cycle * 3
        words = [tuple(ext[k : k + 3]) for k in range(len(cycle))]
        ids = [p1.word_index[w] for w in words]
        # the window centered at position k starts at k-1: rotate once
        sp1 = SymbolicPoint.purely_periodic(1, tuple(ids[-1:] + ids[:-1]))
        su1 = pi_eval(sp1, p1)
        assert torus_eq(p0.ctx, su0, su1)


def test_pi_eval_purely_periodic_is_rational(parts5):
    rng = random.Random(4)
    for _ in range(30):
        sp = SymbolicPoint.purely_periodic(0, random_itinerary(rng, parts5[0]).right_loop)
        xy = su_to_xy(parts5[0].ctx, pi_eval(sp, parts5[0]))
        assert isinstance(xy, PointXY)


def test_pi_eval_period_two_torsion(parts5, ctx5):
    sp = SymbolicPoint.purely_periodic(0, (1, 0))
    su = pi_eval(sp, parts5[0])
    # fixed under the square of the unit map: (eps^2 - 1) * point is integral
    assert torus_eq(ctx5, phi_su(ctx5, phi_su(ctx5, su)), su)


def test_pi_eval_against_truncated_series(parts5, ctx5):
    # independent oracle: numerically sum the defining series far enough
    # that the geometric tail is below 1e-12, and compare; the per-step
    # offsets are read off the one-step pieces, with the stable offset
    # measured from the top edge at odd steps when conj(eps) < 0
    rng = random.Random(9)
    p0 = parts5[0]
    rects = p0.rects
    eps = float(ctx5.eps)

    def offset_u(a, b):  # start of A_a meet phi^{-1}(A_b) within A_a
        [(_, comp)] = torus_components(ctx5, phi_inv_rect(ctx5, rects[b]), rects[a])
        return float(comp.u.lo - rects[a].u.lo)

    def offset_s(a, b, orient):  # A_a meet phi(A_b) within A_a
        [(_, comp)] = torus_components(ctx5, phi_rect(ctx5, rects[b]), rects[a])
        if orient > 0:
            return float(comp.s.lo - rects[a].s.lo)
        return float(rects[a].s.hi - comp.s.hi)

    for _ in range(25):
        sp = random_itinerary(rng, p0)
        su = pi_eval(sp, p0)
        u_num = float(rects[sp.symbol(0)].u.lo)
        for i in range(80):
            u_num += offset_u(sp.symbol(i), sp.symbol(i + 1)) / eps**i
        s_num = float(rects[sp.symbol(0)].s.lo)
        alternate = ctx5.eps_conj_sign < 0
        for i in range(80):
            orient = -1 if (alternate and i % 2 == 1) else 1
            s_num += offset_s(sp.symbol(-i), sp.symbol(-i - 1), orient) / eps**i
        assert abs(float(su.u) - u_num) < 1e-9
        assert abs(float(su.s) - s_num) < 1e-9


@pytest.mark.parametrize("fixture", ["parts5", "parts2", "parts3"])
def test_conjugacy_exact(fixture, request):
    parts = request.getfixturevalue(fixture)
    p = parts[0]
    ctx = p.ctx
    rng = random.Random(17)
    for _ in range(40):
        sp = random_itinerary(rng, p)
        left = pi_eval(sp.shifted(1), p)
        right = phi_su(ctx, pi_eval(sp, p))
        assert torus_eq(ctx, left, right)


def test_code_qpoint_zero(parts5, ctx5):
    zero = PointXY(Fraction(0), Fraction(0))
    codes = code_qpoint(parts5[0], zero)
    assert len(codes) == 1
    assert torus_eq(ctx5, pi_eval(codes[0], parts5[0]), xy_to_su(ctx5, zero))


def test_code_qpoint_period_three(parts5, ctx5):
    p = PointXY(Fraction(1, 2), Fraction(1, 2))
    codes = code_qpoint(parts5[0], p)
    assert codes
    for sp in codes:
        assert len(sp.right_loop) == 3
        for k in range(-4, 4):
            assert parts5[0].admissible(sp.symbol(k), sp.symbol(k + 1))
        assert torus_eq(ctx5, pi_eval(sp, parts5[0]), xy_to_su(ctx5, p))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_code_round_trip_small_denominators(parts5, ctx5, level):
    part = parts5[level]
    for den in (1, 2, 3):
        for a in range(den):
            for b in range(den):
                p = PointXY(Fraction(a, den), Fraction(b, den))
                target = xy_to_su(ctx5, p)
                for sp in code_qpoint(part, p):
                    assert torus_eq(ctx5, pi_eval(sp, part), target)


@pytest.mark.parametrize("fixture", ["parts2", "parts3", "parts5", "parts13"])
@pytest.mark.parametrize("level", [1, 2])
def test_code_qpoint_chain_matches_every_cell_search(fixture, level, request):
    # oracle: a parentless copy of the partition tests every cell, while
    # the refined partition searches only inside its parent's candidates
    part = request.getfixturevalue(fixture)[level]
    ctx = part.ctx
    flat = Partition(ctx, level, part.rects, base=part.base)
    assert flat.parent is None
    seen = set()
    for den in (1, 2, 3, 4):
        for a in range(den):
            for b in range(den):
                p = PointXY(Fraction(a, den), Fraction(b, den))
                if p in seen:
                    continue
                seen.update(orbit(ctx, p))
                assert code_qpoint(part, p) == code_qpoint(flat, p), p


def test_pi_eval_values_are_exact_field_elements(parts5):
    rng = random.Random(23)
    p0 = parts5[0]
    for _ in range(50):
        sp = random_itinerary(rng, p0)
        su = pi_eval(sp, p0)
        assert isinstance(su.s.a, Fraction) and isinstance(su.s.b, Fraction)
        assert isinstance(su.u.a, Fraction) and isinstance(su.u.b, Fraction)


def test_symbolic_point_text_round_trip():
    sp = SymbolicPoint(0, (1, 0), (1,), (1, 0), (1,), (0, 1))
    assert sp.to_text() == "1|0,1|1,0|1,0|1"
    back = SymbolicPoint.from_text(sp.to_text())
    assert back == sp


def test_shifted_consistency(parts5):
    rng = random.Random(31)
    sp = random_itinerary(rng, parts5[0])
    sh = sp.shifted(3)
    for k in range(-12, 12):
        assert sh.symbol(k) == sp.symbol(k + 3)
