from fractions import Fraction

from eucdyn.geometry import Iv, Rect, lattice_in_box, torus_components
from plane_oracles import covers_exactly


def _rect(ctx, s_lo, s_hi, u_lo, u_hi):
    return Rect(Iv(ctx.elem(s_lo), ctx.elem(s_hi)), Iv(ctx.elem(u_lo), ctx.elem(u_hi)))


def test_lattice_in_box_open_vs_closed(ctx5):
    one = ctx5.elem(1)
    box = Iv(-one, one)
    open_pts = set(lattice_in_box(ctx5, box, box, open_box=True))
    closed_pts = set(lattice_in_box(ctx5, box, box, open_box=False))
    assert (Fraction(0), Fraction(0)) in open_pts
    # the units +-1 sit exactly on the boundary
    assert (Fraction(1), Fraction(0)) not in open_pts
    assert (Fraction(1), Fraction(0)) in closed_pts
    assert open_pts <= closed_pts


def test_lattice_enumeration_is_complete(ctx5):
    # oracle: scan a crude integer range directly
    w = ctx5.elem(Fraction(5, 2))
    box = Iv(-w, w)
    got = set(lattice_in_box(ctx5, box, box, open_box=False))
    expect = set()
    for m in range(-12, 13):
        for n in range(-12, 13):
            q = ctx5.from_xy(m, n)
            if abs(q.conj()) <= w and abs(q) <= w:
                expect.add((Fraction(m), Fraction(n)))
    assert got == expect


def test_torus_components_open_semantics(ctx5):
    a = _rect(ctx5, 0, 1, 0, 1)
    # a translate touching along an edge does not intersect openly
    b = _rect(ctx5, 1, 2, 0, 1)
    pieces = torus_components(ctx5, a, b)
    for q, piece in pieces:
        assert piece.s.lo < piece.s.hi and piece.u.lo < piece.u.hi


def test_covers_exactly(ctx5):
    region = _rect(ctx5, 0, 2, 0, 2)
    tiles = [
        _rect(ctx5, 0, 1, 0, 2),
        _rect(ctx5, 1, 2, 0, 1),
        _rect(ctx5, 1, 2, 1, 2),
    ]
    assert covers_exactly(region, tiles)
    assert not covers_exactly(region, tiles[:2])
    # a sliver missing by 1/1000 is detected
    slit = [
        _rect(ctx5, 0, 1, 0, 2),
        _rect(ctx5, 1, 2, 0, 1),
        _rect(ctx5, 1, 2, Fraction(1001, 1000), 2),
    ]
    assert not covers_exactly(region, slit)


def test_interval_scale_flips(ctx5):
    iv = Iv(ctx5.elem(1), ctx5.elem(2))
    flipped = iv.scale(ctx5.elem(-1))
    assert flipped.lo == ctx5.elem(-2) and flipped.hi == ctx5.elem(-1)
