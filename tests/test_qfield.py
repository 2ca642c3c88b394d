import random
from fractions import Fraction

import mpmath
import pytest

from eucdyn.qfield import (
    QElem,
    _is_square_free,
    abs_norm,
    compare,
    make_context,
    rational_sqrt_upper,
)


@pytest.mark.parametrize(
    "D,unit",
    [
        (5, (Fraction(1, 2), Fraction(1, 2))),  # (1+sqrt5)/2
        (2, (Fraction(1), Fraction(1))),  # 1+sqrt2
        (3, (Fraction(2), Fraction(1))),  # 2+sqrt3
        (13, (Fraction(3, 2), Fraction(1, 2))),  # (3+sqrt13)/2
    ],
)
def test_fundamental_unit_values(D, unit):
    ctx = make_context(D)
    assert (ctx.eps.a, ctx.eps.b) == unit


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 13])
def test_unit_is_minimal(D):
    # no unit of the maximal order lies strictly between 1 and eps
    ctx = make_context(D)
    eps = ctx.eps
    assert eps > 1
    assert abs(eps.norm()) == 1
    one = ctx.elem(1)
    # units have |conjugate| = 1/value < 1, so basis coordinates are small
    bound = int(float(eps)) + 2
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            z = ctx.from_xy(m, n)
            if abs(z.norm()) == 1 and one < z < eps:
                pytest.fail(f"smaller unit {z} found for D={D}")


def test_make_context_rejects_bad_d():
    for bad in (4, 12, 9, 1, 0, -5, 50):
        with pytest.raises(ValueError):
            make_context(bad)


def test_alpha_branches():
    assert make_context(2).alpha == QElem(make_context(2), 0, 1)
    c13 = make_context(13)
    assert (c13.alpha.a, c13.alpha.b) == (Fraction(1, 2), Fraction(1, 2))


def test_abs_norm_examples(ctx2, ctx5):
    assert abs_norm(ctx2.elem(1, 1)) == 1  # 1+sqrt2
    assert abs_norm(ctx5.elem(0)) == 0
    assert abs_norm(ctx5.elem(Fraction(3, 4), Fraction(1, 4))) == Fraction(1, 4)


def test_compare_examples(ctx5):
    assert compare(ctx5.elem(0, 1), ctx5.elem(2)) > 0  # sqrt5 > 2
    assert compare(ctx5.eps, ctx5.elem(1)) > 0
    x = ctx5.elem(Fraction(7, 3), Fraction(-2, 5))
    assert compare(x, x) == 0


def test_norm_properties(ctx5):
    rng = random.Random(1)
    for _ in range(200):
        x = ctx5.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        y = ctx5.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert x.abs_norm() == x.conj().abs_norm()
        assert (x * y).abs_norm() == x.abs_norm() * y.abs_norm()
        assert (x.conj().conj()) == x


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 13])
def test_unit_conjugate(D):
    ctx = make_context(D)
    prod = ctx.eps * ctx.eps.conj()
    assert prod == ctx.elem(ctx.nm_eps)
    assert ctx.eps > 1
    assert abs(ctx.eps.conj()) < 1
    assert ctx.eps_conj_sign == ctx.nm_eps
    # integer coordinates in the basis
    e0, e1 = ctx.unit_xy
    assert ctx.from_xy(e0, e1) == ctx.eps


def test_compare_matches_high_precision(ctx5):
    mpmath.mp.dps = 60
    rng = random.Random(7)
    sqrt5 = mpmath.sqrt(5)

    def to_mp(z):
        return mpmath.mpf(z.a.numerator) / z.a.denominator + (
            mpmath.mpf(z.b.numerator) / z.b.denominator
        ) * sqrt5

    for _ in range(1000):
        x = ctx5.elem(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        y = ctx5.elem(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        c = compare(x, y)
        diff = to_mp(x) - to_mp(y)
        if diff > mpmath.mpf("1e-40"):
            assert c > 0
        elif diff < mpmath.mpf("-1e-40"):
            assert c < 0
        else:
            assert c == 0


def test_floor(ctx5):
    rng = random.Random(3)
    mpmath.mp.dps = 50
    for _ in range(300):
        x = ctx5.elem(Fraction(rng.randint(-400, 400), rng.randint(1, 9)),
                      Fraction(rng.randint(-400, 400), rng.randint(1, 9)))
        f = x.floor()
        assert ctx5.elem(f) <= x < ctx5.elem(f + 1)
        assert x.ceil() == -((-x).floor())


def test_division_and_pow(ctx5):
    x = ctx5.elem(Fraction(3, 7), Fraction(-2, 5))
    assert x / x == ctx5.elem(1)
    assert (ctx5.eps ** 3) * (ctx5.eps ** -3) == ctx5.elem(1)
    assert ctx5.eps * ctx5.eps_inv == ctx5.elem(1)


def test_rational_sqrt_upper(ctx5):
    for z in (ctx5.elem(2), ctx5.eps * Fraction(5, 4), ctx5.elem(Fraction(1, 3))):
        w = rational_sqrt_upper(z)
        assert w * w >= z
        # not wildly loose
        assert float(w) ** 2 <= float(z) * (1 + 1e-6) + 1e-12


def test_mixed_arithmetic(ctx5):
    x = ctx5.elem(1, 1)
    assert x + 1 == ctx5.elem(2, 1)
    assert 1 + x == ctx5.elem(2, 1)
    assert x - Fraction(1, 2) == ctx5.elem(Fraction(1, 2), 1)
    assert 2 * x == ctx5.elem(2, 2)
    assert (x / 2) * 2 == x


@pytest.mark.parametrize("residues,pell_n", [((1,), (-4, 4)), ((2, 3), (-1, 1))])
def test_fundamental_unit_matches_sympy(residues, pell_n):
    # eps is the least (x + y*sqrt(D))/k > 1 over the solutions of
    # x^2 - D*y^2 = +-k^2, with k = 2 for D = 1 mod 4 and k = 1 otherwise
    from sympy.solvers.diophantine.diophantine import diop_DN

    k = 2 if residues == (1,) else 1
    checked = 0
    for D in range(2, 1200):
        if D % 4 not in residues or not _is_square_free(D):
            continue
        ctx = make_context(D)
        units = [
            ctx.elem(Fraction(abs(x), k), Fraction(abs(y), k))
            for n in pell_n
            for x, y in diop_DN(D, n)
            if y != 0
        ]
        assert ctx.eps == min(units), D
        checked += 1
    assert checked == (241 if k == 2 else 488)


def test_make_context_large_unit():
    # the least unit of Q(sqrt(241)) has y = 9148450; a capped y search missed it
    ctx = make_context(241)
    assert ctx.eps == ctx.elem(Fraction(142022136, 2), Fraction(9148450, 2))
    assert ctx.eps.norm() == -1
