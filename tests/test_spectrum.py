import random
import time
from fractions import Fraction

import pytest

from eucdyn.coding import SymbolicPoint, code_qpoint
from eucdyn.qfield import QElem
from eucdyn.spectrum import (
    SpectrumSample,
    certify_spectrum_point,
    davenport_minima,
    dim_curve,
    plateau_detect,
    t_infinity,
)
from eucdyn.torus import PointXY, euclidean_min_qpoint
from eucdyn.trapping import i_k_set, trap_threshold


@pytest.fixture(scope="module")
def lattice5(ctx5, parts5):
    return tuple(i_k_set(ctx5, parts5[0]))


def fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_davenport_first_values():
    assert davenport_minima(1) == Fraction(1, 4)
    assert davenport_minima(2) == Fraction(1, 5)
    assert davenport_minima(3) == Fraction(19, 121)


def test_davenport_formula_against_fibonacci_oracle():
    for i in range(2, 12):
        k = i - 1
        expected = Fraction(fib(6 * k - 2) + fib(6 * k - 4),
                            4 * (fib(6 * k - 1) + fib(6 * k - 3) - 2))
        assert davenport_minima(i) == expected


def test_davenport_rejects_bad_index():
    with pytest.raises(ValueError):
        davenport_minima(0)


def test_davenport_decreasing_above_limit(ctx5):
    limit = t_infinity(ctx5)
    prev = None
    for i in range(1, 21):
        m = davenport_minima(i)
        assert ctx5.elem(m) > limit  # exact comparison in the field
        if prev is not None:
            assert m < prev
        prev = m


def test_t_infinity_value(ctx5):
    t = t_infinity(ctx5)
    assert t == ctx5.elem(Fraction(-1, 8), Fraction(1, 8))
    assert abs(float(t) - 0.15450849) < 1e-8


def test_t_infinity_wrong_field(ctx2):
    with pytest.raises(ValueError):
        t_infinity(ctx2)


def test_m10_close_to_limit(ctx5):
    gap = ctx5.elem(davenport_minima(10)) - t_infinity(ctx5)
    assert gap > 0
    assert gap < ctx5.elem(Fraction(1, 10**6))  # exact comparison


def test_dim_curve_extremes(ctx5, parts5, lattice5):
    p1 = parts5[1]
    thresholds = [trap_threshold(r, lattice5) for r in p1.rects]
    lo = min(thresholds, key=float)
    hi = max(thresholds, key=float)
    t_lo = Fraction(1, 2 * (1 + int(1 / float(lo))))
    t_hi = Fraction(int(float(hi)) + 2)
    samples = dim_curve(ctx5, [t_lo, t_hi], 1, lattice5, partition=p1)
    assert samples[0].trapped_count == 0
    assert samples[0].dim_upper == pytest.approx(2.0, abs=1e-9)
    assert samples[1].trapped_count == len(p1.rects)
    assert samples[1].empty_flag and samples[1].dim_upper == 0.0


def test_dim_curve_monotone(ctx5, parts5, lattice5):
    grid = [Fraction(k, 100) for k in range(10, 26)]
    prev = None
    for n in (1, 2, 3):
        samples = dim_curve(ctx5, grid, n, lattice5, partition=parts5[n])
        dims = [s.dim_upper for s in samples]
        assert all(b <= a + 1e-9 for a, b in zip(dims, dims[1:]))
        assert all(0.0 <= d <= 2.0 for d in dims)
        if prev is not None:
            assert all(b <= a + 1e-9 for a, b in zip(prev, dims))
        prev = dims


def test_dim_curve_deterministic(ctx5, parts5, lattice5):
    grid = [Fraction(k, 50) for k in range(6, 12)]
    one = dim_curve(ctx5, grid, 2, lattice5, partition=parts5[2])
    two = dim_curve(ctx5, grid, 2, lattice5, partition=parts5[2])
    assert one == two


def test_plateau_detect_constant():
    samples = [
        SpectrumSample(Fraction(k, 10), 1, 0, 5, 0.2, 1.0, False) for k in range(5)
    ]
    plats = plateau_detect(samples)
    assert len(plats) == 1
    assert (plats[0].t_lo, plats[0].t_hi) == (Fraction(0), Fraction(4, 10))


def test_plateau_detect_strictly_decreasing():
    samples = [
        SpectrumSample(Fraction(k, 10), 1, 0, 5, 0.2, 1.0 - 0.1 * k, False)
        for k in range(5)
    ]
    assert plateau_detect(samples) == []


def test_plateau_detect_validates_input():
    s = SpectrumSample(Fraction(1, 10), 1, 0, 5, 0.2, 1.0, False)
    s2 = SpectrumSample(Fraction(1, 10), 2, 0, 5, 0.2, 1.0, False)
    with pytest.raises(ValueError):
        plateau_detect([s, s2])


def test_plateau_near_015(ctx5, parts5, lattice5):
    grid = [Fraction(20, 200) + Fraction(k, 200) for k in range(31)]
    samples = dim_curve(ctx5, grid, 3, lattice5, partition=parts5[3])
    plats = plateau_detect(samples)
    target = Fraction(3, 20)
    assert any(p.t_lo <= target <= p.t_hi for p in plats)


def test_certify_zero(ctx5, parts5):
    sp = code_qpoint(parts5[0], PointXY(Fraction(0), Fraction(0)))[0]
    assert certify_spectrum_point(ctx5, parts5[0], sp) == 0


def test_certify_matches_search_on_rational_points(ctx5, parts5):
    p = PointXY(Fraction(1, 2), Fraction(1, 2))
    sp = code_qpoint(parts5[0], p)[0]
    v = certify_spectrum_point(ctx5, parts5[0], sp)
    assert v == Fraction(1, 4)
    assert isinstance(v, QElem)


def test_certify_field_point_heteroclinic(ctx5, parts5):
    # both tails on the minima orbit: the value is the classical limit
    sp = SymbolicPoint(0, (1,), (), (1, 1, 0), (), (1, 1, 0))
    v = certify_spectrum_point(ctx5, parts5[0], sp)
    assert v == t_infinity(ctx5)


def test_certify_large_tail_offset_is_fast(ctx2, parts2):
    # the forward offset from the torsion orbit is about -41770, far wider
    # than the search box; the tail search must start where the offset has
    # shrunk into the box instead of widening the box by the full offset
    text = "|5,13,2|6,16,10,25,21,11,28,26,23,14,5,12,1,4|10,25,19,6,16|"
    sp = SymbolicPoint.from_text(text, level=1)
    started = time.monotonic()
    v = certify_spectrum_point(ctx2, parts2[1], sp)
    assert time.monotonic() - started < 5
    assert v == ctx2.elem(Fraction(-1820866, 287), Fraction(2575119, 574))


def test_certify_homoclinic_is_zero(ctx5, parts5):
    sp = SymbolicPoint(0, (0,), (), (1,), (), (1,))
    assert certify_spectrum_point(ctx5, parts5[0], sp) == 0


def test_certify_always_in_field(ctx5, parts5):
    rng = random.Random(29)
    p0 = parts5[0]
    loops = [(1, 1, 0), (1, 1, 1, 0), (1, 0, 1, 1, 0), (1,), (1, 0)]
    for _ in range(12):
        left = rng.choice(loops)
        right = rng.choice(loops)
        center = [rng.choice(p0.successors(left[-1]))]
        for _ in range(rng.randint(0, 3)):
            center.append(rng.choice(p0.successors(center[-1])))
        while not p0.admissible(center[-1], right[0]):
            center.append(rng.choice(p0.successors(center[-1])))
        sp = SymbolicPoint(0, tuple(center), (), right, (), left)
        v = certify_spectrum_point(ctx5, p0, sp)
        assert isinstance(v, QElem)
        assert v >= 0


def test_certify_periodic_agrees_with_search(ctx5, parts5):
    from eucdyn.torus import su_to_xy
    from eucdyn.coding import pi_eval

    for loop in [(1, 1, 0), (1, 1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 1, 1, 0)]:
        sp = SymbolicPoint.purely_periodic(0, loop)
        xy = su_to_xy(ctx5, pi_eval(sp, parts5[0]))
        assert isinstance(xy, PointXY)
        v = certify_spectrum_point(ctx5, parts5[0], sp)
        assert v == euclidean_min_qpoint(ctx5, xy)
