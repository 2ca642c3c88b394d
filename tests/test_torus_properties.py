"""Property test of the complete M(P) search against brute force.

For rational points with denominators up to 6 and D in {2, 3, 5, 13},
``euclidean_min_qpoint`` must equal the least |Nm| over the lattice
translates of every orbit point in a box twice as wide as the search
box, enumerated here coordinate by coordinate with no code from the
package's lattice search.
"""

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eucdyn.qfield import make_context
from eucdyn.torus import PointXY, euclidean_min_qpoint

PROPS = settings(derandomize=True, max_examples=60, deadline=None)


@cache
def context(D: int):
    return make_context(D)


def brute_force_min(ctx, x: Fraction, y: Fraction) -> Fraction:
    """Least |Nm(P - q)| over lattice points q = m + n*alpha with both
    stable and unstable coordinates of P - q within twice the search
    half-width, over every point P of the orbit of (x, y)."""
    T, N = ctx.alpha_trace, ctx.alpha_norm
    root = math.sqrt(T * T - 4 * N)
    a, ac = (T + root) / 2, (T - root) / 2  # alpha and its conjugate
    half = 2 * float(ctx.box_halfwidth)
    # eps = e0 + e1*alpha times X + Y*alpha, using alpha^2 = T*alpha - N
    e0, e1 = ctx.unit_xy
    orbit, pt = [], (x % 1, y % 1)
    while pt not in orbit:
        orbit.append(pt)
        px, py = pt
        pt = ((e0 * px - N * e1 * py) % 1, (e1 * px + (e0 + T * e1) * py) % 1)
    # X + Y*alpha has coordinates s = X + Y*ac, u = X + Y*a, so |s|, |u| <=
    # half forces |Y| <= 2*half/root and |X| <= half*(|a| + |ac|)/root
    y_reach = 2 * half / root + 1
    x_reach = half * (abs(a) + abs(ac)) / root + 1
    best = None
    for px, py in orbit:
        for n in range(math.floor(py - y_reach), math.ceil(py + y_reach) + 1):
            for m in range(math.floor(px - x_reach), math.ceil(px + x_reach) + 1):
                X, Y = px - m, py - n
                if abs(X + Y * ac) <= half and abs(X + Y * a) <= half:
                    val = abs(X * X + T * X * Y + N * Y * Y)
                    best = val if best is None else min(best, val)
    return best


@pytest.mark.parametrize("D", [2, 3, 5, 13])
@PROPS
@given(data=st.data())
def test_m_search_matches_brute_force(D, data):
    den = data.draw(st.integers(1, 6))
    x = Fraction(data.draw(st.integers(0, den - 1)), den)
    y = Fraction(data.draw(st.integers(0, den - 1)), den)
    ctx = context(D)
    assert euclidean_min_qpoint(ctx, PointXY(x, y)) == brute_force_min(ctx, x, y)
