"""Property tests of the integer normal form of field elements.

Values are checked against mpmath at 50 digits; floors of huge units
against mpmath at 2000 digits.  Hypothesis runs derandomized over
bounded numerators and denominators.
"""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eucdyn.qfield import QElem, make_context

FIELDS = {D: make_context(D) for D in (2, 3, 5, 13)}
PROPS = settings(derandomize=True, max_examples=150, deadline=None)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
fields = st.sampled_from(sorted(FIELDS))


@st.composite
def elems(draw, D):
    return QElem(FIELDS[D], draw(rationals), draw(rationals))


@st.composite
def pairs(draw):
    D = draw(fields)
    return D, draw(elems(D)), draw(elems(D))


def to_mp(z: QElem, dps: int = 50):
    with mpmath.workdps(dps):
        return (mpmath.mpf(z.p) + mpmath.mpf(z.q) * mpmath.sqrt(z.ctx.D)) / z.c


def close(x, y) -> bool:
    with mpmath.workdps(50):
        return abs(x - y) <= mpmath.mpf(10) ** -40 * max(1, abs(x), abs(y))


def assert_normal(z: QElem):
    assert all(isinstance(v, int) for v in (z.p, z.q, z.c))
    assert z.c > 0
    assert gcd(z.p, z.q, z.c) == 1


@PROPS
@given(pairs())
def test_ring_ops_match_mpmath(pair):
    _, x, y = pair
    mx, my = to_mp(x), to_mp(y)
    with mpmath.workdps(50):
        assert close(to_mp(x + y), mx + my)
        assert close(to_mp(x - y), mx - my)
        assert close(to_mp(x * y), mx * my)
        assert close(to_mp(-x), -mx)
        if y != 0:
            assert close(to_mp(x / y), mx / my)


@PROPS
@given(pairs())
def test_ring_laws_exact(pair):
    D, x, y = pair
    z = QElem(FIELDS[D], Fraction(3, 7), Fraction(-2, 5))
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == 0 and x + 0 == x and x * 1 == x
    assert (x * y).norm() == x.norm() * y.norm()
    assert x + x.conj() == 2 * x.a and x * x.conj() == x.norm()
    if y != 0:
        assert (x / y) * y == x


@PROPS
@given(pairs())
def test_order_matches_mpmath(pair):
    _, x, y = pair
    with mpmath.workdps(50):
        diff = to_mp(x) - to_mp(y)
    if x == y:
        assert diff == 0
        assert x <= y and x >= y and not x < y and not x > y
    else:
        # distinct elements of this size differ by far more than 1e-40
        assert abs(diff) > mpmath.mpf(10) ** -40
        assert (x < y) == (diff < 0) and (x > y) == (diff > 0)
        assert (x <= y) == (diff < 0) and (x >= y) == (diff > 0)
    assert (x - y).sign() == (diff > 0) - (diff < 0)
    assert abs(x).sign() >= 0


@PROPS
@given(pairs())
def test_floor_ceil_match_mpmath(pair):
    _, x, _ = pair
    with mpmath.workdps(50):
        v = to_mp(x)
        assert x.floor() == int(mpmath.floor(v))
        assert x.ceil() == int(mpmath.ceil(v))


@PROPS
@given(pairs(), st.integers(min_value=-3, max_value=3))
def test_results_in_normal_form(pair, k):
    _, x, y = pair
    results = [x, y, x + y, x - y, x * y, -x, x.conj(), x + k, k - x, x * k]
    if y != 0:
        results += [x / y, k / y]
    if x != 0:
        results.append(x ** k)
    for z in results:
        assert_normal(z)


@PROPS
@given(fields, rationals)
def test_rational_elements_agree_with_fraction(D, r):
    z = QElem(FIELDS[D], r)
    assert z == r and r == z
    assert hash(z) == hash(r)
    assert {r: "hit"}[z] == "hit"
    assert z.to_fraction() == r and (z.a, z.b) == (r, 0)
    if r.denominator == 1:
        k = int(r)
        assert z == k and k == z and hash(z) == hash(k)
    assert z != r + Fraction(1, 1001)


@pytest.mark.parametrize("k", [1, -1, 5, -5, 25, -25])
def test_floor_ceil_of_huge_units(k):
    ctx = make_context(331)
    z = ctx.eps ** k
    with mpmath.workdps(2000):
        v = to_mp(z, 2000)
        assert z.floor() == int(mpmath.floor(v))
        assert z.ceil() == int(mpmath.ceil(v))
