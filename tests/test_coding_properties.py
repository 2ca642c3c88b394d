"""Property tests of the coding map over random itineraries.

Hypothesis drives ``sft.random_itinerary`` derandomized and bounded.  At
level 0, for D in {2, 3, 5, 6, 7, 13}, shifting the string must match
the unit map on the torus exactly, and the coded point must lie in the
closed cell of its symbol at index 0.  The containment is also checked
at levels 1-2 for D in {2, 5, 13}, which ties the rectangles ``refine``
folds to the sums ``pi_eval`` evaluates.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eucdyn.coding import pi_eval
from eucdyn.partition import generator, refine
from eucdyn.qfield import make_context
from eucdyn.sft import random_itinerary
from eucdyn.torus import phi_su, torus_eq

PROPS = settings(derandomize=True, max_examples=50, deadline=None)
rngs = st.randoms(use_true_random=False)


@cache
def partition(D: int, level: int):
    if level == 0:
        return generator(make_context(D))
    return refine(partition(D, level - 1))


def in_closed_cell(su, rect) -> bool:
    return rect.s.lo <= su.s <= rect.s.hi and rect.u.lo <= su.u <= rect.u.hi


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 13])
@PROPS
@given(rng=rngs)
def test_level0_conjugacy_and_containment(D, rng):
    p = partition(D, 0)
    sp = random_itinerary(rng, p)
    su = pi_eval(sp, p)
    assert torus_eq(p.ctx, pi_eval(sp.shifted(1), p), phi_su(p.ctx, su))
    assert in_closed_cell(su, p.rects[sp.symbol(0)])


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("D", [2, 5, 13])
@PROPS
@given(rng=rngs)
def test_refined_containment(D, level, rng):
    p = partition(D, level)
    sp = random_itinerary(rng, p)
    assert in_closed_cell(pi_eval(sp, p), p.rects[sp.symbol(0)])
