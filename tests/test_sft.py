import math
import random
import tracemalloc

import numpy as np
import pytest

from eucdyn.partition import refine
from eucdyn.sft import Subshift, avoid, dimension, entropy

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def test_golden_mean_matrix(parts5):
    s = avoid(parts5[0], [])
    assert s.symbols.tolist() == [0, 1]
    assert s.graph.toarray().astype(int).tolist() == [[0, 1], [1, 1]]


def test_golden_mean_entropy(parts5):
    e = entropy(avoid(parts5[0], []))
    assert abs(e.value - LOG_PHI) < 1e-10
    assert e.lower <= e.value <= e.upper
    assert e.upper - e.lower < 1e-10


def test_entropy_against_eigvals_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 7)
        mat = np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(n)])
        s = Subshift.from_matrix(mat)
        e = entropy(s)
        if s.empty:
            assert e.empty and e.value == 0.0
            continue
        rho = max(abs(np.linalg.eigvals(s.graph.toarray())))
        assert abs(e.value - math.log(max(rho, 1.0))) < 1e-9


def test_pruning_keeps_exactly_the_bi_infinite_symbols():
    # with n symbols, i lies on a bi-infinite path iff some path of n
    # steps ends at i and some path of n steps starts at i (pigeonhole)
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 8)
        mat = np.array([[rng.random() < 0.3 for _ in range(n)] for _ in range(n)])
        power = np.linalg.matrix_power(mat.astype(np.int64), n)
        essential = [i for i in range(n) if power[:, i].any() and power[i, :].any()]
        s = Subshift.from_matrix(mat)
        assert s.symbols.tolist() == essential
        assert (s.graph.toarray() == mat[np.ix_(essential, essential)]).all()


def test_permutation_cycle_entropy():
    s = Subshift.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    e = entropy(s)
    assert e.value == 0.0 and not e.empty


def test_forbid_everything(parts5):
    s = avoid(parts5[0], [0, 1])
    assert s.empty
    e = entropy(s)
    assert e.empty and e.value == 0.0
    assert dimension(e.value, parts5[0].ctx) == 0.0


def test_forbid_the_long_cell_gives_empty(parts5):
    # with the short cell unable to follow itself nothing bi-infinite remains
    s = avoid(parts5[0], [1])
    assert s.empty


def test_avoid_rejects_unknown_words(parts5):
    p1 = parts5[1]
    for bad in (-1, len(p1.rects)):
        with pytest.raises(ValueError):
            avoid(p1, [0, bad])


def test_dimension_edges(ctx5):
    assert dimension(math.log(float(ctx5.eps)), ctx5) == pytest.approx(2.0, abs=1e-9)
    assert dimension(0.0, ctx5) == 0.0
    with pytest.raises(ValueError):
        dimension(-0.1, ctx5)


def test_dimension_full_shift_is_two(parts5, ctx5):
    e = entropy(avoid(parts5[0], []))
    assert abs(dimension(e.value, ctx5) - 2.0) < 1e-9


@pytest.mark.parametrize("n, alphabet", [(0, 2), (1, 5), (2, 13), (3, 34), (8, 4181)])
def test_full_shift_entropy_every_level(parts5, n, alphabet):
    p = parts5[min(n, 3)]
    while p.level < n:
        p = refine(p)
    tracemalloc.start()
    try:
        s = avoid(p, [])
        e = entropy(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.alphabet_size == alphabet
    assert abs(e.value - LOG_PHI) < 1e-10
    # the graph has O(alphabet) edges; a dense m x m matrix at level 8
    # (4181 symbols) would take over 100 MB
    assert peak < 16 * 2**20


def test_forbidden_word_entropy_stable_under_refinement(parts5):
    # forbidding the cells whose central three symbols are (1, 1, 1) at
    # levels 1..3 bans the same points: golden-mean strings without 111,
    # i.e. concatenations of 10 and 110, whose entropy is log of the real
    # root of x^3 = x + 1
    plastic = max(r.real for r in np.roots([1, 0, -1, -1]) if abs(r.imag) < 1e-12)

    def h(n):
        p = parts5[n]
        banned = [i for i, r in enumerate(p.rects) if r.word[n - 1 : n + 2] == (1, 1, 1)]
        return entropy(avoid(p, banned)).value

    h1, h2, h3 = (h(n) for n in (1, 2, 3))
    assert abs(h1 - math.log(plastic)) < 1e-10
    assert abs(h2 - h1) < 1e-10
    assert abs(h3 - h1) < 1e-10


def test_entropy_monotone_under_symbol_removal(parts5):
    rng = random.Random(3)
    p2 = parts5[2]
    full = avoid(p2, [])
    h_full = entropy(full).value
    for _ in range(10):
        removed = rng.sample(range(len(p2.rects)), rng.randint(1, 4))
        h = entropy(avoid(p2, removed)).value
        assert h <= h_full + 1e-10
