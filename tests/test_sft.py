import math
import random

import numpy as np
import pytest

from eucdyn.sft import Subshift, avoid, dimension, entropy, periodize

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def test_golden_mean_matrix(parts5):
    s = avoid(parts5[0], [])
    assert s.symbols == ((0,), (1,))
    assert s.matrix.astype(int).tolist() == [[0, 1], [1, 1]]


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
        rho = max(abs(np.linalg.eigvals(s.matrix.astype(float))))
        assert abs(e.value - math.log(max(rho, 1.0))) < 1e-9


def test_permutation_cycle_entropy():
    s = Subshift.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    e = entropy(s)
    assert e.value == 0.0 and not e.empty


def test_forbid_everything(parts5):
    s = avoid(parts5[0], [(0,), (1,)])
    assert s.empty
    e = entropy(s)
    assert e.empty and e.value == 0.0
    assert dimension(e.value, parts5[0].ctx) == 0.0


def test_forbid_the_long_cell_gives_empty(parts5):
    # with the short cell unable to follow itself nothing bi-infinite remains
    s = avoid(parts5[0], [(1,)])
    assert s.empty


def test_avoid_decomposes_coarser_words(parts5):
    p2 = parts5[2]
    s = avoid(p2, [(1,)])
    # forbidding the level-0 cell kills every word with it in the middle
    assert all(w[2] != 1 for w in s.symbols)


def test_avoid_rejects_unknown_words(parts5):
    with pytest.raises(ValueError):
        avoid(parts5[1], [(0, 0, 0)])


def test_dimension_edges(ctx5):
    assert dimension(math.log(float(ctx5.eps)), ctx5) == pytest.approx(2.0, abs=1e-9)
    assert dimension(0.0, ctx5) == 0.0
    with pytest.raises(ValueError):
        dimension(-0.1, ctx5)


def test_dimension_full_shift_is_two(parts5, ctx5):
    e = entropy(avoid(parts5[0], []))
    assert abs(dimension(e.value, ctx5) - 2.0) < 1e-9


@pytest.mark.parametrize("n, alphabet", [(0, 2), (1, 5), (2, 13), (3, 34)])
def test_full_shift_entropy_every_level(parts5, n, alphabet):
    s = avoid(parts5[n], [])
    assert s.alphabet_size == alphabet
    assert abs(entropy(s).value - LOG_PHI) < 1e-10


def test_forbidden_word_entropy_stable_under_refinement(parts5):
    # forbidding the level-1 word (1, 1, 1) at levels 1..3 bans the same
    # points: golden-mean strings without 111, i.e. concatenations of 10
    # and 110, whose entropy is log of the real root of x^3 = x + 1
    plastic = max(r.real for r in np.roots([1, 0, -1, -1]) if abs(r.imag) < 1e-12)
    h1, h2, h3 = (entropy(avoid(parts5[n], [(1, 1, 1)])).value for n in (1, 2, 3))
    assert abs(h1 - math.log(plastic)) < 1e-10
    assert abs(h2 - h1) < 1e-10
    assert abs(h3 - h1) < 1e-10


def test_entropy_monotone_under_symbol_removal(parts5):
    rng = random.Random(3)
    p2 = parts5[2]
    full = avoid(p2, [])
    h_full = entropy(full).value
    words = list(p2.word_index)
    for _ in range(10):
        removed = rng.sample(words, rng.randint(1, 4))
        h = entropy(avoid(p2, removed)).value
        assert h <= h_full + 1e-10


def test_periodize_golden(parts5):
    s = avoid(parts5[0], [])
    sp = periodize(s, (1, 1), (1,), (1,))
    # contains the word and is admissible throughout
    assert sp.center == (1, 1)
    span = range(-8, 8)
    for k in span:
        a, b = sp.symbol(k), sp.symbol(k + 1)
        assert not (a == 0 and b == 0)
    # pigeonhole bound on the loops
    assert len(sp.left_loop) <= s.alphabet_size + 1
    assert len(sp.right_loop) <= s.alphabet_size + 1


def test_periodize_fixed_string_unchanged(parts5):
    s = avoid(parts5[0], [])
    sp = periodize(s, (1, 1), (1, 1), (1, 1))
    assert sp.left_loop == (1,) and sp.right_loop == (1,)
    assert all(sp.symbol(k) == 1 for k in range(-9, 9))


def test_periodize_rejects_bad_input(parts5):
    s = avoid(parts5[0], [])
    with pytest.raises(ValueError):
        periodize(s, (0, 0))
    with pytest.raises(ValueError):
        periodize(s, (7,))


def test_periodize_lives_in_subshift(parts5):
    s2 = avoid(parts5[2], [])
    ids = set(s2.source_ids)
    w = (s2.source_ids[0],)
    sp = periodize(s2, w)
    pos = {rid: k for k, rid in enumerate(s2.source_ids)}
    for k in range(-20, 20):
        assert sp.symbol(k) in ids
        assert s2.matrix[pos[sp.symbol(k)], pos[sp.symbol(k + 1)]]

