"""Independent oracles for the benchmark's correctness checks.

Nothing here calls ``eucdyn``: the unit, the unit map, the torus orbits,
the essential transition matrix and the brute-force minimum are computed
from first principles, so a bug shared by the program and its reference
data does not pass silently.  Only real quadratic fields with
D = 1 mod 4 are needed (the curve and msearch workloads use D = 5, 13),
where the ring of integers has basis {1, alpha}, alpha = (1 + sqrt D)/2,
alpha^2 = alpha + (D - 1)/4.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def _require_1_mod_4(D: int) -> None:
    if D % 4 != 1:
        raise ValueError(f"oracle covers D = 1 mod 4 only, got {D}")


def unit_xy(D: int) -> tuple[int, int]:
    """Fundamental unit eps = e0 + e1*alpha > 1, by scanning e1 upward for
    the first e1 >= 1 with an e0 giving norm +-1.

    Nm(e0 + e1*alpha) = e0^2 + e0*e1 - (D-1)/4 * e1^2.
    """
    _require_1_mod_4(D)
    c = (D - 1) // 4
    for e1 in range(1, 10**6):
        for nm in (-1, 1):
            # e0^2 + e1*e0 - (c*e1^2 + nm) = 0
            disc = e1 * e1 + 4 * (c * e1 * e1 + nm)
            r = isqrt(disc) if disc >= 0 else -1
            if r >= 0 and r * r == disc and (r - e1) % 2 == 0:
                e0 = (r - e1) // 2
                if e0 + e1 * (1 + math.sqrt(D)) / 2 > 1:
                    return e0, e1
    raise ValueError(f"no unit found for D={D}")


def log_eps(D: int) -> float:
    e0, e1 = unit_xy(D)
    return math.log(e0 + e1 * (1 + math.sqrt(D)) / 2)


def unit_map(D: int):
    """Integer matrix of z -> eps*z on coordinates (x, y) of x + y*alpha."""
    e0, e1 = unit_xy(D)
    c = (D - 1) // 4
    # eps*(x + y*alpha) = e0*x + c*e1*y + (e1*x + (e0 + e1)*y)*alpha
    return ((e0, c * e1), (e1, e0 + e1))


def orbit(D: int, x: Fraction, y: Fraction) -> list[tuple[Fraction, Fraction]]:
    (a, b), (c, d) = unit_map(D)
    start = (x % 1, y % 1)
    out, cur = [start], start
    while True:
        cx, cy = cur
        cur = ((a * cx + b * cy) % 1, (c * cx + d * cy) % 1)
        if cur == start:
            return out
        out.append(cur)


def orbit_key(D: int, x: Fraction, y: Fraction) -> str:
    """Canonical name of an orbit: its least point, as ``x,y``."""
    kx, ky = min(orbit(D, x, y))
    return f"{kx},{ky}"


def brute_force_m(D: int, x: Fraction, y: Fraction, reach: int) -> Fraction:
    """min |Nm(P - q)| over the orbit of P and all lattice q = m + n*alpha
    with |m|, |n| <= reach, in integers after clearing denominators.

    Nm(xi + eta*alpha) = xi^2 + xi*eta - (D-1)/4 * eta^2.
    """
    c = (D - 1) // 4
    best = None
    for px, py in orbit(D, x, y):
        den = math.lcm(px.denominator, py.denominator)
        X0, Y0 = int(px * den), int(py * den)
        low = min(
            abs(X * X + X * Y - c * Y * Y)
            for Y in range(Y0 - reach * den, Y0 + reach * den + 1, den)
            for X in range(X0 - reach * den, X0 + reach * den + 1, den)
        )
        v = Fraction(low, den * den)
        if best is None or v < best:
            best = v
    return best


def brute_force_reach(D: int, m1_bound: Fraction) -> int:
    """Coordinate reach covering twice the program's search box.

    The program searches |s|, |u| <= W with W^2 >= eps*(m1_bound + 1);
    with |s|, |u| <= 2W + 2 (the torus point itself lies within
    |s|, |u| <= 1 + |alpha|) the lattice coordinates satisfy
    |n| = |u - s|/sqrt D and |m| <= |u| + |n|*|alpha|.
    """
    e0, e1 = unit_xy(D)
    eps = e0 + e1 * (1 + math.sqrt(D)) / 2
    w = math.sqrt(eps * (float(m1_bound) + 1))
    span = 2 * w + 2 + (1 + math.sqrt(D)) / 2
    n_max = 2 * span / math.sqrt(D)
    return int(math.ceil(span + n_max * (1 + math.sqrt(D)) / 2)) + 1


def essential_matrix(words: list[tuple[int, ...]], banned: set[int]) -> np.ndarray:
    """0-1 matrix of the level-n vertex shift on the kept words (word w
    may follow v when v[1:] == w[:-1]), pruned to symbols on bi-infinite
    paths."""
    keep = [i for i in range(len(words)) if i not in banned]
    by_prefix: dict = {}
    for k, i in enumerate(keep):
        by_prefix.setdefault(words[i][:-1], []).append(k)
    mat = np.zeros((len(keep), len(keep)))
    for k, i in enumerate(keep):
        for j in by_prefix.get(words[i][1:], ()):
            mat[k, j] = 1.0
    alive = np.ones(len(keep), dtype=bool)
    while alive.any():
        sub = mat[np.ix_(alive, alive)]
        ok = (sub.sum(axis=0) > 0) & (sub.sum(axis=1) > 0)
        if ok.all():
            break
        alive[np.flatnonzero(alive)[~ok]] = False
    return mat[np.ix_(alive, alive)]


def log_spectral_radius(mat: np.ndarray) -> float:
    """log of the largest |eigenvalue|, taken block by block over the
    strongly connected components.

    The spectral radius of a reducible matrix is the largest over its
    irreducible diagonal blocks, where the Perron root is simple.  On the
    whole matrix ``eigvals`` misplaces a defective root (several cycles
    chained together give a Jordan block at 1) by about 1e-8.
    """
    if mat.shape[0] == 0:
        return 0.0
    _, labels = connected_components(csr_matrix(mat), directed=True, connection="strong")
    radius = 0.0
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        radius = max(radius, float(np.abs(np.linalg.eigvals(mat[np.ix_(idx, idx)])).max()))
    return math.log(max(1.0, radius))


def qsign(a: Fraction, b: Fraction, D: int) -> int:
    """Exact sign of a + b*sqrt(D)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: the larger magnitude wins (a^2 = D*b^2 is impossible)
    return sa if a * a > D * b * b else sb
