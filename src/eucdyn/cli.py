"""Command-line driver: curve, minima, verify, partition-dump, ik-dump.

Thresholds and grids are rational end to end (``p/q`` or exact decimal
strings), so reruns of the same configuration produce byte-identical
CSV.  Exit codes: 0 success, 2 configuration error (including an
``--m1-bound`` too small to certify an M(P) search, a ``curve`` grid
starting at t <= 0 and a negative ``--i-extra``), 3 mathematical
verification failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, coding, sft, spectrum, trapping
from .partition import MarkovError, Partition, generator, perturbed, refine, verify_markov
from .qfield import make_context
from .torus import PointXY, euclidean_min_qpoint, orbit, phi_su, torus_eq

EXIT_CONFIG, EXIT_MATH, EXIT_IO = 2, 3, 4


@dataclass
class RunConfig:
    command: str
    d: int
    n: int = 3
    t_min: Fraction = Fraction(1, 10)
    t_max: Fraction = Fraction(1, 4)
    t_step: Fraction = Fraction(1, 200)
    m1_bound: Fraction | None = None
    i_extra: int = 0
    output: str | None = None
    manifest: str | None = None
    count: int = 10
    perturb: bool = False

    def __post_init__(self):
        if self.command == "curve":
            if not self.t_min < self.t_max:
                raise ValueError("empty threshold grid")
            if self.t_min <= 0:
                raise ValueError("thresholds must be positive")
            if self.t_step <= 0:
                raise ValueError("step must be positive")
        if self.n < 0:
            raise ValueError("refinement level must be >= 0")
        if self.i_extra < 0:
            raise ValueError("--i-extra must be >= 0")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)  # handles p/q and exact decimal strings
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be min:max:step, got {text!r}")
    return tuple(parse_rational(p) for p in parts)


def _grid_values(cfg: RunConfig) -> list[Fraction]:
    out, t = [], cfg.t_min
    while t <= cfg.t_max:
        out.append(t)
        t += cfg.t_step
    return out


def _partition_chain(ctx, n: int) -> list[Partition]:
    parts = [generator(ctx)]
    for _ in range(n):
        parts.append(refine(parts[-1]))
    return parts


def cmd_curve(cfg: RunConfig) -> int:
    started = time.time()
    ctx = make_context(cfg.d, m1_bound=cfg.m1_bound)
    parts = _partition_chain(ctx, cfg.n)
    points = trapping.i_k_set(ctx, parts[0], extra=cfg.i_extra)
    grid = _grid_values(cfg)
    samples = spectrum.dim_curve(ctx, grid, cfg.n, points, partition=parts[-1])
    out = cfg.output or f"curve_D{cfg.d}_n{cfg.n}.csv"
    try:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "t_num",
                    "t_den",
                    "n",
                    "trapped_count",
                    "alphabet_size",
                    "entropy",
                    "dim_upper",
                    "empty_flag",
                ]
            )
            for s in samples:
                writer.writerow(
                    [
                        s.t.numerator,
                        s.t.denominator,
                        s.n,
                        s.trapped_count,
                        s.alphabet_size,
                        repr(s.entropy),
                        repr(s.dim_upper),
                        int(s.empty_flag),
                    ]
                )
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    manifest = cfg.manifest or out.rsplit(".", 1)[0] + ".json"
    doc = {
        "tool": "eucdyn",
        "version": __version__,
        "D": cfg.d,
        "n": cfg.n,
        "m1_bound": [ctx.m1_bound.numerator, ctx.m1_bound.denominator],
        "lattice_points": {
            "source": "i_k_set" if cfg.i_extra == 0 else f"i_k_set+extra{cfg.i_extra}",
            "count": len(points),
        },
        "grid": {
            "min": str(cfg.t_min),
            "max": str(cfg.t_max),
            "step": str(cfg.t_step),
            "size": len(grid),
        },
        "wall_time_s": round(time.time() - started, 3),
    }
    try:
        with open(manifest, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {manifest}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(samples)} rows to {out}; manifest {manifest}")
    return 0


def cmd_minima(cfg: RunConfig) -> int:
    if cfg.d != 5:
        print(
            "error: the Fibonacci-quotient minima sequence is specific to D=5",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    ctx = make_context(5, m1_bound=cfg.m1_bound)
    t_inf = spectrum.t_infinity(ctx)
    print(f"{'i':>3}  {'M_i':>16}  {'decimal':>18}  {'M_i - t_inf':>14}")
    prev = None
    for i in range(1, cfg.count + 1):
        m = spectrum.davenport_minima(i)
        gap = ctx.elem(m) - t_inf
        if gap.sign() <= 0:
            print(f"error: minimum {i} not above the limit", file=sys.stderr)
            return EXIT_MATH
        if prev is not None and not m < prev:
            print(f"error: sequence not strictly decreasing at {i}", file=sys.stderr)
            return EXIT_MATH
        prev = m
        print(f"{i:>3}  {str(m):>16}  {float(m):>18.12f}  {float(gap):>14.3e}")
    print(f"t_inf = (-1+sqrt(5))/8 = {float(t_inf):.12f}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    ctx = make_context(cfg.d, m1_bound=cfg.m1_bound)
    failures = 0

    def check(name, fn):
        nonlocal failures
        t0 = time.time()
        try:
            ok, detail = fn()
        except MarkovError as exc:
            ok, detail = False, str(exc)
        ms = 1000 * (time.time() - t0)
        print(f"{'PASS' if ok else 'FAIL'}  {name:<40} {ms:9.1f} ms  {detail or ''}")
        if not ok:
            failures += 1

    def unit_checks():
        eps = ctx.eps
        good = eps > 1 and abs(eps.norm()) == 1 and abs(eps * eps.conj()) == 1
        return good, f"eps={eps}"

    check("fundamental unit", unit_checks)

    parts = [generator(ctx)]
    if cfg.perturb:
        bad = perturbed(parts[0])
        report = verify_markov(bad)
        print(f"{'FAIL' if not report.ok else 'PASS'}  perturbation fixture: {report}")
        return EXIT_MATH if not report.ok else 0

    for level in range(cfg.n + 1):
        if level > 0:
            parts.append(refine(parts[-1]))
        p = parts[level]

        def markov(p=p):
            report = verify_markov(p)
            return report.ok, "" if report.ok else str(report)

        check(f"markov level {level} ({len(p.rects)} cells)", markov)

    def conjugacy():
        rng = random.Random(7)
        level = min(1, cfg.n)
        for _ in range(25):
            sp = sft.random_itinerary(rng, parts[level])
            shifted = coding.pi_eval(sp.shifted(1), parts[level])
            mapped = phi_su(ctx, coding.pi_eval(sp, parts[level]))
            if not torus_eq(ctx, shifted, mapped):
                return False, f"conjugacy fails at {sp.to_text()}"
        return True, "25 strings"

    check("coding conjugacy", conjugacy)

    points = trapping.i_k_set(ctx, parts[0])
    part = parts[min(2, cfg.n)]
    thresholds = trapping.trap_thresholds(part, points)

    def soundness():
        # M and the symbols of the codings are constant along an orbit,
        # so each orbit is checked once, at its first point in loop order
        seen = set()
        for den in (1, 2, 3):
            for a in range(den):
                for b in range(den):
                    p = PointXY(Fraction(a, den), Fraction(b, den))
                    if p in seen:
                        continue
                    seen.update(orbit(ctx, p))
                    m = euclidean_min_qpoint(ctx, p)
                    if m == 0:
                        continue
                    banned = set(trapping.trapped(thresholds, m))
                    for spx in coding.code_qpoint(part, p):
                        span = len(spx.right_loop) + len(spx.center) + len(spx.right_pre)
                        if any(spx.symbol(k) in banned for k in range(span)):
                            return False, f"trapped word in coding of {p}"
        return True, "denominators 1..3"

    check("trapping soundness", soundness)

    def straddle():
        cands = trapping.straddling(part, points, Fraction(3, 20), thresholds)
        return True, f"{len(cands)} straddling candidates at t=3/20"

    check("single-point trapping diagnostic", straddle)

    return EXIT_MATH if failures else 0


def cmd_partition_dump(cfg: RunConfig) -> int:
    ctx = make_context(cfg.d, m1_bound=cfg.m1_bound)
    parts = _partition_chain(ctx, cfg.n)
    text = parts[-1].to_json()
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote level-{cfg.n} partition to {cfg.output}")
    else:
        print(text)
    return 0


def cmd_ik_dump(cfg: RunConfig) -> int:
    ctx = make_context(cfg.d, m1_bound=cfg.m1_bound)
    p0 = generator(ctx)
    points = trapping.i_k_set(ctx, p0, extra=cfg.i_extra)
    doc = {
        "D": cfg.d,
        "count": len(points),
        "points": [
            {
                "x": [int(ctx.xy_of(q)[0]), 1],
                "y": [int(ctx.xy_of(q)[1]), 1],
                "u": {"a": [q.a.numerator, q.a.denominator], "b": [q.b.numerator, q.b.denominator]},
            }
            for q in points
        ],
    }
    text = json.dumps(doc, indent=1)
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eucdyn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--D", type=int, required=True, help="square-free integer > 1")
        if with_n:
            p.add_argument("--n", type=int, default=3, help="refinement level")
        p.add_argument("--m1-bound", type=parse_rational, default=None)
        p.add_argument("--out", dest="output", default=None)

    pc = sub.add_parser("curve", help="dimension bound curve over a rational grid")
    common(pc)
    pc.add_argument("--t", type=parse_grid, default=(Fraction(1, 10), Fraction(1, 4), Fraction(1, 200)),
                    help="grid as min:max:step, rationals")
    pc.add_argument("--i-extra", type=int, default=0, help="widen the lattice point set")
    pc.add_argument("--manifest", default=None)

    pm = sub.add_parser("minima", help="the classical minima sequence for D=5")
    common(pm, with_n=False)
    pm.add_argument("--count", type=int, default=10)

    pv = sub.add_parser("verify", help="run the exact invariant suite")
    common(pv)
    pv.add_argument("--perturb", action="store_true", help="negative-control fixture")

    pd = sub.add_parser("partition-dump", help="exact partition as JSON")
    common(pd)

    pi = sub.add_parser("ik-dump", help="the lattice point set as JSON")
    common(pi)
    pi.add_argument("--i-extra", type=int, default=0)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    kwargs = dict(command=ns.command, d=ns.D, m1_bound=ns.m1_bound, output=ns.output)
    if hasattr(ns, "n"):
        kwargs["n"] = ns.n
    if ns.command == "curve":
        kwargs.update(
            t_min=ns.t[0], t_max=ns.t[1], t_step=ns.t[2], i_extra=ns.i_extra, manifest=ns.manifest
        )
    if ns.command == "minima":
        kwargs["count"] = ns.count
    if ns.command == "verify":
        kwargs["perturb"] = ns.perturb
    if ns.command == "ik-dump":
        kwargs["i_extra"] = ns.i_extra
    try:
        cfg = RunConfig(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handlers = {
        "curve": cmd_curve,
        "minima": cmd_minima,
        "verify": cmd_verify,
        "partition-dump": cmd_partition_dump,
        "ik-dump": cmd_ik_dump,
    }
    try:
        return handlers[cfg.command](cfg)
    except ValueError as exc:  # includes SearchBoundError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MarkovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
