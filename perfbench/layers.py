"""Per-layer metrics from a traced job, and the per-layer table.

A layer is a module of the ``eucdyn`` package.  Its self time is the
summed duration of its spans minus the part covered by their child spans
(``tracing.Recorder.by_name``).  ``qfield`` has no spans: its operations
are counted, and ``qfield.op_us`` times a replayed operation mix on the
workload's own operands with tracing off.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

LAYERS = ("geometry", "torus", "partition", "trapping", "sft", "spectrum", "coding", "cli")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "qfield.mul": "count",
    "qfield.sign": "count",
    "qfield.floor": "count",
    "qfield.op_us": "us",
    "geometry.lattice_in_box.calls": "count",
    "geometry.lattice_in_box.points": "count",
    "geometry.lattice_in_box.s": "s",
    "geometry.torus_components.calls": "count",
    "geometry.torus_components.s": "s",
    "torus.euclidean_min_qpoint.calls": "count",
    "torus.euclidean_min_qpoint.s": "s",
    "torus.euclidean_min_qpoint.p50_ms": "ms",
    "torus.euclidean_min_qpoint.p90_ms": "ms",
    "torus.orbit_points": "count",
    "torus.reps_per_orbit_point": "count",
    "torus.distinct_orbit_ratio": "ratio",
    "partition.generator.s": "s",
    "partition.refine.s": "s",
    "partition.cells": "count",
    "partition.verify_markov.s": "s",
    "partition.verify_markov.pairs": "count",
    "trapping.i_k_set.points": "count",
    "trapping.trap_threshold.calls": "count",
    "trapping.trap_threshold.s": "s",
    "trapping.corner_sup.calls": "count",
    "trapping.straddling.s": "s",
    "sft.avoid.calls": "count",
    "sft.avoid.s": "s",
    "sft.entropy.s": "s",
    "sft.entropy.iterations": "count",
    "sft.alphabet_mean": "count",
    "spectrum.dim_curve.s": "s",
    "spectrum.dim_curve.self_s": "s",
    "coding.pi_eval.calls": "count",
    "coding.pi_eval.s": "s",
    "coding.code_qpoint.calls": "count",
    "coding.code_qpoint.s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
SPAN_TOTALS = (
    "geometry.lattice_in_box", "geometry.torus_components", "torus.euclidean_min_qpoint",
    "partition.generator", "partition.refine", "partition.verify_markov",
    "trapping.trap_threshold", "trapping.straddling", "sft.avoid", "sft.entropy",
    "spectrum.dim_curve", "coding.pi_eval", "coding.code_qpoint",
)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 without samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, round(q * len(s) + 0.5) - 1))]


def per_layer(rec, traced_elapsed: float, traced_s: float, untraced_s: float, op_us: float):
    """(metrics dict, printable table) for one traced job.

    Span times are plain elapsed seconds (speed probes included), so the
    table's shares are of the traced job's elapsed time; ``trace.wall_s``
    and the overhead are speed-corrected like the end-to-end ``wall_s``."""
    from eucdyn import torus

    total, self_t, durs = rec.by_name()
    c = rec.counts
    v: dict[str, float] = {k: float(c[k]) for k in PER_LAYER if PER_LAYER[k] == "count" and k in c}
    v["qfield.op_us"] = op_us
    for name in SPAN_TOTALS:
        v[f"{name}.s"] = total.get(name, 0.0)
    v["spectrum.dim_curve.self_s"] = self_t.get("spectrum.dim_curve", 0.0)
    v["cli.main.self_s"] = self_t.get("cli.main", 0.0)
    ms = [d * 1000 for d in durs.get("torus.euclidean_min_qpoint", ())]
    v["torus.euclidean_min_qpoint.p50_ms"] = _pct(ms, 0.5)
    v["torus.euclidean_min_qpoint.p90_ms"] = _pct(ms, 0.9)

    orbit_points, keys = 0, set()
    for ctx, p in rec.m_args:
        orb = torus.orbit(ctx, p)
        orbit_points += len(orb)
        keys.add((ctx.D, min((q.x, q.y) for q in orb)))
    v["torus.orbit_points"] = float(orbit_points)
    v["torus.reps_per_orbit_point"] = c["torus.box_reps"] / orbit_points if orbit_points else 0.0
    v["torus.distinct_orbit_ratio"] = len(keys) / len(rec.m_args) if rec.m_args else 0.0
    avoid_calls = c["sft.avoid.calls"]
    v["sft.alphabet_mean"] = c["sft.alphabet_total"] / avoid_calls if avoid_calls else 0.0
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(t for n, t in self_t.items() if n.split(".")[0] == layer)
    v["trace.wall_s"] = traced_s
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.spans"] = float(len(rec.spans))

    metrics = {k: {"value": v.get(k, 0.0), "unit": unit} for k, unit in PER_LAYER.items()}
    return metrics, _table(total, self_t, c, traced_elapsed, traced_s - untraced_s)


def _table(total, self_t, counts, traced_s, overhead_s) -> str:
    rows = sorted(self_t, key=lambda n: -self_t[n])
    width = max([len(n) for n in rows] + [24])
    lines = [f"{'span':<{width}} {'calls':>8} {'total_s':>9} {'self_s':>9} {'self%':>6}"]
    for n in rows:
        calls = counts[n + ".calls"]
        share = 100 * self_t[n] / traced_s if traced_s else 0.0
        lines.append(f"{n:<{width}} {calls:>8} {total[n]:>9.3f} {self_t[n]:>9.3f} {share:>6.1f}")
    untracked = traced_s - sum(self_t.values())
    lines.append(f"{'(outside spans)':<{width}} {'':>8} {'':>9} {untracked:>9.3f} "
                 f"{100 * untracked / traced_s if traced_s else 0.0:>6.1f}")
    lines.append(
        f"qfield ops: mul {counts['qfield.mul']}, sign {counts['qfield.sign']}, "
        f"floor {counts['qfield.floor']}"
    )
    lines.append(f"traced job {traced_s:.3f} s elapsed; tracing overhead {overhead_s:+.3f} s "
                 "(speed-corrected traced minus untraced job)")
    lines.append(f"slowest layer (self time): {rows[0] if rows else '(none)'}")
    return "\n".join(lines)


def replay_op_us(w, rng, pairs: int, repeats: int) -> float:
    """Mean microseconds per field operation of the trap-test mix
    (2 subtractions, 2 abs, 1 multiplication, 1 comparison) over
    ``pairs`` (cell corner, lattice point) operands of the workload's
    field and partition level, tracing off; median of ``repeats``."""
    from eucdyn import cli, qfield, trapping

    ctx = qfield.make_context(w.D)
    parts = cli._partition_chain(ctx, w.level)
    points = trapping.i_k_set(ctx, parts[0])
    corners = [c for r in parts[-1].rects for c in r.corners()]
    ops = [(rng.choice(corners), q.conj(), q) for q in (rng.choice(points) for _ in range(pairs))]
    t = ctx.elem(Fraction(3, 20))
    runs = []
    for _ in range(repeats):
        start = perf_counter()
        for (cs, cu), qs, qu in ops:
            _ = abs(cs - qs) * abs(cu - qu) < t
        runs.append(perf_counter() - start)
    return statistics.median(runs) / (6 * pairs) * 1e6
