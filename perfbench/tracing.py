"""Span recorder for the traced benchmark pass.

The recorder wraps public functions of the ``eucdyn`` modules at every
place they are bound (the defining module and each module that imported
the name), records one span per call with name, start, end and parent,
and keeps the spans in memory until the run writes them out.  Generators
(``geometry.lattice_in_box``) get one span per resumption, so the time
spent producing each item is charged to the generator and not to the
consumer.  Hot field operations are counted, never timed: a span per
``QElem`` multiplication would cost more than the multiplication.

Nothing here touches the package's source; the patches are undone when
the ``patched`` context exits.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs timed as spans.  Every binding of the same
# function object in any loaded eucdyn module is replaced, so
# ``spectrum.trap_threshold`` is traced as well as ``trapping.trap_threshold``.
SPANNED = (
    ("geometry", "torus_components"),
    ("torus", "euclidean_min_qpoint"),
    ("partition", "generator"),
    ("partition", "refine"),
    ("partition", "verify_markov"),
    ("trapping", "i_k_set"),
    ("trapping", "trap_threshold"),
    ("trapping", "straddling"),
    ("sft", "avoid"),
    ("sft", "entropy"),
    ("spectrum", "dim_curve"),
    ("coding", "pi_eval"),
    ("coding", "code_qpoint"),
    ("cli", "main"),
)
GENERATORS = (("geometry", "lattice_in_box"),)
COUNTED = (("trapping", "corner_sup"),)
QELEM_COUNTED = {"__mul__": "qfield.mul", "__rmul__": "qfield.mul",
                 "sign": "qfield.sign", "floor": "qfield.floor"}


class Recorder:
    """In-memory spans plus named counters.

    ``spans[i]`` is ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.m_args: list = []  # (ctx, point) of every M call, resolved after the run
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def _enter(self, name):
        sid = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(sid)
        self._open[name] += 1
        return sid

    def _exit(self, sid, name, start):
        end = perf_counter()
        self._stack.pop()
        self._open[name] -= 1
        self.spans[sid] = (name, start, end, self.spans[sid][3])

    def span_fn(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            sid = self._enter(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(sid, name, start)
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span_gen(self, name, fn, on_item=None):
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = self._enter(name)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(sid, name, start)
                self.counts[name + ".points"] += 1
                if on_item is not None:
                    on_item()
                yield item

        traced.__wrapped__ = fn
        return traced

    def count_fn(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- aggregation -------------------------------------------------------

    def by_name(self):
        """name -> (total time, self time, durations) over all spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_t, durs = defaultdict(float), defaultdict(float), defaultdict(list)
        for sid, (name, start, end, _) in enumerate(self.spans):
            d = end - start
            total[name] += d
            self_t[name] += d - child[sid]
            durs[name].append(d)
        return total, self_t, durs

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: id, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start, 7), round(end, 7), parent]) + "\n")


def _eucdyn_modules():
    return [m for k, m in sorted(sys.modules.items()) if (k == "eucdyn" or k.startswith("eucdyn.")) and m]


@contextlib.contextmanager
def patched(rec: Recorder):
    """Install the recorder's wrappers at every binding site; undo on exit."""
    from eucdyn import qfield

    mods = {m.__name__.split(".")[-1]: m for m in _eucdyn_modules()}
    replacements = {}  # id(original) -> wrapper

    def on_m(args, _out):
        rec.m_args.append((args[0], args[1]))

    def on_partition(_args, out):
        rec.counts["partition.cells"] = max(rec.counts["partition.cells"], len(out.rects))

    def on_ik(_args, out):
        rec.counts["trapping.i_k_set.points"] += len(out)

    def on_avoid(_args, out):
        rec.counts["sft.alphabet_total"] += out.alphabet_size

    def on_entropy(_args, out):
        rec.counts["sft.entropy.iterations"] += out.iterations

    def on_tc(_args, _out):
        if rec.inside("partition.verify_markov"):
            rec.counts["partition.verify_markov.pairs"] += 1

    def on_lattice_item():
        if rec.inside("torus.euclidean_min_qpoint"):
            rec.counts["torus.box_reps"] += 1

    hooks = {
        "torus.euclidean_min_qpoint": on_m,
        "partition.generator": on_partition,
        "partition.refine": on_partition,
        "trapping.i_k_set": on_ik,
        "sft.avoid": on_avoid,
        "sft.entropy": on_entropy,
        "geometry.torus_components": on_tc,
    }
    for mod, attr in SPANNED:
        fn = getattr(mods[mod], attr)
        name = f"{mod}.{attr}"
        replacements[id(fn)] = (fn, rec.span_fn(name, fn, hooks.get(name)))
    for mod, attr in GENERATORS:
        fn = getattr(mods[mod], attr)
        replacements[id(fn)] = (fn, rec.span_gen(f"{mod}.{attr}", fn, on_lattice_item))
    for mod, attr in COUNTED:
        fn = getattr(mods[mod], attr)
        replacements[id(fn)] = (fn, rec.count_fn(f"{mod}.{attr}.calls", fn))

    undo = []
    for m in mods.values():
        for attr, val in list(vars(m).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((m, attr, val))
                setattr(m, attr, hit[1])
    QElem = qfield.QElem
    for attr, name in QELEM_COUNTED.items():
        orig = QElem.__dict__[attr]
        undo.append((QElem, attr, orig))
        setattr(QElem, attr, rec.count_fn(name, orig))
    try:
        yield rec
    finally:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)
