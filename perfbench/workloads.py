"""The four benchmark workloads: one job each, plus its correctness check.

A workload is prepared once per run from the seed, then its ``job`` runs
one or more times.  ``collect`` turns a job's return value into its
output (reading files outside the timed region), and ``check`` scores
each output item by item against the reference data under ``ref/`` and
the independent oracles in ``oracles.py``.  Jobs look up ``eucdyn``'s
public functions at call time, so the traced pass sees the same calls.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import oracles

REF_DIR = Path(__file__).resolve().parent / "ref"
EXACT_COLUMNS = ("t_num", "t_den", "n", "trapped_count", "alphabet_size", "empty_flag")
ENTROPY_TOL = 1e-10
DIM_TOL = 1e-9


def load_reference(name: str) -> dict:
    with open(REF_DIR / f"{name}.json") as fh:
        return json.load(fh)


class Check:
    """Items attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


class Workload:
    """``D`` and ``level`` name the field and partition level whose
    operands ``layers.replay_op_us`` replays."""

    def __init__(self, name: str, D: int, level: int):
        self.name, self.D, self.level = name, D, level

    def prepare(self, seed: int, workdir: Path, ref: dict | None) -> None:
        self.ref = ref

    def job(self):
        raise NotImplementedError

    def collect(self, raw):
        return raw

    def check(self, out, chk: Check) -> None:
        raise NotImplementedError

    def run_once_checks(self, outs: list, chk: Check) -> None:
        """Checks made once per run, on the first job's output."""

    def reference(self, out, program) -> dict:
        """Reference data for ``ref/`` from a known-good output."""
        raise NotImplementedError


class Curve(Workload):
    """``eucdyn curve`` in-process through ``eucdyn.cli.main``."""

    def __init__(self, name: str, D: int, n: int, grid: str):
        super().__init__(name, D, n)
        self.grid = grid

    def prepare(self, seed, workdir, ref):
        super().prepare(seed, workdir, ref)
        self.csv_path = workdir / f"{self.name}.csv"
        self.manifest_path = workdir / f"{self.name}.json"
        self._oracle_rows: dict = {}

    def job(self):
        from eucdyn import cli

        argv = ["curve", "--D", str(self.D), "--n", str(self.level), "--t", self.grid,
                "--out", str(self.csv_path), "--manifest", str(self.manifest_path)]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def collect(self, rc):
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.manifest_path) as fh:
            manifest = json.load(fh)
        return rc, rows, manifest

    def check(self, out, chk):
        rc, rows, manifest = out
        ref_rows = self.ref["rows"]
        sound = (
            rc == 0
            and manifest.get("D") == self.D
            and manifest.get("n") == self.level
            and manifest.get("grid", {}).get("size") == len(ref_rows)
        )
        for i, want in enumerate(ref_rows):
            row = rows[i] if i < len(rows) else None
            chk.item(sound and row is not None and self._row_ok(row, want), f"{self.name} row {i}")
        for i in range(len(ref_rows), len(rows)):
            chk.item(False, f"{self.name} unexpected row {i}")

    def _row_ok(self, row: dict, want: list) -> bool:
        try:
            got = [int(row[c]) for c in EXACT_COLUMNS]
            ent, dim = float(row["entropy"]), float(row["dim_upper"])
        except (KeyError, TypeError, ValueError):
            return False
        if got != want:
            return False
        alphabet, h = self._oracle(Fraction(got[0], got[1]), got[3])
        return (
            alphabet == got[4]
            and bool(got[5]) == (alphabet == 0)
            and abs(ent - h) <= ENTROPY_TOL
            and abs(dim - 2 * h / self._log_eps) <= DIM_TOL
        )

    @functools.cached_property
    def _log_eps(self) -> float:
        return oracles.log_eps(self.D)

    @functools.cached_property
    def _sorted_cells(self):
        """Cell indices in increasing exact threshold order, with the
        thresholds as (a, b) meaning a + b*sqrt(D); cells without a
        threshold are never trapped and are left out."""
        ths = {
            i: (Fraction(th[0]), Fraction(th[1]))
            for i, th in enumerate(self.ref["thresholds"])
            if th is not None
        }

        def cmp(i, j):
            return oracles.qsign(ths[i][0] - ths[j][0], ths[i][1] - ths[j][1], self.D)

        return sorted(ths, key=functools.cmp_to_key(cmp)), ths

    def _oracle(self, t: Fraction, trapped_count: int):
        """(alphabet size, log spectral radius) of the essential shift that
        avoids every cell with threshold < t; (-1, nan) when the number of
        such cells is not ``trapped_count``."""
        order, ths = self._sorted_cells
        k = 0
        while k < len(order) and oracles.qsign(ths[order[k]][0] - t, ths[order[k]][1], self.D) < 0:
            k += 1
        if k != trapped_count:
            return -1, float("nan")
        if k not in self._oracle_rows:
            words = [tuple(w) for w in self.ref["words"]]
            mat = oracles.essential_matrix(words, set(order[:k]))
            self._oracle_rows[k] = (mat.shape[0], oracles.log_spectral_radius(mat))
        return self._oracle_rows[k]

    def reference(self, out, program):
        """Exact columns, plus every cell's word and exact trap threshold
        for the eigenvalue oracle."""
        rc, rows, _ = out
        if rc != 0:
            raise RuntimeError(f"{self.name}: curve exited {rc}")
        ctx = program.qfield.make_context(self.D)
        parts = program.cli._partition_chain(ctx, self.level)
        points = program.trapping.i_k_set(ctx, parts[0])
        ths = [program.trapping.trap_threshold(r, points) for r in parts[-1].rects]
        return {
            "rows": [[int(r[c]) for c in EXACT_COLUMNS] for r in rows],
            "words": [list(r.word) for r in parts[-1].rects],
            "thresholds": [None if th is None else [str(th.a), str(th.b)] for th in ths],
        }


def _proper_fractions(max_den: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(q)})


class MSearch(Workload):
    """The library loop of acceptance criterion 1: ``M`` once per orbit of
    the points with coordinate denominators <= max_den, visited in a
    seed-shuffled order."""

    BRUTE_SAMPLE = 16

    def __init__(self, name: str, D: int, max_den: int):
        super().__init__(name, D, 0)
        self.max_den = max_den

    def prepare(self, seed, workdir, ref):
        super().prepare(seed, workdir, ref)
        coords = _proper_fractions(self.max_den)
        self.points = [(x, y) for x in coords for y in coords]
        self.rng = random.Random(seed)
        self.rng.shuffle(self.points)
        self._key_of: dict = {}

    def job(self):
        from eucdyn import qfield, torus

        ctx = qfield.make_context(self.D)
        seen, out = set(), {}
        for x, y in self.points:
            if (x, y) in seen:
                continue
            p = torus.PointXY(x, y)
            out[(x, y)] = torus.euclidean_min_qpoint(ctx, p)
            for q in torus.orbit(ctx, p):
                seen.add((q.x, q.y))
        return out

    def _by_orbit(self, out) -> dict:
        got: dict = {}
        for xy, m in out.items():
            if xy not in self._key_of:
                self._key_of[xy] = oracles.orbit_key(self.D, *xy)
            got.setdefault(self._key_of[xy], []).append(m)
        return got

    def check(self, out, chk):
        got = self._by_orbit(out)
        for key, want in self.ref["M"].items():
            ms = got.get(key, [])
            chk.item(len(ms) == 1 and ms[0] == Fraction(want), f"M at orbit {key}")
        for key in got.keys() - self.ref["M"].keys():
            chk.item(False, f"unexpected orbit {key}")

    def run_once_checks(self, outs, chk):
        """Max M is 1/4; a brute-force search over twice the program's box
        agrees on a seeded sample of orbits."""
        got = self._by_orbit(outs[0])
        values = [m for ms in got.values() for m in ms]
        chk.item(bool(values) and max(values) == Fraction(1, 4), "max M over the grid is not 1/4")
        reach = oracles.brute_force_reach(self.D, Fraction(self.ref["m1_bound"]))
        for key in sorted(self.rng.sample(sorted(self.ref["M"]), self.BRUTE_SAMPLE)):
            x, y = (Fraction(v) for v in key.split(","))
            ms = got.get(key, [])
            ok = len(ms) == 1 and oracles.brute_force_m(self.D, x, y, reach) == ms[0]
            chk.item(ok, f"brute-force M disagrees at orbit {key}")

    def reference(self, out, program):
        """M per orbit, keyed by the orbit's least point."""
        ctx = program.qfield.make_context(self.D)
        ms = {}
        for (x, y), m in out.items():
            kx, ky = min((q.x, q.y) for q in program.torus.orbit(ctx, program.torus.PointXY(x, y)))
            ms[f"{kx},{ky}"] = str(m)
        return {"M": dict(sorted(ms.items())), "m1_bound": str(ctx.m1_bound)}


CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.+?)\s+(\d+\.\d) ms  (.*)$")
STRADDLING = re.compile(r"^(\d+) straddling candidates")


def parse_check_lines(text: str) -> list[list[str]]:
    """[verdict, check name, detail] per check line; timings dropped."""
    out = []
    for line in text.splitlines():
        m = CHECK_LINE.match(line)
        if m:
            out.append([m.group(1), m.group(2), m.group(4).rstrip()])
    return out


class Verify(Workload):
    """``eucdyn verify`` in-process through ``eucdyn.cli.main``."""

    def job(self):
        from eucdyn import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["verify", "--D", str(self.D), "--n", str(self.level)])
        return rc, buf.getvalue()

    def check(self, out, chk):
        rc, text = out
        lines = parse_check_lines(text)
        for i, want in enumerate(self.ref["lines"]):
            got = lines[i] if i < len(lines) else None
            ok = rc == 0 and got == want and got[0] == "PASS"
            if ok and STRADDLING.match(want[2]):
                ok = int(STRADDLING.match(got[2]).group(1)) == self.ref["straddling"]
            chk.item(ok, f"verify check {want[1]!r}: got {got}")
        for extra in lines[len(self.ref["lines"]):]:
            chk.item(False, f"unexpected check line {extra}")

    def reference(self, out, program):
        """Every check line, and the straddling count."""
        rc, text = out
        if rc != 0:
            raise RuntimeError(f"{self.name}: verify exited {rc}")
        lines = parse_check_lines(text)
        counts = [int(m.group(1)) for _, _, d in lines if (m := STRADDLING.match(d))]
        return {"lines": lines, "straddling": counts[0]}


WORKLOADS = {
    w.name: w
    for w in (
        Curve("curve-d13-n2", 13, 2, "0.10:0.25:0.005"),
        Curve("curve-d5-n6-fine", 5, 6, "0.10:0.25:0.0005"),
        MSearch("msearch-d5-den8", 5, 8),
        Verify("verify-d2-n2", 2, 2),
    )
}
