"""Show that the benchmark's checker bites.

    python3 perfbench/negative_control.py

Three controls, each of which must be reported as a failure:

1. msearch-d5-den8 checked against a reference with one orbit's M changed;
2. curve-d13-n2 checked against a reference with one trapped_count off by one;
3. ``eucdyn verify --D 2 --n 0 --perturb`` (a deliberately broken partition)
   must print FAIL and exit with the verification-failure code 3.

Each real job runs once; the reference files on disk are not modified.
Prints one line per control and a JSON summary; exits 0 only when every
control was caught.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import run


def corrupted_fail_frac(name: str, corrupt) -> float:
    import workloads

    w = workloads.WORKLOADS[name]
    ref = copy.deepcopy(workloads.load_reference(name))
    what = corrupt(ref)
    workdir = run.OUT_DIR / "negative-control"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w.prepare(0, workdir, ref)
        out = w.collect(w.job())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    chk = workloads.Check()
    w.check(out, chk)
    w.run_once_checks([out], chk)
    frac = chk.failed / chk.attempted
    print(f"{name}: {what}: fail_frac {chk.failed}/{chk.attempted} = {frac:.4f} {chk.notes[:3]}")
    return frac


def bump_m(ref) -> str:
    key = sorted(ref["M"])[1]
    ref["M"][key] = str(Fraction(ref["M"][key]) + Fraction(1, 1000))
    return f"M at orbit {key} raised by 1/1000"


def bump_trapped(ref) -> str:
    ref["rows"][5][3] += 1
    return "trapped_count of row 5 raised by one"


def perturbed_verify() -> bool:
    from eucdyn import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["verify", "--D", "2", "--n", "0", "--perturb"])
    text = buf.getvalue()
    caught = rc == cli.EXIT_MATH and "FAIL  perturbation fixture" in text
    print(f"verify --D 2 --n 0 --perturb: exit {rc}, "
          f"{'FAIL reported' if 'FAIL' in text else 'no FAIL line'}")
    return caught


def main() -> int:
    run.import_program()
    results = {
        "msearch_corrupted_M": corrupted_fail_frac("msearch-d5-den8", bump_m) > 0,
        "curve_corrupted_trapped_count": corrupted_fail_frac("curve-d13-n2", bump_trapped) > 0,
        "verify_perturb_fails": perturbed_verify(),
    }
    print(json.dumps({"caught": results, "all_caught": all(results.values())}))
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
