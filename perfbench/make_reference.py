"""Write the reference data under perfbench/ref/ from the current program.

    python3 perfbench/make_reference.py [workload ...]

Run it only on a commit whose outputs are known good: the checks compare
every later commit's exact outputs with these files.  The curve
references also hold each cell's exact trap threshold and coordinate
word, from which the checker rebuilds every row's essential matrix for
its eigenvalue oracle.
"""

from __future__ import annotations

import json
import shutil
import sys
import types

import run


def main(argv: list[str]) -> int:
    run.import_program()
    from eucdyn import cli, qfield, torus, trapping

    import workloads

    program = types.SimpleNamespace(cli=cli, qfield=qfield, torus=torus, trapping=trapping)
    names = argv or list(workloads.WORKLOADS)
    workloads.REF_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "make-reference"
    workdir.mkdir(exist_ok=True)
    try:
        for name in names:
            w = workloads.WORKLOADS[name]
            w.prepare(0, workdir, None)
            doc = w.reference(w.collect(w.job()), program)
            path = workloads.REF_DIR / f"{name}.json"
            path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
