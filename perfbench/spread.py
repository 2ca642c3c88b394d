"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload curve-d13-n2 --seeds 1-10 [--seconds N]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile spread as a share of the median, next to the bound in
BENCHMARK.json.  Results also go to perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    results = []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return 1
        doc = json.loads(res.stdout.strip().splitlines()[-1])
        results.append(doc)
        vals = {k: round(m["value"], 4) for k, m in doc["metrics"].items()}
        print(f"seed {seed}: correct={doc['correct']} failed={doc['failed']}/{doc['attempted']} {vals}",
              flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"{name:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"spread {spread:.3f}  bound {bounds.get(name)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "runs": results, "summary": summary},
        indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
