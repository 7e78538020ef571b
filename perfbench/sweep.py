"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/sweep.py --workloads grid procure --seeds 0-9

Each (workload, seed) runs in a fresh ``run.py`` process, one after
another, never two at once.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``.  ``--trace`` runs the traced mode instead, twice per
seed, and reports whether every count repeats exactly.  The raw results
go to ``perfbench/out/sweep-<workloads>-<seeds>[-trace].json``, so each
set of runs keeps its own file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = time.perf_counter() - t0
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    report: dict = {}
    for wl in args.workloads:
        runs = []
        for seed in seeds:
            reps = 2 if args.trace else 1
            outs = [run_once(wl, seed, args.seconds, int(args.trace)) for _ in range(reps)]
            runs.append({"seed": seed, "results": outs})
            print(f"{wl} seed {seed}: {[o['process_s'] for o in outs]} s", flush=True)
        report[wl] = runs
        if args.trace:
            for r in runs:
                a, b = (o["metrics"] for o in r["results"])
                moved = [k for k, v in a.items() if v["unit"] == "count" and v != b[k]]
                print(f"  seed {r['seed']}: counts {'repeat exactly' if not moved else moved}")
            continue
        for name in bounds:
            values = [r["results"][0]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(
                f"  {name:12s} median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                f"  spread {spread:.4f}  bound {bounds[name]}"
            )
    name = f"sweep-{'+'.join(args.workloads)}-{args.seeds}{'-trace' if args.trace else ''}"
    out = HERE / "out" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
