"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workloads serve-cold eval-table3 --seeds 1 2 3 4 5 \
        [--seconds 40] [--out perfbench/steadiness.json]

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.  A spread should stay below a third of the
bound.  ``--out`` writes every run's metrics plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pb_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    began = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - began
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    record: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "wall_s": round(result["wall_s"], 2),
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['wall_s']:.1f}s wall", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name] for run in runs]
            spread = pb_stats.quartile_spread(values) if len(values) > 1 else 0.0
            summary[name] = {"median": statistics.median(values), "spread": spread,
                             "bound": bound}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {summary[name]['median']:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
