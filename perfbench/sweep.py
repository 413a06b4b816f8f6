"""Run the benchmark over seeds 1..10 and collect the runs in one file.

    python3 perfbench/sweep.py --out perfbench/results/sweep.json

Runs every workload once per seed with --trace 0, then once per workload
with --trace 1 (seed 1), using run_seconds from BENCHMARK.json.  Prints,
per workload and metric, the median, quartiles and spread (quartile
distance over median) next to the metric's bound.  The output file is what
perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = tuple(range(1, 11))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    with open(BENCH / "results" / f"{stem}.json") as fh:
        result = json.load(fh)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "provenance": result["provenance"],
        **({"tail": result["tail"]} if "tail" in result else {}),
    }


def summarize(doc: dict) -> None:
    bounds = {m["name"]: m for m in doc["benchmark"]["end_to_end"]}
    for workload in doc["workloads"]:
        runs = [r for r in doc["runs"] if r["workload"] == workload and not r["trace"]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed_ratio {failed / attempted:.4f} "
              f"({failed}/{attempted})")
        for name, spec in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            print(f"  {name:<14} median {med:12.4f} {spec['unit']:<3} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.2%} bound {spec['bound']:.0%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds 1..10.")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = []
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
    for workload in workloads.WORKLOADS:
        runs.append(run_once(workload, SEEDS[0], seconds, 1))
    doc = {"benchmark": benchmark, "workloads": list(workloads.WORKLOADS), "seeds": list(SEEDS),
           "provenance": runs[0]["provenance"], "runs": runs}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    summarize(doc)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
