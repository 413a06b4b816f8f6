"""End-to-end benchmark of the quiddity CLI.

    python3 perfbench/run.py --workload dp-sweep --seed 1 --seconds 27 --trace 0

One client sends the workload's requests one at a time (a closed loop).
Each request is ``python -m quiddity ARGV`` in a fresh child process, since
every CLI user pays for interpreter start, import and the lazy group-table
builds on every call.  Every output is checked against the committed answer
table (perfbench/answers.json), the golden CSVs under tests/golden, or the
verify summary line.

With --trace 0 the run repeats the seeded request list (see workloads.py)
and reports the end-to-end metrics in METRICS: wall_s is the median time to
finish one repeat of the list, and the latency figures are taken over
every request of every repeat.  Every timed child is preceded by a
calibration probe on the same CPU, and the times reported are scaled to the
probe's nominal speed (see PROBE).  With --trace 1 it runs each request
once untraced and once through perfbench/worker.py, which records spans per
layer, and reports the per-layer metrics of perfbench/layers.py and the
tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit.  A result file with every request and the run's provenance goes
to perfbench/results/.  The package is imported from src/ of the checkout
this file sits in; without it the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
RESULTS = BENCH / "results"

METRICS = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_WARMUPS = 2
SETUP_LAUNCHES = 11
REQUEST_TIMEOUT_S = 150
# No repeat starts once the run has measured this many times --seconds: the
# guard against a host far slower than the reference, where the fixed
# repeat count would overrun.
OVERRUN = 1.5
TAIL_BEYOND = 10
# Children take turns on the CPUs the run may use.  Left to the scheduler,
# a child starts on the CPU its parent last ran on, so a whole run would
# time one vCPU; on a shared host each vCPU's speed wanders on its own, and
# taking turns averages a run over all of them.
CPUS = sorted(os.sched_getaffinity(0))
# Calibration probe: a fixed pure-Python child that imports nothing from the
# repository.  On a shared host the speed at which fresh Python processes
# run drifts by a fifth or more within seconds, alike for every child.  Each
# timed child runs right after this probe on the same CPU, and its time is
# scaled by PROBE_NOMINAL_MS over the probe's time: the reported times are
# those of a host on which the probe takes PROBE_NOMINAL_MS, about what it
# takes on the 2-vCPU reference host.  Raw times stay in the result file.
PROBE = ("d = {}\n"
         "for i in range(30000):\n"
         "    d[i * 7919 % 100003, i & 7] = [i, i * i]\n"
         "s = sum(k[0] ^ v[1] for k, v in d.items())\n")
PROBE_NOMINAL_MS = 110.0


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QUIDDITY_BUDGET", None)
    return env


def run_child(argv: list[str], env: dict[str, str], turn: int) -> dict:
    """Run one child to completion on CPU number ``turn`` (mod the count);
    its own peak RSS comes from wait4."""
    cpu = CPUS[turn % len(CPUS)]
    os.sched_setaffinity(0, {cpu})  # the child inherits the calling thread's mask
    started = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter_ns() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "stdout": out, "stderr": b"".join(errors),
            "latency_ns": elapsed, "rss_kb": usage.ru_maxrss, "cpu": cpu}


def run_timed(argv: list[str], env: dict[str, str], turn: int) -> dict:
    """run_child after a calibration probe on the same CPU; ``scaled_ms`` is
    the child's latency at the probe's nominal speed."""
    probe = run_child([sys.executable, "-c", PROBE], env, turn)
    if probe["code"] != 0:
        raise SetupError(f"calibration probe failed: {probe['stderr'].decode()}")
    result = run_child(argv, env, turn)
    result["probe_ns"] = probe["latency_ns"]
    result["scaled_ms"] = result["latency_ns"] / probe["latency_ns"] * PROBE_NOMINAL_MS
    return result


def check_checkout(env: dict[str, str]) -> tuple[dict[str, str], dict[str, bytes]]:
    package = SRC / "quiddity" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no quiddity package at {package}")
    if not workloads.ANSWERS_FILE.is_file():
        raise SetupError(f"no answer table at {workloads.ANSWERS_FILE}")
    golden = {}
    for name in workloads.GOLDEN_TABLES.values():
        path = GOLDEN / name
        if not path.is_file():
            raise SetupError(f"no golden table at {path}")
        golden[name] = path.read_bytes()
    probe = run_child([sys.executable, "-c", "import quiddity; print(quiddity.__file__)"], env, 0)
    found = probe["stdout"].decode().strip()
    if probe["code"] != 0 or Path(found) != package:
        raise SetupError(f"child imports quiddity from {found or probe['stderr'].decode()!r}, "
                         f"not {package}")
    return workloads.load_answers(), golden


def setup_seconds(env: dict[str, str]) -> float:
    """Median time for a fresh interpreter to start, import quiddity and
    exit, at the probe's nominal speed."""
    argv = [sys.executable, "-c", "import quiddity"]
    times = []
    for i in range(SETUP_WARMUPS + SETUP_LAUNCHES):
        result = run_timed(argv, env, i)
        if result["code"] != 0:
            raise SetupError(f"import quiddity failed: {result['stderr'].decode()}")
        if i >= SETUP_WARMUPS:
            times.append(result["scaled_ms"] / 1e3)
    return statistics.median(times)


def git_commit() -> str:
    """The checkout's commit, or "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "nproc": len(CPUS),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_request(request: workloads.Request, argv: list[str], turn: int,
                env, answers, golden) -> dict:
    result = run_timed(argv, env, turn)
    ok, route = workloads.check(request, result["code"], result["stdout"], answers, golden)
    record = {"argv": list(request.argv), "ok": ok, "route": route, "code": result["code"],
              "latency_ns": result["latency_ns"], "probe_ns": result["probe_ns"],
              "scaled_ms": result["scaled_ms"], "rss_kb": result["rss_kb"],
              "cpu": result["cpu"]}
    if not ok:
        record["stderr"] = result["stderr"].decode(errors="replace")[-2000:]
        record["stdout"] = result["stdout"].decode(errors="replace")[-2000:]
    return record


def quiddity_argv(request: workloads.Request) -> list[str]:
    return [sys.executable, "-m", "quiddity", *request.argv]


def traced_argv(request: workloads.Request, index: int, path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--spans", str(path),
            "--request-id", str(index), "--t0", str(time.monotonic_ns()), "--", *request.argv]


def run_repeats(requests, orders, seconds, env, answers,
                golden) -> tuple[list[float], list[dict]]:
    """Run the list once per order; records carry their index in the list.
    A repeat's time is the sum of its requests' scaled latencies."""
    repeat_s, records = [], []
    started = time.monotonic()
    for order in orders:
        if repeat_s and time.monotonic() - started > OVERRUN * seconds:
            break
        total_ms = 0.0
        for index in order:
            record = run_request(requests[index], quiddity_argv(requests[index]),
                                 len(records), env, answers, golden)
            records.append({"index": index, **record})
            total_ms += record["scaled_ms"]
        repeat_s.append(total_ms / 1e3)
    return repeat_s, records


def run_traced(requests, env, answers, golden, span_dir: Path):
    """Each request untraced and then traced, back to back and on the same
    CPU, so that the overhead compares runs made at nearly the same speed."""
    span_dir.mkdir(parents=True, exist_ok=True)
    for old in span_dir.glob("*.json"):
        old.unlink()
    untraced, traced, dumps = [], [], []
    for index, request in enumerate(requests):
        untraced.append(run_request(request, quiddity_argv(request), index,
                                    env, answers, golden))
        path = span_dir / f"{index:04d}.json"
        traced.append(run_request(request, traced_argv(request, index, path), index,
                                  env, answers, golden))
        if path.is_file():
            with open(path) as fh:
                dumps.append(json.load(fh))
    return untraced, traced, dumps


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic,
    weighted by the mass of Beta((n+1)p, (n+1)(1-p)) over its 1/n slice
    (midpoint rule).  The request costs of a list come in clusters with gaps
    between them, and a single order statistic at a gap jumps across it on
    a small change; this weighted mean moves smoothly instead."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    mass = [0.0] * n
    for k in range(steps * n):
        x = (k + 0.5) / (steps * n)
        mass[k // steps] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(m * v for m, v in zip(mass, ordered)) / sum(mass)


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    its value, the percentile and the sample count."""
    n = len(latencies_ms)
    pct = 100 * max(1, n - TAIL_BEYOND) / n
    return quantile(latencies_ms, pct / 100), pct, n


def end_to_end(repeat_s: list[float], records: list[dict], setup_s: float) -> dict:
    latencies_ms = [r["scaled_ms"] for r in records]
    return {
        "wall_s": statistics.median(repeat_s),
        "req_p50_ms": quantile(latencies_ms, 0.5),
        "req_tail_ms": tail(latencies_ms)[0],
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the quiddity CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        answers, golden = check_checkout(env)
        setup_s = setup_seconds(env)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    repeats = 1 if args.trace else workloads.repeats_for(args.workload, args.seconds)
    requests, orders = workloads.request_orders(args.workload, args.seed, repeats)
    missing = [r.key for r in requests if r.kind != "table" and r.key not in answers]
    if missing:
        print(f"error: answer table lacks {missing}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"provenance": provenance(args), "repeats": repeats, "setup_s": setup_s,
              "list": [list(r.argv) for r in requests]}
    try:
        if args.trace:
            records, traced, dumps = run_traced([requests[i] for i in orders[0]], env,
                                                answers, golden, RESULTS / f"{stem}-spans")
        else:
            repeat_s, records = run_repeats(requests, orders, args.seconds, env,
                                            answers, golden)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, units = layers.metrics(records, traced, dumps), layers.UNITS
        result.update({"requests": records, "traced_requests": traced})
        records = records + traced
    else:
        metrics, units = end_to_end(repeat_s, records, setup_s), METRICS
        _, pct, n = tail([r["scaled_ms"] for r in records])
        result.update({"repeats": len(repeat_s), "repeat_seconds": repeat_s,
                       "requests": records,
                       "tail": {"percentile": pct, "samples": n, "beyond": TAIL_BEYOND}})
    failed = sum(not r["ok"] for r in records)
    result.update({"attempted": len(records), "failed": failed,
                   "failed_ratio": failed / len(records), "metrics": metrics})
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(orders[0])} requests x "
          f"{result['repeats']} repeat(s), "
          f"{failed} of {len(records)} failed (failed_ratio {failed / len(records):.4f})")
    for name, value in metrics.items():
        extra = ""
        if name == "req_tail_ms":
            extra = f"  (p{result['tail']['percentile']:.1f} of {result['tail']['samples']})"
        print(f"  {name:<28} {value:>14.4f} {units[name]}{extra}")
    for record in records:
        if not record["ok"]:
            print(f"  FAILED: {' '.join(record['argv'])} (exit {record['code']})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
