"""Compare two sweep files: the parent commit's and the change's.

    python3 perfbench/compare.py PARENT.json CHANGE.json

For each workload and end-to-end metric it prints both sides' median and
quartiles, how many same-seed pairs the change wins, and a verdict under the
metric's bound from the parent's BENCHMARK.json:

* unresolved: either side's spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
* regressed: the change's median is worse by more than the bound;
* improved: the change wins at least nine pairs in ten and the medians
  differ by more than the parent's quartile distance;
* no change: otherwise.

Per-layer metrics from the traced runs are listed side by side, without a
verdict.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import sys

from sweep import quartiles


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    if ((p3 - p1) / pm > bound or (c3 - c1) / cm > bound):
        beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
        return "improved (every run)" if beats_all else "unresolved"
    if sign * (cm - pm) / pm > bound:
        return "regressed"
    if pairs and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1:
        return "improved"
    return "no change"


def by_seed(doc: dict, workload: str, trace: int) -> dict[int, dict]:
    return {r["seed"]: r["metrics"] for r in doc["runs"]
            if r["workload"] == workload and r["trace"] == trace}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        parent = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    specs = parent["benchmark"]["end_to_end"]
    commits = (doc["provenance"]["commit"][:12] for doc in (parent, change))
    print("parent {}  change {}".format(*commits))
    regressed = False
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            print(f"{workload}: not in the change's sweep")
            continue
        old, new = by_seed(parent, workload, 0), by_seed(change, workload, 0)
        seeds = sorted(set(old) & set(new))
        print(f"{workload} ({len(old)} parent runs, {len(new)} change runs, {len(seeds)} pairs)")
        for spec in specs:
            name, better = spec["name"], spec["better"]
            pv = [m[name] for m in old.values()]
            cv = [m[name] for m in new.values()]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (new[s][name] - old[s][name]) < 0 for s in seeds)
            result = verdict(pv, cv, wins, len(seeds), better, spec["bound"])
            regressed |= result == "regressed"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"  {name:<14} parent {pm:11.4f} [{p1:.4f}, {p3:.4f}]  "
                  f"change {cm:11.4f} [{c1:.4f}, {c3:.4f}] {spec['unit']:<3} "
                  f"wins {wins}/{len(seeds)}  {result}")
        old_t, new_t = by_seed(parent, workload, 1), by_seed(change, workload, 1)
        if old_t and new_t:
            before, after = next(iter(old_t.values())), next(iter(new_t.values()))
            print("  per layer (traced run)")
            for name in before:
                if name in after:
                    print(f"    {name:<28} {before[name]:>16.4f} -> {after[name]:>16.4f}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
