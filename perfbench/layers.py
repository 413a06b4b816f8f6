"""Per-layer metrics from the traced requests, and the tracing overhead.

Times are totals over the traced list unless the name says per call
(``_us``) or per step; counts are totals.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

LAYERS = ("cli", "counter", "sl2", "oracle", "maps", "formulas", "crt")
MEMBERS = ("maps.SpecSet.members", "maps.FiberSet.members", "maps.ProductSet.members")
COUNTED = ("candidates", "yielded", "members")  # span info fields that are summed

UNITS = {
    "counter.cold_ms": "ms",
    "counter.step_ms": "ms",
    "counter.calls": "count",
    "counter.rss_mb": "MB",
    "sl2.continuant_product_us": "us",
    "oracle.naive_ms": "ms",
    "oracle.mitm_ms": "ms",
    "oracle.candidates": "count",
    "oracle.candidates_per_s": "1/s",
    "oracle.solutions_per_s": "1/s",
    "maps.enumerate_ms": "ms",
    "maps.check_ms": "ms",
    "maps.members": "count",
    "maps.maps_verified": "count",
    "formulas.eval_us": "us",
    "formulas.calls": "count",
    "crt.assemble_ms": "ms",
    "crt.pieces_formula": "count",
    "crt.pieces_dp": "count",
    "crt.pieces_brute": "count",
    "cli.spawn_import_ms": "ms",
    "cli.route_dp": "count",
    "cli.route_formula": "count",
    "cli.route_brute": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def _covered(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Rollup:
    """Sums over every span of every traced request."""

    def __init__(self):
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.calls = Counter()
        self.info = defaultdict(Counter)
        self.sources = Counter()
        self.maps_ok = 0
        self.check_ns = 0
        self.enumerate_ns = 0
        self.outer_formulas = []
        self.outer_crt_ns = 0
        self.spans = 0

    def add(self, dump: dict):
        names = dump["names"]
        spans = dump["spans"]
        self.spans += len(spans)
        children = defaultdict(list)
        for span in spans:
            if span[3] >= 0:
                children[span[3]].append(span)
        for index, (name_id, start, end, parent, info) in enumerate(spans):
            name = names[name_id]
            duration = end - start
            kids = children.get(index, ())
            self.self_ns[name.split(".", 1)[0]] += duration - _covered(
                [(k[1], k[2]) for k in kids])
            self.total_ns[name] += duration
            self.calls[name] += 1
            if info:
                if "source" in info:
                    self.sources[info["source"]] += 1
                self.maps_ok += info.get("ok", False)
                for field in COUNTED:
                    self.info[name][field] += info.get(field, 0)
            outer_name = names[spans[parent][0]] if parent >= 0 else ""
            if name.startswith("formulas.") and not outer_name.startswith("formulas."):
                self.outer_formulas.append(duration)
            if name in ("crt.assemble_count", "crt.piece_counts") and (
                    not outer_name.startswith("crt.")):
                self.outer_crt_ns += duration
            if name in MEMBERS and outer_name not in MEMBERS:
                self.enumerate_ns += duration
            if name == "maps.verify_reciprocal":
                self.check_ns += duration - sum(
                    k[2] - k[1] for k in kids if names[k[0]] in MEMBERS)


def metrics(untraced: list[dict], traced: list[dict], dumps: list[dict]) -> dict[str, float]:
    """Every per-layer metric for one workload.

    ``untraced`` and ``traced`` are the request records of the same request
    list run both ways; ``dumps`` are the traced workers' span files.
    """
    roll = Rollup()
    for dump in dumps:
        roll.add(dump)
    probes = [p for dump in dumps for p in dump["dp_probes"]]
    stepped = [p for p in probes if p["size"] > 1]
    dp_dumps = [d for d in dumps if d["dp_probes"]]
    routes = Counter(r["route"] for r in untraced if r["route"])
    naive_ns = roll.total_ns["oracle._count_naive"] + roll.total_ns["oracle.product_histogram"]
    mitm_ns = roll.total_ns["oracle._count_mitm"]
    candidates = sum(roll.info[name]["candidates"] for name in (
        "oracle._count_naive", "oracle._half_products", "oracle.product_histogram"))
    solutions_ns = roll.total_ns["oracle.solutions"]
    cp_calls = roll.calls["sl2.continuant_product"]
    untraced_ns = sum(r["latency_ns"] for r in untraced)
    traced_ns = sum(r["latency_ns"] for r in traced) - sum(d["probe_ns"] for d in dumps)
    out = {
        "counter.cold_ms": sum(p["first_ns"] - p["warm_ns"] for p in probes) / 1e6,
        "counter.step_ms": (sum(p["warm_ns"] - p["warm1_ns"] for p in stepped)
                            / sum(p["size"] - 1 for p in stepped) / 1e6) if stepped else 0.0,
        "counter.calls": roll.calls["counter.dp_vector_sequence"],
        "counter.rss_mb": max((d["rss_kb_end"] - d["rss_kb_start"] for d in dp_dumps),
                              default=0) / 1024,
        "sl2.continuant_product_us": (roll.total_ns["sl2.continuant_product"] / cp_calls / 1e3
                                      if cp_calls else 0.0),
        "oracle.naive_ms": naive_ns / 1e6,
        "oracle.mitm_ms": mitm_ns / 1e6,
        "oracle.candidates": candidates,
        "oracle.candidates_per_s": (candidates / ((naive_ns + mitm_ns) / 1e9)
                                    if naive_ns + mitm_ns else 0.0),
        "oracle.solutions_per_s": (roll.info["oracle.solutions"]["yielded"] / (solutions_ns / 1e9)
                                   if solutions_ns else 0.0),
        "maps.enumerate_ms": roll.enumerate_ns / 1e6,
        "maps.check_ms": roll.check_ns / 1e6,
        "maps.members": sum(roll.info[name]["members"] for name in MEMBERS),
        "maps.maps_verified": roll.maps_ok,
        "formulas.eval_us": statistics.fmean(roll.outer_formulas) / 1e3
        if roll.outer_formulas else 0.0,
        "formulas.calls": len(roll.outer_formulas),
        "crt.assemble_ms": roll.outer_crt_ns / 1e6,
        "crt.pieces_formula": roll.sources["formula"],
        "crt.pieces_dp": roll.sources["dp"],
        "crt.pieces_brute": roll.sources["brute"],
        "cli.spawn_import_ms": statistics.median(
            [d["spawn_import_ns"] for d in dumps] or [0]) / 1e6,
        "cli.route_dp": routes["dp"],
        "cli.route_formula": routes["formula"],
        "cli.route_brute": routes["brute"],
        **{f"{layer}.self_ms": roll.self_ns[layer] / 1e6 for layer in LAYERS},
        "trace.spans": roll.spans,
        "trace.overhead_ms": (traced_ns - untraced_ns) / 1e6,
        "trace.overhead_pct": 100 * (traced_ns - untraced_ns) / untraced_ns,
    }
    assert set(out) == set(UNITS)
    return out
