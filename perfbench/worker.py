"""Traced CLI worker: one request, with spans around the package's layers.

    python3 perfbench/worker.py --spans OUT.json --request-id K --t0 NS -- ARGV...

Runs ``quiddity.cli.main(ARGV)`` after wrapping each layer module's public
functions with spans.  A name is wrapped everywhere it is looked up, so
``cli``'s call to ``counter.dp_count`` and ``maps``' call to its imported
``solutions`` both record.  Per-element helpers are left alone (see
PER_ELEMENT), as are Mat2/Residue methods.  Each span holds name, start,
end, parent and a few counts; the spans stay in memory and go to OUT.json
when the request ends.

After the request, the first DP call for each modulus is repeated warm,
untraced, at its own size and at size 1, which separates the cold build of
state space and transitions from the cost of one step.  --t0 is the
parent's time.monotonic_ns() just before it spawned this process.
"""

import sys
import time

import quiddity.cli  # noqa: F401  (imports every layer)

IMPORTED_NS = time.monotonic_ns()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from time import perf_counter_ns  # noqa: E402

from quiddity import cli, counter, crt, formulas, maps, oracle, sl2  # noqa: E402

LAYERS = (cli, counter, sl2, oracle, maps, formulas, crt)

# Helpers that run once per tuple, position or constant: a span each would
# cost more than the work, and their time already shows in their caller's
# self time.  continuant_product is per tuple too, but it is the sl2 layer's
# measured boundary.
PER_ELEMENT = {
    "sl2": {"identity", "neg_identity", "s_mat", "t_mat", "elementary"},
    "oracle": {"allowed_values", "fixed", "default_budget", "psi"},
    "formulas": {"normalize_sign", "sign_name"},
    "maps": {"negate_map", "scale_map", "reduce_one", "insert_one", "reduce_minus_one",
             "insert_minus_one", "reduce_pair", "expand_pair", "reduce_quintuple",
             "expand_quintuple", "unit_insert_map", "unit_drop_map", "fiber_shift_map",
             "fiber_unshift_map"},
}
# Private oracle walkers, wrapped to tell naive from meet-in-the-middle work
# and to count the candidates each examines.
ORACLE_WALKERS = ("_count_naive", "_count_mitm", "_half_products")
MEMBER_CLASSES = (maps.SpecSet, maps.FiberSet, maps.ProductSet)


class Tracer:
    """Spans as [name id, start ns, end ns, parent index, info]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = True

    def _open(self, name_id: int) -> list:
        span = [name_id, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, func, note=None):
        """A traced stand-in for func; note(args, result, span) adds info."""
        name_id = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(name_id, func)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span[4] = note(args, result, span)
            return result

        return traced

    def _wrap_generator(self, name_id: int, func):
        # The span runs from the first item requested to exhaustion; the
        # stack holds it only while the generator itself runs, so work the
        # consumer does between items is not parented to it.
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                yield from func(*args, **kwargs)
                return
            inner = func(*args, **kwargs)
            span = [name_id, perf_counter_ns(), 0,
                    tracer.stack[-1] if tracer.stack else -1, {"yielded": 0}]
            index = len(tracer.spans)
            tracer.spans.append(span)
            yielded = 0
            try:
                while True:
                    tracer.stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.stack.pop()
                    yielded += 1
                    yield item
            finally:
                inner.close()
                span[2] = perf_counter_ns()
                span[4] = {"yielded": yielded}

        return traced


def _members_note(args, result, span):
    return {"members": len(result)}


def _cache_aware(original, traced):
    """Trace only the calls that enumerate; cached calls go straight through."""

    def members(self, budget=None):
        if self._members is not None:
            return original(self, budget)
        return traced(self, budget)

    return members


class Worker:
    """One traced request: the tracer, the wrapped names and the DP probes."""

    def __init__(self):
        self.tracer = Tracer()
        self.original_dp = counter.dp_vector_sequence
        self.first_dp_calls: dict[int, tuple[list, tuple]] = {}

    def _dp_note(self, args, result, span):
        size, modulus = args[0], args[1]
        self.first_dp_calls.setdefault(modulus.n, (span, args))
        return {"modulus": modulus.n, "size": size}

    def notes(self):
        return {
            "counter.dp_vector_sequence": self._dp_note,
            "oracle._count_naive": lambda args, result, span: {
                "candidates": args[0].naive_candidates()},
            "oracle._half_products": lambda args, result, span: {
                "candidates": math.prod(len(v) for v in args[0])},
            "oracle.product_histogram": lambda args, result, span: {
                "candidates": sum(result.values())},
            "maps.verify_reciprocal": lambda args, result, span: {"ok": result.ok},
            "crt.two_part_count": lambda args, result, span: {"source": result[1]},
            "crt.prime_count": lambda args, result, span: {"source": result[1]},
        }

    def install(self):
        """Wrap every traced name in every module that binds it."""
        notes = self.notes()
        replaced = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                public = (not attr.startswith("_") and callable(value)
                          and not isinstance(value, type)
                          and getattr(value, "__module__", None) == module.__name__
                          and attr not in PER_ELEMENT.get(layer, ()))
                walker = module is oracle and attr in ORACLE_WALKERS
                if public or walker:
                    name = f"{layer}.{attr}"
                    replaced[id(value)] = self.tracer.wrap(name, value, notes.get(name))
        for name, module in list(sys.modules.items()):
            if name == "quiddity" or name.startswith("quiddity."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])
        for cls in MEMBER_CLASSES:
            note = None if cls is maps.ProductSet else _members_note
            traced = self.tracer.wrap(f"maps.{cls.__name__}.members", cls.members, note)
            cls.members = _cache_aware(cls.members, traced)

    def warm_probes(self) -> list[dict]:
        """Repeat each modulus's first DP call warm, at its size and at size 1."""
        self.tracer.enabled = False
        out = []
        for span, (size, modulus, *rest) in self.first_dp_calls.values():
            constraints = rest[0] if rest else None
            pairs = constraints.items() if isinstance(constraints, dict) else (constraints or ())
            first = {p: c for p, c in pairs if p == 1}
            started = perf_counter_ns()
            self.original_dp(size, modulus, constraints)
            warm_n = perf_counter_ns() - started
            started = perf_counter_ns()
            self.original_dp(1, modulus, first)
            warm_1 = perf_counter_ns() - started
            out.append({"modulus": modulus.n, "size": size, "first_ns": span[2] - span[1],
                        "warm_ns": warm_n, "warm1_ns": warm_1})
        return out


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts = dict(zip(args[:split:2], args[1:split:2]))
    argv = args[split + 1:]
    spawn_import_ns = IMPORTED_NS - int(opts["--t0"])
    worker = Worker()
    worker.install()
    rss_start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = 1
    probes: list[dict] = []
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        rss_end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        started = perf_counter_ns()
        if code == 0:
            probes = worker.warm_probes()
        probe_ns = perf_counter_ns() - started
        with open(opts["--spans"], "w") as fh:
            json.dump({
                "request": int(opts["--request-id"]),
                "argv": argv,
                "spawn_import_ns": spawn_import_ns,
                "rss_kb_start": rss_start,
                "rss_kb_end": rss_end,
                "probe_ns": probe_ns,
                "dp_probes": probes,
                "names": worker.tracer.names,
                "spans": worker.tracer.spans,
            }, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
