"""Per-layer tracing of orderlab from outside the program.

`Tracer.install` wraps each function named in `LAYERS` and rebinds the
name in every loaded `orderlab` module that holds the original, so
calls through module globals and re-exports all pass the wrapper;
`Tracer.uninstall` puts the originals back.  The wrapper sits outside
any `lru_cache`, so a cache hit is still a call.

Spans are kept in memory as [name, parent span, verdict, start, end]
and written out once, at the end.  A layer's self time is its span's
duration minus the time its child spans cover; calls are single
threaded, so the children of a span never overlap.

`Tracer.clear_caches`, used by traced and untraced runs alike, empties
every `lru_cache` in orderlab between rounds and keeps the hits counted.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# module -> traced public functions, each with the counts it reports
# besides calls and self time.
LAYERS = {
    "posets": {
        "is_bounded_complete": (),
        "is_algebraic_and_dcpo": (),
        "directed_subsets": (),
        "bounded_complete_oracle": (),
    },
    "generate": {"generate_poset": ()},
    "xizhao": {"xizhao_model": ("hits",), "max_homeo_check": ()},
    "scott": {"scott_space": ("rebuilds", "opens"), "max_point_space": ()},
    "spaces": {
        "make_space": ("opens",),
        "irreducible_closed_sets": ("hits",),
        "compact_saturated_sets": ("hits",),
        "subspace": (),
        "ph_space": ("hits",),
    },
    "reflections": {
        "sobrification": (),
        "wf_reflection": (),
        "decomposition_check": (),
        "pair_conditions_check": (),
        "j_embedding_check": (),
        "shen_iterate": (),
        "claim_embed2_check": (),
    },
    "families": {
        "kf_sets": ("hits",),
        "wd_status": ("hits",),
        "minimal_closed_meeting": (),
    },
    "systems": {
        "classify": (),
        "proposition_key_check": (),
        "classifier_agreement": (),
    },
    "report": {
        "analyze_poset": (),
        "oracle_search": (),
        "canonical_json": ("bytes",),
    },
    "io": {"load_poset": (), "load_space": ()},
    "cli": {"main": ()},
}

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "hits": ("count", "higher"),
    "rebuilds": ("count", "lower"),
    "opens": ("count", "lower"),
    "bytes": ("bytes", "lower"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, funcs in LAYERS.items():
        for fn, extras in funcs.items():
            for what in ("calls", *extras, "self_s"):
                out.append((f"{mod}.{fn}.{what}", *UNITS[what]))
    out += [
        ("setup.import_s", "s", "lower"),
        ("setup.inputs_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.span_cost_pct", "%", "lower"),
    ]
    return out


def _orderlab_modules() -> list:
    return [m for name, m in sys.modules.items()
            if name == "orderlab" or name.startswith("orderlab.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdict = -1
        self.counts: dict[str, int] = {}
        self.cached: dict[str, object] = {}
        self.hits_base: dict[str, int] = {}
        self.installed = False
        self._bindings: list[tuple] = []
        self._built: set = set()

    def _bank_hits(self) -> None:
        for name, fn in self.cached.items():
            self.counts[name + ".hits"] += fn.cache_info().hits - self.hits_base[name]
            self.hits_base[name] = fn.cache_info().hits

    def clear_caches(self) -> None:
        """Empty every lru_cache in orderlab; the hits counted so far stay."""
        if self.installed:
            self._bank_hits()
        for module in _orderlab_modules():
            for value in vars(module).values():
                for fn in (value, getattr(value, "__wrapped__", None)):
                    if hasattr(fn, "cache_clear"):
                        fn.cache_clear()
                        break
        for name in self.cached:
            self.hits_base[name] = 0

    def _bind(self) -> None:
        loaded = _orderlab_modules()
        for mod, funcs in LAYERS.items():
            module = sys.modules[f"orderlab.{mod}"]
            for fn, extras in funcs.items():
                name = f"{mod}.{fn}"
                original = getattr(module, fn)
                if "hits" in extras:
                    self.cached[name] = original
                wrapper = self._wrap(name, original, extras)
                for m in loaded:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._bindings.append((m, attr, original, wrapper))
                for what in ("calls", *extras):
                    self.counts[f"{name}.{what}"] = 0

    def install(self) -> None:
        """Put the wrappers of LAYERS in place of the functions, in every
        loaded orderlab module that holds them."""
        if not self._bindings:
            self._bind()
        for module, attr, _original, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        for name, fn in self.cached.items():
            self.hits_base[name] = fn.cache_info().hits
        self.installed = True

    def uninstall(self) -> None:
        """Put the original functions back; the counts so far stay."""
        if not self.installed:
            return
        self._bank_hits()
        for module, attr, original, _wrapper in self._bindings:
            setattr(module, attr, original)
        self.installed = False

    def begin_verdict(self, index: int) -> None:
        self.verdict = index
        self._built.clear()

    def _wrap(self, name, original, extras):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls_key = name + ".calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.verdict, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if extras:
                self._count(name, extras, args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__doc__ = original.__doc__
        return traced

    def _count(self, name, extras, args, result) -> None:
        if "rebuilds" in extras:
            key = (name, args[0])
            if key in self._built:
                self.counts[name + ".rebuilds"] += 1
            self._built.add(key)
        if "opens" in extras:
            self.counts[name + ".opens"] += len(result.opens)
        if "bytes" in extras:
            self.counts[name + ".bytes"] += len(result.encode("utf-8"))

    def metrics(self) -> dict[str, float]:
        """calls, hits, rebuilds, opens and bytes counts plus self times."""
        self.uninstall()
        out = dict(self.counts)
        covered = [0.0] * len(self.spans)
        self_s: dict[str, float] = {}
        for name, parent, _v, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, _p, _v, start, end), child in zip(self.spans, covered):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        for mod, funcs in LAYERS.items():
            for fn in funcs:
                out[f"{mod}.{fn}.self_s"] = self_s.get(f"{mod}.{fn}", 0.0)
        return out

    def verdict_spans(self) -> int:
        return sum(1 for span in self.spans if span[2] >= 0)

    def span_cost_s(self, calls: int = 100_000) -> float:
        """Seconds one traced call adds, timed on a wrapped no-op."""
        def noop():
            return None

        mark = len(self.spans)
        self.counts["trace.noop.calls"] = 0
        traced = self._wrap("trace.noop", noop, ())
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            middle = time.perf_counter()
            for _ in range(calls):
                traced()
            samples.append((time.perf_counter() - 2 * middle + start) / calls)
            del self.spans[mark:]
        del self.counts["trace.noop.calls"]
        return statistics.median(samples)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "parent", "verdict", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
