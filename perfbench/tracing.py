"""Span tracing of superweyl layers, installed from outside the library.

The tracer replaces selected public names with timing wrappers, records one
span per call (or per ``next()`` for generators) with its parent span and the
request it belongs to, and restores every original on ``uninstall``.  A
layer's self time is the span's duration minus the time covered by its child
spans, so the self times of all spans in a request add up to the request.

Names are patched where the library looks them up: a function imported into
``superweyl.numerator`` is wrapped as ``superweyl.numerator.full_group``, a
method on its class.  A name that no longer exists is skipped and every
metric that needs it is reported as absent.

The group metrics depend on today's per-datum group cache (``generate``
returns the cached group object on a repeated call, which is what
``weyl.group_reuse_ratio`` counts).  A change that removes or replaces that
cache must update the group wrappers here in the same change.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name, hooks): hooks name the counters that
# the wrapper updates from the call's arguments and result.
PATCHES = (
    ("superweyl.rootdata", "RootDatum.__init__", "rootdata.build", ()),
    ("superweyl.rootdata", "RootDatum.expand_simple", "rootdata.expand_simple", ()),
    ("superweyl.numerator", "full_group", "weyl.full_group", ("group", "orbit")),
    ("superweyl.numerator", "component_group", "weyl.component_group", ("group", "orbit")),
    ("superweyl.atypical", "pi0_group", "weyl.pi0_group", ("group",)),
    ("superweyl.numerator", "numerator", "numerator.numerator", ()),
    ("superweyl.cli", "factor_numerator", "numerator.factor_numerator", ("factor_terms",)),
    ("superweyl.unifac", "factor_numerator", "numerator.factor_numerator", ("factor_terms", "miss")),
    ("superweyl.series", "ZSeries.__mul__", "series.zmul", ()),
    ("superweyl.series", "ZSeries.inverse", "series.zinv", ()),
    ("superweyl.series", "Poly.mul_trunc", "series.pmul", ()),
    ("superweyl.series", "Poly.to_text", "series.render", ()),
    ("superweyl.atypical", "neg_log", "series.neg_log", ("neg_log_terms",)),
    ("superweyl.atypical", "iter_ordered_partitions", "partitions.iter", ("generator",)),
    ("superweyl.atypical", "k_partition_counts", "partitions.kcount", ()),
    ("superweyl.partitions", "k_partition_counts", "partitions.kcount", ()),
    ("superweyl.unifac", "iter_counterexamples", "unifac.iter", ("generator",)),
    ("superweyl.unifac", "verify_tensor_isomorphism", "unifac.verify", ("lookups",)),
    ("superweyl.atypical", "atypical_numerator", "atypical.numerator", ("atyp_terms",)),
    ("superweyl.atypical", "coefficient_oracle", "atypical.oracle", ("target_degree",)),
    ("superweyl.atypical", "closed_form_coefficient", "atypical.closed", ()),
    ("superweyl.atypical", "enumeration_coefficient", "atypical.enum", ()),
    ("superweyl.atypical", "coefficient_f1", "atypical.f1", ()),
    ("superweyl.cli", "main", "cli.main", ()),
    ("superweyl.cli", "build_parser", "cli.parse", ()),
    ("superweyl.cli", "parse_weight", "cli.parse", ()),
)

# Per-layer metric -> (unit, span names it needs).  Every "_s" metric except
# cli.main_s is self time; cli.main_s is the inclusive time of cli.main.
METRIC_NEEDS = {
    "rootdata.build_s": ("s", ("rootdata.build",)),
    "rootdata.build_calls": ("count", ("rootdata.build",)),
    "rootdata.expand_simple_s": ("s", ("rootdata.expand_simple",)),
    "rootdata.expand_simple_calls": ("count", ("rootdata.expand_simple",)),
    "weyl.generate_s": ("s", ("weyl.full_group", "weyl.component_group", "weyl.pi0_group")),
    "weyl.groups_built": ("count", ("weyl.full_group", "weyl.component_group", "weyl.pi0_group")),
    "weyl.elements_built": ("count", ("weyl.full_group", "weyl.component_group", "weyl.pi0_group")),
    "weyl.group_reuse_ratio": ("ratio", ("weyl.full_group", "weyl.component_group", "weyl.pi0_group")),
    "numerator.self_s": ("s", ("numerator.numerator", "numerator.factor_numerator")),
    "numerator.calls": ("count", ("numerator.numerator",)),
    "numerator.orbit_elements": ("count", ("weyl.full_group", "weyl.component_group")),
    "numerator.terms_out": ("count", ("numerator.factor_numerator",)),
    "series.zmul_calls": ("count", ("series.zmul",)),
    "series.zmul_s": ("s", ("series.zmul",)),
    "series.zinv_calls": ("count", ("series.zinv",)),
    "series.pmul_calls": ("count", ("series.pmul",)),
    "series.pmul_s": ("s", ("series.pmul",)),
    "series.neg_log_calls": ("count", ("series.neg_log",)),
    "series.neg_log_s": ("s", ("series.neg_log",)),
    "series.neg_log_terms": ("count", ("series.neg_log",)),
    "series.render_s": ("s", ("series.render",)),
    "partitions.yielded": ("count", ("partitions.iter",)),
    "partitions.iter_s": ("s", ("partitions.iter",)),
    "partitions.kcount_calls": ("count", ("partitions.kcount",)),
    "partitions.kcount_s": ("s", ("partitions.kcount",)),
    "unifac.hits": ("count", ("unifac.iter",)),
    "unifac.verify_calls": ("count", ("unifac.verify",)),
    "unifac.self_s": ("s", ("unifac.iter", "unifac.verify")),
    "unifac.analysis_lookups": ("count", ("unifac.verify",)),
    "unifac.analysis_misses": ("count", ("unifac.verify", "numerator.factor_numerator")),
    "unifac.analysis_hit_ratio": ("ratio", ("unifac.verify", "numerator.factor_numerator")),
    "atypical.numerator_s": ("s", ("atypical.numerator",)),
    "atypical.numerator_terms": ("count", ("atypical.numerator",)),
    "atypical.oracle_self_s": ("s", ("atypical.oracle",)),
    "atypical.closed_self_s": ("s", ("atypical.closed",)),
    "atypical.enum_self_s": ("s", ("atypical.enum",)),
    "atypical.f1_s": ("s", ("atypical.f1",)),
    "atypical.target_degree": ("degree", ("atypical.oracle",)),
    "cli.main_s": ("s", ("cli.main",)),
    "cli.parse_s": ("s", ("cli.parse",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.overhead_ratio": ("ratio", ()),
}

SPAN_CAP = 20000


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._request = 0
        self._seen_groups: dict[int, object] = {}
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.calls[name] += 1
        self.incl_s[name] += duration
        self.self_s[name] += duration - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[0], parent[0] if parent else 0, self._request, name, start, end)
            )
        else:
            self.spans_dropped += 1

    @contextmanager
    def request(self, cls: str):
        """Root span of one benchmark request; nested spans share its id."""
        self._request += 1
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(f"request.{cls}", frame, start)

    # -- hooks ---------------------------------------------------------------

    @staticmethod
    def _cached_groups(args) -> set[int]:
        """Ids of the groups the datum argument already holds in its cache."""
        cache = getattr(args[0], "_group_cache", None) if args else None
        return {id(g) for g in cache.values()} if isinstance(cache, dict) else set()

    def _hook(self, hooks, args, result, cached: set[int]) -> None:
        counters = self.counters
        for hook in hooks:
            if hook == "group":
                counters["weyl.calls"] += 1
                if id(result) in cached or id(result) in self._seen_groups:
                    counters["weyl.reused"] += 1
                else:
                    self._seen_groups[id(result)] = result  # keep the id alive
                    counters["weyl.groups_built"] += 1
                    counters["weyl.elements_built"] += len(result)
            elif hook == "orbit":
                counters["numerator.orbit_elements"] += len(result)
            elif hook == "factor_terms":
                counters["numerator.terms_out"] += sum(len(f.terms) for f in result)
            elif hook == "miss":
                counters["unifac.analysis_misses"] += 1
            elif hook == "neg_log_terms":
                counters["series.neg_log_terms"] += len(result.terms)
            elif hook == "atyp_terms":
                counters["atypical.numerator_terms"] += len(result.terms)
            elif hook == "target_degree":
                counters["atypical.target_degree_sum"] += result.params["target_degree"]
            elif hook == "lookups":
                lhs, rhs = args[1], args[2]
                counters["unifac.analysis_lookups"] += len(lhs) + len(rhs)

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn, name: str, hooks: tuple):
        tracer = self
        counting = tuple(h for h in hooks if h != "generator")
        groups = "group" in hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cached = tracer._cached_groups(args) if groups else None
            frame = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start)
            if counting:
                tracer._hook(counting, args, result, cached)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self
        yielded = name + ".yielded"

        def timed(inner):
            while True:
                frame = tracer._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, frame, start)
                tracer.counters[yielded] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        for module_name, path, name, hooks in PATCHES:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            if "generator" in hooks:
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap_call(original, name, hooks)
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))
            self.present.add(name)
        # a span name counts as present only if every patch feeding it applied
        for module_name, path, name, _ in PATCHES:
            if f"{module_name}.{path}" in self.missing:
                self.present.discard(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._seen_groups.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> tuple[dict, list[str]]:
        """Per-layer metrics and the names reported as absent."""
        s, c, k = self.self_s, self.calls, self.counters
        weyl = ("weyl.full_group", "weyl.component_group", "weyl.pi0_group")
        weyl_calls = k["weyl.calls"]
        lookups = k["unifac.analysis_lookups"]
        oracle_calls = c["atypical.oracle"]
        values = {
            "rootdata.build_s": s["rootdata.build"],
            "rootdata.build_calls": c["rootdata.build"],
            "rootdata.expand_simple_s": s["rootdata.expand_simple"],
            "rootdata.expand_simple_calls": c["rootdata.expand_simple"],
            "weyl.generate_s": sum(s[n] for n in weyl),
            "weyl.groups_built": k["weyl.groups_built"],
            "weyl.elements_built": k["weyl.elements_built"],
            "weyl.group_reuse_ratio": k["weyl.reused"] / weyl_calls if weyl_calls else 0.0,
            "numerator.self_s": s["numerator.numerator"] + s["numerator.factor_numerator"],
            "numerator.calls": c["numerator.numerator"],
            "numerator.orbit_elements": k["numerator.orbit_elements"],
            "numerator.terms_out": k["numerator.terms_out"],
            "series.zmul_calls": c["series.zmul"],
            "series.zmul_s": s["series.zmul"],
            "series.zinv_calls": c["series.zinv"],
            "series.pmul_calls": c["series.pmul"],
            "series.pmul_s": s["series.pmul"],
            "series.neg_log_calls": c["series.neg_log"],
            "series.neg_log_s": s["series.neg_log"],
            "series.neg_log_terms": k["series.neg_log_terms"],
            "series.render_s": s["series.render"],
            "partitions.yielded": k["partitions.iter.yielded"],
            "partitions.iter_s": s["partitions.iter"],
            "partitions.kcount_calls": c["partitions.kcount"],
            "partitions.kcount_s": s["partitions.kcount"],
            "unifac.hits": k["unifac.iter.yielded"],
            "unifac.verify_calls": c["unifac.verify"],
            "unifac.self_s": s["unifac.iter"] + s["unifac.verify"],
            "unifac.analysis_lookups": lookups,
            "unifac.analysis_misses": k["unifac.analysis_misses"],
            "unifac.analysis_hit_ratio": (
                1.0 - k["unifac.analysis_misses"] / lookups if lookups else 0.0
            ),
            "atypical.numerator_s": s["atypical.numerator"],
            "atypical.numerator_terms": k["atypical.numerator_terms"],
            "atypical.oracle_self_s": s["atypical.oracle"],
            "atypical.closed_self_s": s["atypical.closed"],
            "atypical.enum_self_s": s["atypical.enum"],
            "atypical.f1_s": s["atypical.f1"],
            "atypical.target_degree": (
                k["atypical.target_degree_sum"] / oracle_calls if oracle_calls else 0.0
            ),
            "cli.main_s": self.incl_s["cli.main"],
            "cli.parse_s": s["cli.parse"],
            "cli.self_s": s["cli.main"],
            "trace.overhead_ratio": overhead_ratio,
        }
        metrics, absent = {}, []
        for metric, (unit, needs) in METRIC_NEEDS.items():
            if all(n in self.present for n in needs):
                metrics[metric] = {"value": float(values[metric]), "unit": unit}
            else:
                absent.append(metric)
        return metrics, absent

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, times relative to the first."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": req, "name": name,
                    "start_s": round(start - origin, 9), "end_s": round(end - origin, 9),
                }) + "\n")
