"""Outside-in tracing of ``hyparc`` for the traced benchmark run.

Hooks are installed by rebinding every ``hyparc.*`` module attribute that
*is* a target object, so callers that imported a function by name (for
example ``from .exact_linalg import span``) are traced as well as callers
that go through the defining module.  The program itself is not changed.
A target that no longer exists is recorded as missing, and every metric
that depends on it is left out of the report, never reported as 0.

Spans are recorded at the stage boundaries (name, start, end, parent,
analysis id).  Kernel calls (``exact_linalg``) are aggregated per enclosing
span to keep memory bounded; only the outermost kernel call is counted, so a
``span`` made inside ``intersect`` belongs to the ``intersect`` call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, hook kind, name).  Kinds: "stage" opens a span, "kernel"
# counts calls, time and cells, "count" counts calls, "yields" counts the items
# a generator yields, "memo" records instances to size their dict memos.
TARGETS = [
    ("hyparc.cli", "parse_input", "stage", "parse"),
    ("hyparc.arrangement", "load", "stage", "load"),
    ("hyparc.cli", "build_report", "stage", "build_report"),
    ("hyparc.arrangement", "profile", "stage", "profile"),
    ("hyparc.dimension_search", "achievable_dimensions", "stage", "search"),
    ("hyparc.corollaries", "verdict", "stage", "verdict"),
    ("hyparc.witness", "build_u_chain", "stage", "witness"),
    ("hyparc.witness", "witness_subspace", "stage", "witness"),
    ("hyparc.witness", "build_witness_for_mplus1", "stage", "witness"),
    ("hyparc.corollaries", "cross_check", "stage", "cross_check"),
    ("hyparc.exact_linalg", "span", "kernel", "span"),
    ("hyparc.exact_linalg", "intersect", "kernel", "intersect"),
    ("hyparc.exact_linalg", "contains", "kernel", "contains"),
    ("hyparc.exact_linalg", "nullspace", "kernel", "nullspace"),
    ("hyparc.exact_linalg", "solve_coordinates", "kernel", "solve_coordinates"),
    ("hyparc.arrangement", "compute_s", "count", "compute_s"),
    ("hyparc.corollaries", "finiteness_verdict", "count", "finiteness_verdict"),
    ("hyparc.dimension_search", "check_partition", "count", "check_partition"),
    ("hyparc.dimension_search", "partitions_rgs", "yields", "partitions_rgs"),
    ("hyparc.dimension_search", "SpanCache", "memo", "SpanCache"),
]

# The stages that build_report runs, with the layer each belongs to.
STAGES = {
    "profile": "arrangement",
    "search": "dimension_search",
    "verdict": "corollaries",
    "witness": "witness",
    "cross_check": "corollaries",
}
KERNELS = ("span", "intersect", "contains", "nullspace", "solve_coordinates")


def _deps(kind: str, *names: str) -> list[str]:
    return [f"{m}.{a}" for m, a, k, n in TARGETS if k == kind and n in names]


def _metric_table() -> list[tuple[str, str, list[str]]]:
    """(metric name, unit, targets it depends on) for every per-layer metric."""
    table = [
        ("cli.parse_s", "s", _deps("stage", "parse")),
        ("cli.emit_s", "s", _deps("stage", "build_report")),
        ("arrangement.load_s", "s", _deps("stage", "load")),
    ]
    for stage, layer in STAGES.items():
        table.append((f"{layer}.{stage}_s", "s", _deps("stage", stage)))
        table.append((f"{layer}.{stage}_self_s", "s", _deps("stage", stage) + _deps("kernel", *KERNELS)))
    table += [
        ("arrangement.compute_s_calls", "count", _deps("count", "compute_s")),
        ("dimension_search.partitions_enumerated", "count", _deps("yields", "partitions_rgs")),
        ("dimension_search.check_partition_calls", "count", _deps("count", "check_partition")),
        ("dimension_search.span_cache_entries", "count", _deps("memo", "SpanCache")),
        ("corollaries.finiteness_scans", "count", _deps("count", "finiteness_verdict")),
    ]
    for where in (None, *STAGES):
        suffix, stage_deps = ("", []) if where is None else (f".{where}", _deps("stage", where))
        for k in KERNELS:
            table.append((f"exact_linalg.{k}_calls{suffix}", "count", _deps("kernel", k) + stage_deps))
        table.append((f"exact_linalg.cells_reduced{suffix}", "count", _deps("kernel", "span", "intersect") + stage_deps))
        table.append((f"exact_linalg.kernel_self_s{suffix}", "s", _deps("kernel", *KERNELS) + stage_deps))
    return table


TRACED = _metric_table()
# Every per-layer metric: the traced ones plus two that run.py measures.
METRICS = TRACED + [("trace.overhead_frac", "frac", []), ("cli.bytes_changed", "count", [])]


def _cells(name: str, args: tuple, kwargs: dict) -> int:
    """Rows x width of the matrices handed to span/intersect; 0 for other kernels."""
    if name == "span":
        vectors = args[0]
        width = args[1] if len(args) > 1 else kwargs.get("ambient_dim")
        if width is None:
            width = len(vectors[0]) if vectors else 0
        return len(vectors) * width
    if name == "intersect":
        u, v = args[0], args[1]
        return (len(u.basis) + len(v.basis)) * u.ambient_dim
    return 0


class Tracer:
    """Spans and counters for one process; ``install`` hooks, ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.cells_unreadable = False
        self._open: list[dict] = []
        self._kernel_depth = 0
        self._caches: list = []
        self._restore: list = []
        self._analysis = None

    # --- hooks -----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hyparc"]
        for modname, attr, kind, name in targets:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            wrapper = getattr(self, f"_hook_{kind}")(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _hook_stage(self, name, fn):
        def traced(*args, **kwargs):
            span = self._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(span)

        return traced

    def _hook_kernel(self, name, fn):
        def traced(*args, **kwargs):
            if self._kernel_depth:
                return fn(*args, **kwargs)
            if name == "span" and args:
                args = (list(args[0]),) + args[1:]
            try:
                cells = _cells(name, args, kwargs)
            except (AttributeError, TypeError, IndexError):
                cells, self.cells_unreadable = 0, True
            self._kernel_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._kernel_depth -= 1
                rec = self._open[-1]["kernels"].setdefault(name, [0, 0.0, 0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += cells

        return traced

    def _hook_count(self, name, fn):
        def traced(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    def _hook_yields(self, name, fn):
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item

        return traced

    def _hook_memo(self, name, cls):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._caches.append(self)

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    # --- spans -----------------------------------------------------------

    def _record(self, name: str, start: float, end: float | None, parent: int | None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "analysis": self._analysis,
            "parent": parent,
            "start": start,
            "end": end,
            "kernels": {},
        }
        self.spans.append(span)
        return span

    def _push(self, name: str) -> dict:
        parent = self._open[-1]["id"] if self._open else None
        span = self._record(name, perf_counter(), None, parent)
        self._open.append(span)
        return span

    def _pop(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._open.remove(span)

    def start_analysis(self, analysis_id) -> None:
        self._analysis = analysis_id
        self._push("analysis")

    def end_analysis(self) -> None:
        root = self._open[0]
        self._pop(root)
        reports = [s for s in self.spans[root["id"]:] if s["name"] == "build_report"]
        if reports:  # JSON rendering and exit: from build_report's return to the end
            self._record("emit", reports[-1]["end"], root["end"], root["id"])
        for cache in self._caches:
            self.counts["span_cache_entries"] += sum(
                len(v) for v in vars(cache).values() if isinstance(v, dict)
            )
        self._caches.clear()

    # --- metrics ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics summed over every analysis traced so far."""
        duration: Counter = Counter()
        self_time: Counter = Counter()
        kernels: Counter = Counter()
        children: Counter = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        for s in self.spans:
            length = s["end"] - s["start"]
            ktime = sum(rec[1] for rec in s["kernels"].values())
            duration[s["name"]] += length
            self_time[s["name"]] += length - children[s["id"]] - ktime
            where = s["name"] if s["name"] in STAGES else None
            for k, (calls, seconds, cells) in s["kernels"].items():
                for suffix in ("", f".{where}") if where else ("",):
                    kernels[f"exact_linalg.{k}_calls{suffix}"] += calls
                    kernels[f"exact_linalg.cells_reduced{suffix}"] += cells
                    kernels[f"exact_linalg.kernel_self_s{suffix}"] += seconds
        values: dict[str, float] = {
            "cli.parse_s": duration["parse"],
            "cli.emit_s": duration["emit"],
            "arrangement.load_s": duration["load"],
            "arrangement.compute_s_calls": self.counts["compute_s"],
            "dimension_search.partitions_enumerated": self.counts["partitions_rgs"],
            "dimension_search.check_partition_calls": self.counts["check_partition"],
            "dimension_search.span_cache_entries": self.counts["span_cache_entries"],
            "corollaries.finiteness_scans": self.counts["finiteness_verdict"],
        }
        for stage, layer in STAGES.items():
            values[f"{layer}.{stage}_s"] = duration[stage]
            values[f"{layer}.{stage}_self_s"] = self_time[stage]
        out = {}
        for name, _unit, deps in TRACED:
            if any(d in self.missing for d in deps):
                continue
            if name.startswith("exact_linalg.cells_reduced") and self.cells_unreadable:
                continue
            out[name] = values[name] if name in values else kernels[name]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": sorted(self.missing), "spans": self.spans}, fh)
